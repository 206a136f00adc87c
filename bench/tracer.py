"""In-memory span tracer that wraps library functions from outside.

A span is (id, name, start, end, parent id).  Every span closed adds to
per-name aggregates (calls, inclusive seconds, self seconds, where self
time is the span minus the part of it covered by child spans); the
first ``span_cap`` spans are also kept verbatim and written out at the
end of the run.  The cap bounds memory: a docs run makes millions of
estimator calls.

A child's bookkeeping (opening, closing, clock reads) falls outside its
[start, end], so the parent is charged the child's whole interval, from
before the child opens to after it closes.  The tracer's own cost thus
lands in no span's self time; ``bookkeeping_s`` sums it.

Functions are wrapped at the module attribute their caller looks up,
e.g. ``namefinder.decoder.p_next_word`` rather than
``namefinder.estimator.p_next_word``, because ``decoder`` imported the
name into its own namespace.  A target the library no longer has is
skipped and reported in ``missing``; its metrics then read 0 calls.
"""

import importlib
import json
import time
from collections import defaultdict


class Tracer:
    def __init__(self, span_cap=100_000):
        self.span_cap = span_cap
        self.spans = []
        self.dropped = 0
        self.calls = defaultdict(int)
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.missing = []
        self.bookkeeping_s = 0.0  # inside parent spans, outside every span's self time
        self._stack = []  # open spans: [id, child seconds]
        self._next_id = 0
        self._patched = []

    def _open(self):
        span_id = self._next_id
        self._next_id += 1
        frame = [span_id, 0.0]
        self._stack.append(frame)
        return frame

    def _close(self, name, frame, outer_start, start, end):
        """Close the innermost span; outer_start is read before it opened."""
        stack = self._stack
        stack.pop()
        duration = end - start
        self.calls[name] += 1
        self.total_s[name] += duration
        self.self_s[name] += duration - frame[1]
        parent = stack[-1][0] if stack else -1
        if len(self.spans) < self.span_cap:
            self.spans.append((frame[0], name, start, end, parent))
        else:
            self.dropped += 1
        if stack:
            interval = time.perf_counter() - outer_start
            stack[-1][1] += interval
            self.bookkeeping_s += interval - duration

    def span(self, name):
        """Context manager recording one span from the caller's side."""
        return _Span(self, name)

    def wrap(self, name, fn):
        """Return fn wrapped in a span.  name may be a callable of
        (args, kwargs) for functions whose calls play different roles."""
        clock = time.perf_counter
        name_of = name if callable(name) else None

        def traced(*args, **kwargs):
            outer_start = clock()
            span_name = name_of(args, kwargs) if name_of else name
            frame = self._open()
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(span_name, frame, outer_start, start, clock())

        traced.__wrapped__ = fn
        return traced

    def install(self, targets):
        """Patch each (module, attribute, span name) target until uninstall()."""
        for module_name, attribute, name in targets:
            module = importlib.import_module(module_name)
            original = getattr(module, attribute, None)
            if original is None:
                target = "%s.%s" % (module_name, attribute)
                if target not in self.missing:
                    self.missing.append(target)
                continue
            self._patched.append((module, attribute, original))
            setattr(module, attribute, self.wrap(name, original))

    def uninstall(self):
        while self._patched:
            module, attribute, original = self._patched.pop()
            setattr(module, attribute, original)

    def write(self, path, extra=None):
        record = {
            "span_fields": ["id", "name", "start", "end", "parent"],
            "spans": self.spans,
            "spans_dropped": self.dropped,
            "bookkeeping_s": self.bookkeeping_s,
            "missing_targets": self.missing,
            "aggregate": {
                name: {"calls": self.calls[name], "total_s": self.total_s[name],
                       "self_s": self.self_s[name]}
                for name in sorted(self.calls)
            },
        }
        if extra:
            record.update(extra)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(record, handle)


class _Span:
    __slots__ = ("tracer", "name", "frame", "outer_start", "start")

    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        self.outer_start = time.perf_counter()
        self.frame = self.tracer._open()
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.tracer._close(self.name, self.frame, self.outer_start, self.start,
                           time.perf_counter())
        return False


class NullTracer:
    """Stand-in for untraced runs: spans cost one method call and record nothing."""

    def span(self, name):
        return _NULL_SPAN


class _NullSpan:
    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL_SPAN = _NullSpan()
