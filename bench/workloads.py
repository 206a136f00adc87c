"""Inputs, workloads and output checks of the namefinder benchmark.

Three workloads load the library's layers differently:

- ``stream``: one long-lived Decoder over a long plain-text stream after
  a warm-up pass.  Caches answer most probability queries, so the
  Viterbi recurrence, features, tokenizing and emitting do the work.
- ``docs``: a fresh Decoder per article-sized document over a model
  loaded once.  Caches start empty, so mixture evaluation in the
  estimator dominates.
- ``train``: annotated text -> parse_annotated -> train ->
  serialize_model -> deserialize_model.  Parsing, features, counting and
  model I/O do the work; nothing is decoded in the timed loop.

Every run reports every end-to-end metric.  A workload's timed loop
gives its own figures; the others come from phases every run shares:

- set-up builds the decoding model in a child process with one train
  round, and that round's speed is ``train_tok_per_s`` on stream and
  docs;
- the check phase decodes the key documents with a fresh Decoder each,
  and on train, whose loop decodes nothing, those latencies give
  ``decode_mb_per_hr`` and ``doc_ms_*``.

Inputs come from ``namefinder.synthetic`` with seeds derived from the
run's seed, disjoint between training text, warm-up text, documents and
the text that tracing overhead is calibrated on.
"""

import copy
import hashlib
import itertools
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

from namefinder import corpus as nf_corpus
from namefinder import counts as nf_counts
from namefinder import decoder as nf_decoder
from namefinder import model_io as nf_model_io
# Bound at import, before any tracing patch, so that checks stay untraced.
# score_path and Decoder look up estimator functions in the decoder
# module, so they are called only after the tracer is uninstalled.
from namefinder.corpus import AnnotatedSentence, emit_annotated, parse_annotated
from namefinder.counts import train
from namefinder.decoder import Decoder, score_path
from namefinder.features import Token, compute_feature
from namefinder.model_io import read_model, serialize_model
from namefinder.scorer import score
from namefinder.synthetic import generate_corpus, generate_sentence

from gauge import SpeedGauge
from tracer import NullTracer, Tracer

WORKLOADS = ("stream", "docs", "train")
DEFAULT_SEED = 1
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
DIGEST_FILE = os.path.join(BENCH_DIR, "input_digests.json")

SCORE_TOLERANCE = 1e-9
F_FULL_FLOOR = 0.90  # the synthetic end-to-end gate of the acceptance suite
MIN_OPS = 2  # quantiles need two samples
SMALL_FRACTION = 16  # f_small trains on this fraction of the corpus
# The stream decodes this many documents per --seconds, whatever the
# machine's speed: its caches never evict, so its memory and hit rate
# depend on how many documents it has seen.  60 takes about --seconds
# at nominal speed.
STREAM_DOCS_PER_SECOND = 60
MAX_FAILURE_MESSAGES = 20

# Seed roles: training text, warm-up text, documents to decode, and
# documents to calibrate tracing overhead on.
_ROLES = 4
_TRAIN, _WARMUP, _DOCS, _CALIBRATION = range(_ROLES)

END_TO_END_UNITS = {
    "setup_s": "s",
    "decode_mb_per_hr": "MB/hr",
    "doc_ms_p50": "ms",
    "doc_ms_p90": "ms",
    "train_tok_per_s": "tok/s",
    "peak_rss_mb": "MB",
    "f_full": "fraction",
    "f_folded": "fraction",
    "f_small": "fraction",
}


def _collect_counts_span(args, kwargs):
    held_out = kwargs.get("map_unknown", args[2] if len(args) > 2 else False)
    return "counts.collect_counts.heldout" if held_out else "counts.collect_counts.main"


# Each target is the module attribute its caller looks up.  The benchmark
# itself calls parse_annotated, emit_annotated, train and the model_io
# functions through their modules, so those are patched there too.
TRACE_TARGETS = (
    ("namefinder.corpus", "parse_annotated", "corpus.parse_annotated"),
    ("namefinder.corpus", "emit_annotated", "corpus.emit_annotated"),
    ("namefinder.decoder", "tokenize", "corpus.tokenize"),
    ("namefinder.decoder", "compute_feature", "features.compute_feature"),
    ("namefinder.counts", "compute_feature", "features.compute_feature"),
    ("namefinder.counts", "train", "counts.train"),
    ("namefinder.counts", "build_vocabulary", "counts.build_vocabulary"),
    ("namefinder.counts", "collect_counts", _collect_counts_span),
    ("namefinder.decoder", "p_class_transition", "estimator.p_class_transition"),
    ("namefinder.decoder", "p_first_word", "estimator.p_first_word"),
    ("namefinder.decoder", "p_next_word", "estimator.p_next_word"),
    ("namefinder.model_io", "serialize_model", "model_io.serialize_model"),
    ("namefinder.model_io", "deserialize_model", "model_io.deserialize_model"),
)

# Span names whose self time makes up each layer.
LAYERS = {
    "corpus": ("corpus.parse_annotated", "corpus.tokenize", "corpus.emit_annotated"),
    "features": ("features.compute_feature",),
    "counts": ("counts.train", "counts.build_vocabulary",
               "counts.collect_counts.main", "counts.collect_counts.heldout"),
    "estimator": ("estimator.p_class_transition", "estimator.p_first_word",
                  "estimator.p_next_word"),
    "decoder": ("decoder.init", "decoder.decode_document"),
    "model_io": ("model_io.serialize_model", "model_io.deserialize_model"),
}

ESTIMATOR_FUNCTIONS = ("p_class_transition", "p_first_word", "p_next_word")

PER_LAYER_UNITS = {
    "corpus.parse_annotated.s": "s",
    "corpus.parse_annotated.scaling_2x": "ratio",
    "corpus.tokenize.s": "s",
    "corpus.emit_annotated.s": "s",
    "corpus.share": "fraction",
    "features.compute_feature.calls": "count",
    "features.compute_feature.s": "s",
    "features.share": "fraction",
    "counts.build_vocabulary.s": "s",
    "counts.collect_counts.main.s": "s",
    "counts.collect_counts.heldout.s": "s",
    "counts.table_rows": "count",
    "counts.share": "fraction",
    **{"estimator.%s.%s" % (fn, kind): unit
       for fn in ESTIMATOR_FUNCTIONS for kind, unit in (("calls", "count"), ("s", "s"))},
    "estimator.queries_per_token": "queries/tok",
    "estimator.share": "fraction",
    "decoder.init_s": "s",
    "decoder.self_s": "s",
    "decoder.tokens": "count",
    "decoder.sentences": "count",
    "decoder.oov_token_share": "fraction",
    "decoder.share": "fraction",
    "model_io.serialize_model.s": "s",
    "model_io.deserialize_model.s": "s",
    "model_io.model_bytes": "bytes",
    "model_io.share": "fraction",
    "trace.overhead_s": "s",
    "trace.overhead_share": "fraction",
}


@dataclass(frozen=True)
class Sizes:
    """Input sizes and repeat counts; ``name`` keys the recorded digest."""

    name: str = "default"
    train_sentences: int = 4000  # 0.68 MB of markup: parsing's quadratic shows
    doc_sentences: int = 25  # an article, about 400 tokens
    warmup_docs: int = 40
    min_docs: int = 100  # docs decodes at least this many: its p90 has ten beyond it
    key_docs: int = 12
    digest_docs: int = 32
    setup_repeats: int = 5
    setup_train_rounds: int = 2  # rounds of the model build on stream and docs
    check_passes: int = 4  # decode passes over the key documents on train
    score_samples: int = 64
    sample_stride: int = 8
    calibration_docs: int = 4
    calibration_repeats: int = 3


DEFAULT_SIZES = Sizes()
TINY_SIZES = Sizes(name="tiny", train_sentences=600, doc_sentences=3, warmup_docs=2,
                   min_docs=MIN_OPS, key_docs=3, digest_docs=3, setup_repeats=2,
                   setup_train_rounds=1, check_passes=1, score_samples=4,
                   sample_stride=1, calibration_docs=1, calibration_repeats=1)


class InputsChanged(RuntimeError):
    """The generator no longer produces the recorded inputs."""


# --- Inputs -----------------------------------------------------------------

def training_corpus(seed, sizes):
    return generate_corpus(sizes.train_sentences, _ROLES * seed + _TRAIN)


def documents(seed, role, sizes):
    """Endless documents of doc_sentences sentences each."""
    rng = random.Random(_ROLES * seed + role)
    while True:
        yield [generate_sentence(rng) for _ in range(sizes.doc_sentences)]


def plain_text(doc):
    return "\n".join(" ".join(sentence.tokens) for sentence in doc)


def _hash_sentences(digest, sentences):
    for sentence in sentences:
        digest.update("\x1f".join(sentence.tokens).encode("utf-8"))
        digest.update(b"\x1e")
        digest.update(";".join("%d,%d,%s" % (r.start, r.end, r.name_class)
                               for r in sentence.regions).encode("utf-8"))
        digest.update(b"\n")


def inputs_digest(seed, sizes):
    """sha256 over the token and region content of a seed's inputs."""
    digest = hashlib.sha256()
    _hash_sentences(digest, training_corpus(seed, sizes))
    for role, count in ((_WARMUP, sizes.warmup_docs), (_DOCS, sizes.digest_docs),
                        (_CALIBRATION, sizes.calibration_docs)):
        for doc in itertools.islice(documents(seed, role, sizes), count):
            _hash_sentences(digest, doc)
    return digest.hexdigest()


def check_inputs(sizes):
    """Raise InputsChanged unless the default seed's inputs hash as recorded."""
    with open(DIGEST_FILE, encoding="utf-8") as handle:
        recorded = json.load(handle)
    expected = recorded["sha256"][sizes.name]
    actual = inputs_digest(recorded["seed"], sizes)
    if actual != expected:
        raise InputsChanged(
            "generated inputs changed: seed %d at %s sizes hashes to %s, %s records %s. "
            "If the generator change is deliberate, record the new digest there."
            % (recorded["seed"], sizes.name, actual, DIGEST_FILE, expected))
    return actual


# --- Operations ---------------------------------------------------------------
# Timed code calls the library through module attributes, so a traced run
# sees the tracer's wrappers.

def build_round(text, measure):
    """One write-side operation: annotated text to a loaded model.

    measure is SpeedGauge.measure.  Each step is measured on its own, so
    that the gauge reads the machine's speed between them.
    Returns ((sentences, model text, loaded model), seconds, seconds at
    nominal speed).
    """
    sentences, *parse_s = measure(nf_corpus.parse_annotated, text)
    model, *train_s = measure(nf_counts.train, sentences)
    model_text, *serialize_s = measure(nf_model_io.serialize_model, model)
    loaded, *deserialize_s = measure(nf_model_io.deserialize_model, model_text)
    steps = (parse_s, train_s, serialize_s, deserialize_s)
    return ((sentences, model_text, loaded),
            sum(step[0] for step in steps), sum(step[1] for step in steps))


def op_span(op, tracer, *args):
    """op(tracer, *args) inside the span that layer shares are taken of."""
    with tracer.span("op"):
        return op(tracer, *args)


def decode_op(tracer, decoder, text):
    with tracer.span("decoder.decode_document"):
        results = decoder.decode_document(text)
    return results, nf_corpus.emit_annotated([r.sentence for r in results])


def fresh_decode_op(tracer, model, text):
    with tracer.span("decoder.init"):
        decoder = nf_decoder.Decoder(model)
    return decode_op(tracer, decoder, text)


def build_model_file(corpus_path, model_path, rounds):
    """Child-process set-up: timed train rounds, the model written to a file.

    Returns corpus tokens per second at nominal speed.  It runs in its own
    process so that the parent's peak memory is that of loading and
    decoding.
    """
    with open(corpus_path, encoding="utf-8") as handle:
        text = handle.read()
    measure = SpeedGauge().measure
    tokens = seconds = 0.0
    for _ in range(rounds):
        (sentences, model_text, _), _, round_s = build_round(text, measure)
        tokens += sum(len(s.tokens) for s in sentences)
        seconds += round_s
    with open(model_path, "w", encoding="utf-8") as handle:
        handle.write(model_text)
    return tokens / seconds


_CHILD_SCRIPT = """\
import sys
sys.path[:0] = sys.argv[1:3]
import workloads
print(repr(workloads.build_model_file(sys.argv[3], sys.argv[4], int(sys.argv[5]))))
"""


def _build_in_child(corpus_path, model_path, rounds):
    """Run build_model_file in a child interpreter and wait for it to end.

    A plain subprocess, not multiprocessing: spawning through
    multiprocessing also starts a resource-tracker process that outlives
    this one.  subprocess.run kills and reaps the child if waiting fails.
    """
    src_dir = os.path.dirname(os.path.dirname(os.path.abspath(nf_decoder.__file__)))
    done = subprocess.run(
        [sys.executable, "-c", _CHILD_SCRIPT, BENCH_DIR, src_dir,
         corpus_path, model_path, str(rounds)],
        stdin=subprocess.DEVNULL, capture_output=True, text=True, check=False)
    if done.returncode != 0:
        raise RuntimeError("model build child exited with code %d: %s"
                           % (done.returncode, done.stderr.strip()[-2000:]))
    return float(done.stdout.strip().splitlines()[-1])


# --- Checks -------------------------------------------------------------------

def _check_doc(doc, results, output):
    """Error message, or None when the decode and its markup are consistent."""
    words = [sentence.tokens for sentence in doc]
    if [r.sentence.tokens for r in results] != words:
        return "decoded sentences differ from the input tokens"
    reparsed = parse_annotated(output)
    if [s.tokens for s in reparsed] != words:
        return "emitted output does not re-parse to the input tokens"
    if [s.regions for s in reparsed] != [r.sentence.regions for r in results]:
        return "emitted regions differ from the decoded regions"
    return None


def _paths(results):
    return tuple((r.path_classes, r.path_boundaries) for r in results)


def _fold(sentence):
    """Upper-case text, as in the paper's upper-case and speech settings."""
    return AnnotatedSentence([word.upper() for word in sentence.tokens],
                             list(sentence.regions))


def _f_measure(key_docs, decoded_docs):
    key = [sentence for doc in key_docs for sentence in doc]
    response = [r.sentence for results in decoded_docs for r in results]
    return score(key, response).overall.f_measure


# --- Runs ---------------------------------------------------------------------

class Run:
    """One benchmark run: its settings, measurements, counters and failures."""

    def __init__(self, workload, seed, seconds, trace, sizes, out_dir):
        if workload not in WORKLOADS:
            raise ValueError("unknown workload %r" % (workload,))
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.traced = trace
        self.sizes = sizes
        self.out_dir = out_dir
        self.tracer = Tracer() if trace else NullTracer()
        self.gauge = SpeedGauge()
        self.ops = 0
        self.measured_s = 0.0  # seconds in operations; ends the loop
        self.timed_s = 0.0  # the same at nominal speed
        self.failed_ops = set()
        self.failures = []
        self.checks = {}
        # Documents decoded by the timed loop, or by the check phase on train.
        self.latencies = []  # seconds at nominal speed
        self.input_bytes = 0
        self.tokens = 0
        self.sentences = 0
        self.oov_tokens = 0
        self.samples = []  # (op index, words, DecodeResult) for score_path
        self.loop_paths = {}  # op index -> paths, for the key documents
        self.info = {}

    def path(self, suffix):
        return os.path.join(self.out_dir, "%s-seed%d-%s" % (self.workload, self.seed, suffix))

    def fail(self, op, message):
        self.failed_ops.add(op)
        if len(self.failures) < MAX_FAILURE_MESSAGES:
            self.failures.append("op %d: %s" % (op, message))

    def install(self):
        if self.traced:
            self.tracer.install(TRACE_TARGETS)

    def uninstall(self):
        if self.traced:
            self.tracer.uninstall()

    def repeat_timed(self, fn, repeats):
        """fn's last result and its median seconds at nominal speed over repeats."""
        times = []
        result = None
        for _ in range(repeats):
            result = None  # let the previous result go before the next call
            self.gauge.sample()  # a reading of its own for each repeat
            result, _, seconds = self.gauge.measure(fn)
            times.append(seconds)
        return result, statistics.median(times)

    def timed_loop(self, items, op, after, min_ops):
        """Run op over items until self.seconds of operation time have passed
        and at least min_ops have run, or until items run out.

        op(tracer, item) returns (result, seconds, seconds at nominal
        speed), as SpeedGauge.measure does, and opens the "op" span that
        layer shares are taken of.  Only op is timed.  after() checks its
        result untimed and gets its seconds at nominal speed.
        """
        tracer = self.tracer
        loop_start = (dict(tracer.self_s), tracer.bookkeeping_s) if self.traced else None
        self.install()
        try:
            for index, item in enumerate(items):
                if index >= min_ops and self.measured_s >= self.seconds:
                    break
                self.ops += 1
                start = time.perf_counter()
                try:
                    result, seconds_measured, seconds = op(tracer, item)
                except Exception as exc:  # a failing operation is counted; the run goes on
                    self.measured_s += time.perf_counter() - start
                    self.timed_s += time.perf_counter() - start
                    self.fail(index, "raised %s: %s" % (type(exc).__name__, exc))
                    continue
                self.measured_s += seconds_measured
                self.timed_s += seconds
                after(index, item, result, seconds)
        finally:
            self.uninstall()
        self.info["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if self.traced:
            self_s, bookkeeping_s = loop_start
            self.info["loop_self_s"] = {name: spent - self_s.get(name, 0.0)
                                        for name, spent in tracer.self_s.items()}
            self.info["loop_bookkeeping_s"] = tracer.bookkeeping_s - bookkeeping_s

    def record_doc(self, model, index, doc, text, result, seconds):
        results, output = result
        self.latencies.append(seconds)
        self.input_bytes += len(text.encode("utf-8"))
        error = _check_doc(doc, results, output)
        if error:
            self.fail(index, error)
        vocabulary = model.vocabulary
        for sentence in doc:
            self.sentences += 1
            self.tokens += len(sentence.tokens)
            self.oov_tokens += sum(1 for w in sentence.tokens if w not in vocabulary)
        if index < self.sizes.key_docs:
            self.loop_paths[index] = _paths(results)
        if (index % self.sizes.sample_stride == 0
                and len(self.samples) < self.sizes.score_samples):
            self.samples.append((index, doc[0].tokens, results[0]))

    def calibrate(self, op, prepare=lambda: None):
        """Tracing overhead: the same operation untraced and traced, alternately.

        op(tracer, state) is timed; prepare() makes each call's state
        untimed.  Returns (traced - untraced seconds, that over untraced),
        medians of seconds at nominal speed: the machine's speed drifts
        between the alternate calls.
        """
        if not self.traced:
            return None
        untraced, traced = [], []
        op(NullTracer(), prepare())  # fill what a first call fills
        for _ in range(self.sizes.calibration_repeats):
            untraced.append(self.gauge.measure(op, NullTracer(), prepare())[2])
            state = prepare()
            tracer = Tracer(span_cap=self.tracer.span_cap)
            tracer.install(TRACE_TARGETS)
            try:
                traced.append(self.gauge.measure(op, tracer, state)[2])
            finally:
                tracer.uninstall()
        base = statistics.median(untraced)
        overhead = statistics.median(traced) - base
        return overhead, overhead / base

    def check_scores(self, model):
        for index, words, result in self.samples:
            tokens = [Token(w, compute_feature(w, i == 0, model.feature_config))
                      for i, w in enumerate(words)]
            rebuilt = score_path(tokens, result.path_classes, result.path_boundaries, model)
            if not math.isclose(rebuilt, result.log_score, rel_tol=0.0,
                                abs_tol=SCORE_TOLERANCE):
                self.fail(index, "log_score %r but score_path gives %r"
                          % (result.log_score, rebuilt))

    def quality(self, model, train_sentences, key_docs):
        """F of the full, 1/16-data and upper-case models on the key documents.

        Decodes with a fresh Decoder per document, as the docs loop does,
        and checks the loop's paths for these documents against them.  On
        train, whose loop decodes nothing, the full model's decodes are
        timed and repeated to stand in for the loop's latencies.
        Returns (f_full, f_small, f_folded).
        """
        texts = [plain_text(doc) for doc in key_docs]
        paths = hashlib.sha256()
        scores = hashlib.sha256()

        def digest(decoded):
            for results in decoded:
                paths.update(repr(_paths(results)).encode("utf-8"))
                scores.update(repr([r.log_score for r in results]).encode("utf-8"))

        def decode_all(decode_model, passes=1, timed=False):
            for _ in range(passes):
                decoded = []
                for text in texts:
                    if timed:
                        (results, _), _, seconds = self.gauge.measure(
                            fresh_decode_op, NullTracer(), decode_model, text)
                        self.latencies.append(seconds)
                        self.input_bytes += len(text.encode("utf-8"))
                    else:
                        results, _ = fresh_decode_op(NullTracer(), decode_model, text)
                    decoded.append(results)
            digest(decoded)
            return decoded

        if self.workload == "train":
            full = decode_all(model, self.sizes.check_passes, timed=True)
        else:
            full = decode_all(model)
        for index, results in enumerate(full):
            if index in self.loop_paths and self.loop_paths[index] != _paths(results):
                self.fail(index, "decoded paths differ from a fresh Decoder's")
        f_full = _f_measure(key_docs, full)

        small_model = train(train_sentences[:len(train_sentences) // SMALL_FRACTION])
        f_small = _f_measure(key_docs, decode_all(small_model))

        folded_model = train([_fold(s) for s in train_sentences])
        folded_docs = [[_fold(s) for s in doc] for doc in key_docs]
        folded = []
        for doc in folded_docs:
            decoder = Decoder(folded_model)
            folded.append([decoder.decode_sentence(s.tokens) for s in doc])
        digest(folded)
        f_folded = _f_measure(folded_docs, folded)

        self.info["paths_sha256"] = paths.hexdigest()
        self.info["log_scores_sha256"] = scores.hexdigest()
        self.checks["f_full_at_least_%.2f" % F_FULL_FLOOR] = f_full >= F_FULL_FLOOR
        return f_full, f_small, f_folded

    def parse_scaling(self, train_sentences):
        """time(parse 2n) / time(parse n), n = half the training corpus."""
        half = emit_annotated(train_sentences[:len(train_sentences) // 2])
        full = emit_annotated(train_sentences)
        return (self.gauge.measure(parse_annotated, full)[1]
                / self.gauge.measure(parse_annotated, half)[1])


def _table_rows(model):
    return sum(len(table) for tables in (model.main, model.unknown)
               for table in tables.tables().values())


def _decode_setup(run, train_sentences):
    """Build the model in a child, then load it; returns (model, decoder)."""
    corpus_path = run.path("corpus.ann")
    model_path = run.path("model.nf")
    with open(corpus_path, "w", encoding="utf-8") as handle:
        handle.write(emit_annotated(train_sentences))
    try:
        run.info["train_tok_per_s"] = _build_in_child(
            corpus_path, model_path, run.sizes.setup_train_rounds)

        def load():
            with run.tracer.span("setup"):
                model = nf_model_io.read_model(model_path)
                with run.tracer.span("decoder.init"):
                    return model, nf_decoder.Decoder(model)

        run.install()
        try:
            (model, decoder), run.info["setup_s"] = run.repeat_timed(
                load, run.sizes.setup_repeats)
        finally:
            run.uninstall()
        with open(model_path, encoding="utf-8") as handle:
            model_text = handle.read()
        run.info["model_bytes"] = len(model_text.encode("utf-8"))
        run.checks["model_write_read_write_identical"] = (
            serialize_model(read_model(model_path)) == model_text)
    finally:
        for path in (corpus_path, model_path):
            if os.path.exists(path):
                os.remove(path)
    return model, decoder


def _texts(run, role, count):
    return [plain_text(doc) for doc in
            itertools.islice(documents(run.seed, role, run.sizes), count)]


def _decode_loop(run, model, op, min_ops, count=None):
    """Decode count documents, or documents for --seconds and at least min_ops."""
    docs = ((doc, plain_text(doc)) for doc in
            itertools.islice(documents(run.seed, _DOCS, run.sizes), count))
    run.timed_loop(
        docs, lambda tracer, item: run.gauge.measure(op_span, op, tracer, item[1]),
        lambda index, item, result, seconds:
            run.record_doc(model, index, item[0], item[1], result, seconds),
        min_ops)
    run.check_scores(model)


def run_stream(run, train_sentences, key_docs):
    model, decoder = _decode_setup(run, train_sentences)
    for text in _texts(run, _WARMUP, run.sizes.warmup_docs):
        decode_op(NullTracer(), decoder, text)
    # Overhead is calibrated on unseen text, each time with a copy of the
    # warm decoder, so that the cache hit rate is the loop's and the
    # decoder the loop uses is not touched.
    calibration_texts = _texts(run, _CALIBRATION, run.sizes.calibration_docs)

    def calibration(tracer, warm_copy):
        for text in calibration_texts:
            decode_op(tracer, warm_copy, text)

    run.info["overhead"] = run.calibrate(
        calibration, lambda: copy.deepcopy(decoder, {id(model): model}))
    count = max(MIN_OPS, round(STREAM_DOCS_PER_SECOND * run.seconds))
    _decode_loop(run, model, lambda tracer, text: decode_op(tracer, decoder, text),
                 count, count)
    return model


def run_docs(run, train_sentences, key_docs):
    model, _ = _decode_setup(run, train_sentences)
    calibration_texts = _texts(run, _CALIBRATION, run.sizes.calibration_docs)

    def calibration(tracer, _):
        for text in calibration_texts:
            fresh_decode_op(tracer, model, text)

    run.info["overhead"] = run.calibrate(calibration)
    _decode_loop(run, model, lambda tracer, text: fresh_decode_op(tracer, model, text),
                 run.sizes.min_docs)
    return model


def run_train(run, train_sentences, key_docs):
    corpus_path = run.path("corpus.ann")
    with open(corpus_path, "w", encoding="utf-8") as handle:
        handle.write(emit_annotated(train_sentences))

    def read_corpus():
        with open(corpus_path, encoding="utf-8") as handle:
            return handle.read()

    try:
        # A read takes well under a millisecond, so take many.
        text, run.info["setup_s"] = run.repeat_timed(read_corpus, 8 * run.sizes.setup_repeats)
    finally:
        os.remove(corpus_path)
    corpus_tokens = sum(len(s.tokens) for s in train_sentences)
    small_text = emit_annotated(train_sentences[:len(train_sentences) // 8])
    run.info["overhead"] = run.calibrate(
        lambda tracer, _: build_round(small_text, run.gauge.measure))

    state = {"model": None, "model_text": None, "tokens": 0, "seconds": 0.0}

    def after(index, item, result, seconds):
        sentences, model_text, loaded = result
        tokens = sum(len(s.tokens) for s in sentences)
        if tokens != corpus_tokens:
            run.fail(index, "parsed %d tokens, generated %d" % (tokens, corpus_tokens))
        if serialize_model(loaded) != model_text:
            run.fail(index, "model write->read->write is not byte-identical")
        if state["model_text"] is not None and model_text != state["model_text"]:
            run.fail(index, "model text differs from the first round's")
        state["model"], state["model_text"] = loaded, model_text
        state["tokens"] += tokens
        state["seconds"] += seconds

    def op(tracer, text):
        # The span holds the gauge's readings between steps too: about
        # 10 ms of a round of seconds.
        with tracer.span("op"):
            return build_round(text, run.gauge.measure)

    run.timed_loop(itertools.repeat(text), op, after, MIN_OPS)
    if state["model"] is None:
        raise RuntimeError("every train round failed: %s" % "; ".join(run.failures))
    run.info["train_tok_per_s"] = state["tokens"] / state["seconds"]
    run.info["model_bytes"] = len(state["model_text"].encode("utf-8"))
    return state["model"]


_RUNNERS = {"stream": run_stream, "docs": run_docs, "train": run_train}


def end_to_end_metrics(run, f_full, f_small, f_folded):
    info = run.info
    latencies = run.latencies
    if len(latencies) >= 2:
        mb_per_hr = run.input_bytes / 1e6 / (sum(latencies) / 3600.0)
        p50, p90 = statistics.median(latencies), statistics.quantiles(latencies, n=10)[-1]
    else:  # failed operations left too few samples; the result is not correct anyway
        mb_per_hr = p50 = p90 = 0.0
    values = {
        "setup_s": info["setup_s"],
        "decode_mb_per_hr": mb_per_hr,
        "doc_ms_p50": p50 * 1000.0,
        "doc_ms_p90": p90 * 1000.0,
        "train_tok_per_s": info["train_tok_per_s"],
        "peak_rss_mb": info["peak_rss_mb"],
        "f_full": f_full,
        "f_folded": f_folded,
        "f_small": f_small,
    }
    return {name: (values[name], unit) for name, unit in END_TO_END_UNITS.items()}


def per_layer_metrics(run, model, scaling_2x):
    tracer = run.tracer
    calls, self_s = tracer.calls, tracer.self_s
    values = {
        "corpus.parse_annotated.scaling_2x": scaling_2x,
        "features.compute_feature.calls": calls["features.compute_feature"],
        "counts.table_rows": _table_rows(model),
        "decoder.init_s": tracer.total_s["decoder.init"],
        "decoder.self_s": self_s["decoder.decode_document"],
        "decoder.tokens": run.tokens,
        "decoder.sentences": run.sentences,
        "decoder.oov_token_share": run.oov_tokens / run.tokens if run.tokens else 0.0,
        "model_io.model_bytes": run.info["model_bytes"],
    }
    for name in ("corpus.parse_annotated", "corpus.tokenize", "corpus.emit_annotated",
                 "features.compute_feature", "counts.build_vocabulary",
                 "counts.collect_counts.main", "counts.collect_counts.heldout",
                 "model_io.serialize_model", "model_io.deserialize_model"):
        values[name + ".s"] = self_s[name]
    queries = 0
    for fn in ESTIMATOR_FUNCTIONS:
        name = "estimator." + fn
        values[name + ".calls"] = calls[name]
        values[name + ".s"] = self_s[name]
        queries += calls[name]
    values["estimator.queries_per_token"] = queries / run.tokens if run.tokens else 0.0
    # Shares are of the timed loop's operation time only, so that set-up
    # spans (model loads) do not dilute them, and without the tracer's
    # bookkeeping, which no layer's self time includes.
    loop_self_s = run.info["loop_self_s"]
    op_s = tracer.total_s["op"] - run.info["loop_bookkeeping_s"]
    for layer, names in LAYERS.items():
        spent = sum(loop_self_s.get(n, 0.0) for n in names)
        values[layer + ".share"] = spent / op_s if op_s else 0.0
    overhead_s, overhead_share = run.info["overhead"]
    values["trace.overhead_s"] = overhead_s
    values["trace.overhead_share"] = overhead_share
    return {name: (values[name], unit) for name, unit in PER_LAYER_UNITS.items()}


def run_workload(workload, seed, seconds, trace, sizes=DEFAULT_SIZES, out_dir=None):
    """Run one workload; returns the result record (metrics as (value, unit))."""
    out_dir = out_dir or os.path.join(BENCH_DIR, "out")
    os.makedirs(out_dir, exist_ok=True)
    run = Run(workload, seed, seconds, trace, sizes, out_dir)
    inputs_sha256 = check_inputs(sizes)
    train_sentences = training_corpus(seed, sizes)
    key_docs = list(itertools.islice(documents(seed, _DOCS, sizes), sizes.key_docs))
    model = _RUNNERS[workload](run, train_sentences, key_docs)
    f_full, f_small, f_folded = run.quality(model, train_sentences, key_docs)
    if trace:
        metrics = per_layer_metrics(run, model, run.parse_scaling(train_sentences))
    else:
        metrics = end_to_end_metrics(run, f_full, f_small, f_folded)
    failed = len(run.failed_ops)
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "correct": failed == 0 and all(run.checks.values()),
        "attempted": run.ops,
        "failed": failed,
        "timed_s_at_nominal_speed": run.timed_s,
        "timed_s_measured": run.measured_s,
        "latency_samples": len(run.latencies),
        "speed_readings": len(run.gauge.readings),
        "checks": run.checks,
        "failures": run.failures,
        "paths_sha256": run.info["paths_sha256"],
        "log_scores_sha256": run.info["log_scores_sha256"],
        "inputs_sha256_default_seed": inputs_sha256,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    result_path = run.path("trace%d.json" % int(trace))
    if trace:
        run.tracer.write(result_path, {"result": record})
    else:
        with open(result_path, "w", encoding="utf-8") as handle:
            json.dump(record, handle, indent=1)
    record["result_file"] = result_path
    return record
