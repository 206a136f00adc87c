"""Line-oriented model file format.

Layout: a fixed header (magic+version, feature config, class
inventory), a [vocabulary] section of word<TAB>id rows, where a word's
id is its position in the section (1, 2, ...), then one section per
counted table (``CountTables.NAMES``; the pooled levels are derived on
load), main tables before unknown tables, each row
`event<TAB>context<TAB>count`.  Rows end at ``\n`` only.  Event and
context components are space-joined, with backslash escapes for
characters that would collide with the framing (backslash, space, tab,
newline, and carriage return, which a universal-newline read would turn
into a line break).  Rows within a section are sorted, so serialization
is deterministic and write→read→write is byte-identical.

The reader refuses what the estimator cannot use: a class name outside
the inventory, in an event or a context; a context of the wrong shape;
a word feature outside ``WORD_FEATURES``; and a table set with a
context, counted or pooled, of ``SAMPLE_SIZE_LIMIT`` samples or more.
It also refuses what no writer produces, so a file loads only as the
writer's text of its model: an empty vocabulary word; a word outside
the [vocabulary] section other than ``UNKNOWN_WORD``, and ``END_WORD``
where ``_SHAPES`` allows it; a row not strictly greater than the one
before it in its section; an event that a section already holds under
the same context; a last line that does not end at ``\n``; and a
literal carriage return, which the writer always escapes.
``read_model`` reads with universal newlines, so a file whose lines end
in CRLF still loads from disk.

Far fewer components are distinct than are written, so the writer
encodes each distinct event or context once per call, and the reader
decodes each context text and each event text once per table name,
for its main and its unknown section alike.  A text is checked when it
is first decoded, so a refusal names the line of the first row that
holds it, and equal events of a table share one object.  Each row then
costs one split and a few dict operations, and puts its count straight
into its context's events.  Each distinct count text is decoded once
per file, and checked before the row's event.  A count is read only
in the form the writer gives it (ASCII digits, no sign, no leading
zero), so each number has one text.
``write_model`` replaces a file only with a complete one.
"""

import contextlib
import itertools
import os
import secrets
from operator import contains

from .counts import CondTable, CountTables, TrainedModel, Vocabulary
from .corpus import INTERNAL_CLASSES
from .estimator import PREVIOUS_CLASSES, SUCCESSOR_CLASSES
from .features import END_WORD, FeatureConfig, Token, UNKNOWN_WORD, WORD_FEATURES

MAGIC = "namefinder-model"
VERSION = 4

# Below 2**53, unique / c > 2**-53 for every context (unique >= 1), so
# 1 + unique / c rounds above 1, every back-off weight stays below 1 and
# the floor keeps every probability above 0.  At 2**53 a context with
# one distinct event gets a weight of exactly 1, and every event it did
# not see a probability of 0.
SAMPLE_SIZE_LIMIT = 2 ** 53

# Per table: the allowed values of each context component and of the
# event, a set of names or a word: a vocabulary word or UNKNOWN_WORD, or
# with _WORD_OR_END also END_WORD, beside any class or feature.  A
# first_words event never holds END_WORD: no region opens with
# END_TOKEN.  A word event is a <word feature> token.
_PREVIOUS, _SUCCESSORS = frozenset(PREVIOUS_CLASSES), frozenset(SUCCESSOR_CLASSES)
_CLASSES, _FEATURES = frozenset(INTERNAL_CLASSES), frozenset(WORD_FEATURES)
_WORD, _WORD_OR_END = "word", "word or END_WORD"
_SHAPES = {
    "class_transitions": ((_PREVIOUS, _WORD_OR_END), _SUCCESSORS),
    "first_words": ((_CLASSES, _PREVIOUS), _WORD),
    "word_bigrams": ((_WORD, _FEATURES, _CLASSES), _WORD_OR_END),
}


class ModelFormatError(ValueError):
    """Raised for syntactically or semantically invalid model files."""


_ESCAPES = (("\\", "\\\\"), (" ", "\\s"), ("\t", "\\t"), ("\n", "\\n"),
            ("\r", "\\r"))
_UNESCAPES = {"\\": "\\", "s": " ", "t": "\t", "n": "\n", "r": "\r"}


def _escape(component: str) -> str:
    for char, replacement in _ESCAPES:
        component = component.replace(char, replacement)
    return component


def _unescape(text: str) -> str:
    if "\\" not in text:  # most components: nothing to undo
        return text
    out = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\\":
            if i + 1 >= len(text) or text[i + 1] not in _UNESCAPES:
                raise ModelFormatError("bad escape in %r" % (text,))
            out.append(_UNESCAPES[text[i + 1]])
            i += 2
        else:
            out.append(ch)
            i += 1
    return "".join(out)


def _encode(value) -> str:
    components = value if isinstance(value, tuple) else (value,)
    return " ".join(_escape(c) for c in components)


def _decode(text: str) -> tuple:
    if "\\" not in text:  # most texts: nothing to undo
        return tuple(text.split(" "))
    return tuple([_unescape(c) for c in text.split(" ")])


def _table_lines(table: CondTable, encoded: dict) -> list:
    """The table's sorted rows; ``encoded`` memoizes each event's and
    context's text (equal values encode alike, so one memo serves both)."""
    lines = []
    for context in table.contexts():
        text = encoded.get(context)
        if text is None:
            text = encoded[context] = _encode(context)
        context_field = "\t%s\t" % text
        for event, count in table.events(context).items():
            text = encoded.get(event)
            if text is None:
                text = encoded[event] = _encode(event)
            lines.append("%s%s%d" % (text, context_field, count))
    lines.sort()
    return lines


def serialize_model(model: TrainedModel) -> str:
    lines = [
        "%s %d" % (MAGIC, VERSION),
        "swap_comma_period %d" % int(model.feature_config.swap_comma_period),
        "classes %s" % " ".join(INTERNAL_CLASSES),
        "[vocabulary]",
    ]
    for position, word in enumerate(model.vocabulary.words(), 1):
        lines.append("%s\t%d" % (_escape(word), position))
    encoded = {}
    for prefix, tables in (("main", model.main), ("unknown", model.unknown)):
        for name, table in tables.tables().items():
            lines.append("[%s.%s]" % (prefix, name))
            lines.extend(_table_lines(table, encoded))
    return "\n".join(lines) + "\n"


def _expect(lines, index, prefix):
    if index >= len(lines) or not lines[index].startswith(prefix + " "):
        found = lines[index] if index < len(lines) else "<end of file>"
        raise ModelFormatError("expected '%s ...' at line %d, found %r"
                               % (prefix, index + 1, found))
    return lines[index][len(prefix) + 1:]


def _check_sample_sizes(tables: CountTables, prefix):
    """Refuse a class marginal or word unigrams (no context above holds
    more samples) at SAMPLE_SIZE_LIMIT."""
    for name in ("class_marginal", "word_unigrams"):
        table = getattr(tables, name)
        for context in table.contexts():
            if table.total(context) >= SAMPLE_SIZE_LIMIT:
                raise ModelFormatError("sample size of %s.%s context %r reaches 2**53"
                                       % (prefix, name, context))


def _checked_context(text, allowed, section, line):
    """The context of a row at ``line``: each component in its set of
    ``allowed``, which for a word is a dict of words."""
    context = _decode(text)
    if len(context) == len(allowed) and all(map(contains, allowed, context)):
        return context
    if len(context) != len(allowed) or any(
            not isinstance(choices, dict) and component not in choices
            for component, choices in zip(context, allowed)):
        raise ModelFormatError("context %r does not fit section [%s] at line %d"
                               % (context, section, line))
    word = next(component for component, choices in zip(context, allowed)
                if component not in choices)
    raise ModelFormatError("word %r outside the vocabulary at line %d" % (word, line))


def _checked_event(text, allowed, line):
    """The event of a row at ``line``: a class name in ``allowed``, or,
    when ``allowed`` is a dict of words, a <word feature> token of one."""
    components = _decode(text)
    if isinstance(allowed, dict):
        if len(components) != 2:
            raise ModelFormatError("expected <word feature> event at line %d" % (line,))
        if components[1] not in _FEATURES:
            raise ModelFormatError("unknown word feature %r at line %d"
                                   % (components[1], line))
        if components[0] not in allowed:
            raise ModelFormatError("word %r outside the vocabulary at line %d"
                                   % (components[0], line))
        return Token(*components)
    if len(components) != 1:
        raise ModelFormatError("expected single-component event at line %d" % (line,))
    if components[0] not in allowed:
        raise ModelFormatError("class %r outside the inventory at line %d"
                               % (components[0], line))
    return components[0]


def _count(text, line):
    """The count of a row at ``line``: a positive integer as
    ``serialize_model`` writes it (ASCII digits, no sign, no leading
    zero)."""
    if text.isascii() and text.isdigit() and text[0] != "0":
        try:
            return int(text)
        except ValueError:  # more digits than int() converts
            pass
    try:
        value = int(text)
    except ValueError:
        value = 1
    if value <= 0:
        raise ModelFormatError("non-positive count at line %d" % (line,))
    raise ModelFormatError("bad count at line %d" % (line,))


def deserialize_model(text: str) -> TrainedModel:
    if "\r" in text:
        raise ModelFormatError("carriage return at line %d"
                               % (text.count("\n", 0, text.index("\r")) + 1,))
    lines = text.split("\n")
    if lines.pop():
        raise ModelFormatError("no newline at the end of line %d" % (len(lines) + 1,))
    if not lines:
        raise ModelFormatError("empty model file")
    magic = lines[0].split(" ")
    if len(magic) != 2 or magic[0] != MAGIC:
        raise ModelFormatError("not a model file (bad magic line %r)" % (lines[0],))
    if magic[1] != str(VERSION):
        raise ModelFormatError("unsupported model version: expected %d, found %s"
                               % (VERSION, magic[1]))
    swap = _expect(lines, 1, "swap_comma_period")
    if swap not in ("0", "1"):
        raise ModelFormatError("swap_comma_period must be 0 or 1, found %r" % (swap,))
    config = FeatureConfig(swap_comma_period=(swap == "1"))
    classes = tuple(_expect(lines, 2, "classes").split(" "))
    if classes != INTERNAL_CLASSES:
        raise ModelFormatError("unexpected class inventory %r" % (classes,))

    if len(lines) < 4 or lines[3] != "[vocabulary]":
        raise ModelFormatError("expected [vocabulary] at line 4")
    numbered = enumerate(itertools.islice(lines, 4, None), 5)
    words = {}
    header = None  # (line, text) of the line that ends a section
    # Rows hold a tab and section headers never do, so a word or event
    # that starts with "[" stays a row.
    for line, row in numbered:
        try:
            word, position = row.split("\t")
        except ValueError:
            if "\t" not in row:
                header = line, row
                break
            raise ModelFormatError("bad vocabulary row at line %d" % (line,)) from None
        if position != str(len(words) + 1):
            raise ModelFormatError("vocabulary id %r at line %d is not its position %d"
                                   % (position, line, len(words) + 1))
        word = _unescape(word)
        if word in words:
            raise ModelFormatError("repeated vocabulary word at line %d" % (line,))
        if not word:
            raise ModelFormatError("empty vocabulary word at line %d" % (line,))
        words[word] = None
    vocabulary = Vocabulary(words)
    words[UNKNOWN_WORD] = None
    kinds = {_WORD: words, _WORD_OR_END: {**words, END_WORD: None}}
    shapes = {name: (tuple(kinds.get(allowed, allowed) for allowed in context),
                     kinds.get(event, event))
              for name, (context, event) in _SHAPES.items()}

    # Per table name, shared by its main and unknown sections: context
    # text -> its context, and event text -> its event, each checked when
    # first seen, so equal events share one object and a refusal names
    # the first row that holds the text.
    memos = {name: ({}, {}) for name in CountTables.NAMES}
    counts = {}  # count text -> its value, for the whole file
    tables = []
    for prefix in ("main", "unknown"):
        for name in CountTables.NAMES:
            section = "%s.%s" % (prefix, name)
            if header is None or header[1] != "[%s]" % section:
                line, found = header or (len(lines) + 1, "<end of file>")
                raise ModelFormatError("expected section [%s] at line %d, found %r"
                                       % (section, line, found))
            table, header = _read_rows(numbered, section, shapes[name], *memos[name],
                                       counts)
            tables.append(CondTable(table))
    if header is not None:
        raise ModelFormatError("trailing content at line %d" % (header[0],))
    main, unknown = CountTables(*tables[:3]), CountTables(*tables[3:])
    _check_sample_sizes(main, "main")
    _check_sample_sizes(unknown, "unknown")
    return TrainedModel(vocabulary, main, unknown, config)


def _read_rows(numbered, section, shape, contexts, events, counts):
    """({context: {event: count}} of one section's rows, (line, text) of
    the line that ends it or None at the end of the file).

    ``contexts``, ``events`` and ``counts`` are the memos of the row
    texts; each row puts its count straight into its context's events.
    """
    context_shape, event_shape = shape
    table = {}
    buckets = {}  # context text -> its events, for this section
    buckets_get, contexts_get, events_get, counts_get = (
        buckets.get, contexts.get, events.get, counts.get)
    previous = ""
    for line, row in numbered:
        try:
            event_text, context_text, count_text = row.split("\t")
        except ValueError:
            if "\t" not in row:
                return table, (line, row)
            raise ModelFormatError("bad count row at line %d" % (line,)) from None
        if row <= previous:
            raise ModelFormatError("row out of order at line %d" % (line,))
        previous = row
        count = counts_get(count_text)
        if count is None:
            count = counts[count_text] = _count(count_text, line)
        bucket = buckets_get(context_text)
        if bucket is None:
            context = contexts_get(context_text)
            if context is None:
                context = contexts[context_text] = _checked_context(
                    context_text, context_shape, section, line)
            bucket = buckets[context_text] = table[context] = {}
        event = events_get(event_text)
        if event is None:
            event = events[event_text] = _checked_event(event_text, event_shape, line)
        if event in bucket:
            raise ModelFormatError("repeated row at line %d" % (line,))
        bucket[event] = count
    return table, None


def write_model(model: TrainedModel, path):
    """Write the model file whole or not at all.

    The text is serialized first and written to a new file beside
    ``path``, which then replaces ``path`` in one rename.  A failure, or
    a kill, before the rename leaves any earlier file at ``path`` as it
    was; on a failure the new file is removed.  The file gets the mode
    that a plain ``open`` would give it (0666 less the umask).  A
    symbolic link at ``path`` stays a link: the file it names is the
    one replaced.
    """
    text = serialize_model(model)
    target = os.path.realpath(path)
    temporary = "%s.%s.tmp" % (target, secrets.token_hex(8))
    try:
        fd = os.open(temporary, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    except OSError as exc:  # name the file asked for, not the new one
        raise OSError(exc.errno, exc.strerror, os.fspath(path)) from None
    try:
        with open(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(temporary, target)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(temporary)
        raise


def read_model(path) -> TrainedModel:
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except UnicodeDecodeError as exc:
        raise ModelFormatError("not UTF-8: %s" % exc) from None
    return deserialize_model(text)
