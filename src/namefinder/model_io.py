"""Line-oriented model file format, version 6.

Layout: a fixed header (magic+version, feature config, class
inventory), a ``words`` line, then one section per counted table
(``CountTables.NAMES``; the pooled levels are derived on load), main
tables before unknown tables.

The ``words`` line lists the vocabulary in first-seen order, joined by
single spaces, and a word's id is its position (1, 2, ...).  It is read
as the header lines above it are (``_expect``), so it lists at least one
word, and ``serialize_model`` refuses an empty vocabulary.  A word is
what the tokenizer makes: non-empty, with no whitespace
(``word.split() == [word]``); training refuses any other token, so the
words are written as they are, with nothing escaped, and
``serialize_model`` refuses a hand-built vocabulary that breaks the
rule.  No word can then be ``UNKNOWN_WORD``, which holds a space.

Every table field is an id: a word's, ``0`` for ``UNKNOWN_WORD`` and
``-`` for ``END_WORD``; a class's index in ``_CLASS_IDS``; a feature's
index in ``WORD_FEATURES``.  A section holds one line per context: its
ids, then one tab-separated ``event count`` per event, where a word
event is ``word-id feature-id`` and ``END_TOKEN`` is a bare ``-``.
Lines are sorted by context text and each line's events by event text,
so serialization is deterministic and write→read→write is
byte-identical.  The writer gets that order by sorting whole lines, and
each line's ``\\tevent count`` entries, as plain strings: the tab and
the space that end a text sort below every id character (digits and
``-``), and two texts of one section with the same number of fields
are prefixes of each other only where a digit follows, so two lines or
entries sort as their texts do.

The reader looks each field up among the ids its slot may hold
(``_layouts``), so a missed lookup is the refusal of a value the
estimator cannot use or no writer produces: a class outside the
inventory or its slot; a feature outside ``WORD_FEATURES``; a word
outside the vocabulary; ``UNKNOWN_WORD`` in a main table; ``END_WORD``
anywhere but the sentence-start context ``START-OF-SENTENCE -`` of a
class transition, and the end token, which closes a region and never
opens one; and a context or event of the wrong length.  It also refuses
what no writer produces, so a file loads only as the writer's text of
its model: a ``words`` line that is not its words joined by single
spaces (an empty word, or whitespace in a word), or that repeats a
word; a context or event not strictly greater than the one before it
(which covers a repeated one); a count not in the written form (ASCII
digits, no sign, no leading zero); a last line that does not end at
``\\n``; and a literal carriage return.  And it refuses a table set with
a context, counted or pooled, of ``SAMPLE_SIZE_LIMIT`` samples or more.
Each refusal in the tables names its line.  ``read_model`` reads with
universal newlines, so a file whose lines end in CRLF still loads from
disk.

The reader decodes each event text once per section, so equal events of
a table share one object, and each count text once per file.
``write_model`` replaces a file only with a complete one (``write_whole``).
"""

import contextlib
import itertools
import os

from .corpus import END_OF_SENTENCE, INTERNAL_CLASSES, START_OF_SENTENCE
from .counts import CondTable, CountTables, TrainedModel, Vocabulary
from .estimator import PREVIOUS_CLASSES, SUCCESSOR_CLASSES
from .features import END_TOKEN, END_WORD, FeatureConfig, Token, UNKNOWN_WORD, WORD_FEATURES

MAGIC = "namefinder-model"
VERSION = 6

# Below 2**53, unique / c > 2**-53 for every context (unique >= 1), so
# 1 + unique / c rounds above 1, every back-off weight stays below 1 and
# the floor keeps every probability above 0.  At 2**53 a context with
# one distinct event gets a weight of exactly 1, and every event it did
# not see a probability of 0.
SAMPLE_SIZE_LIMIT = 2 ** 53

# A class's id is its index here.
_CLASS_IDS = INTERNAL_CLASSES + (START_OF_SENTENCE, END_OF_SENTENCE)


class ModelFormatError(ValueError):
    """Raised for invalid model files, and for a model that holds a value
    no file can name."""


def _layouts(words):
    """Per table set, main then unknown, and per table name, the layout
    of its lines: for the context, then for the event, a dict of whole
    texts and one lookup per field, each text -> the value it stands for.

    A whole text stands for what no field lookup gives: the
    sentence-start context and the end token.  Ids are written only
    where training counts them, and ``UNKNOWN_WORD`` as 0 in the
    unknown-word tables only.
    """
    internal, previous, successors = (
        {str(_CLASS_IDS.index(nc)): nc for nc in names}
        for names in (INTERNAL_CLASSES, PREVIOUS_CLASSES, SUCCESSOR_CLASSES))
    features = {str(i): feature for i, feature in enumerate(WORD_FEATURES)}
    start = {"%d -" % _CLASS_IDS.index(START_OF_SENTENCE): (START_OF_SENTENCE, END_WORD)}
    known = {str(i): word for i, word in enumerate(words, 1)}
    return [{
        "class_transitions": ((start, internal, table_words), ({}, successors)),
        "first_words": (({}, internal, previous), ({}, table_words, features)),
        "word_bigrams": (({}, table_words, features, internal),
                         ({"-": END_TOKEN}, table_words, features)),
    } for table_words in (known, {"0": UNKNOWN_WORD, **known})]


def _ids(values, lookups) -> str:
    """The ids of ``values`` in their fields' inverted lookups; ValueError
    for a wrong number of values, KeyError for a value that has no id."""
    if len(values) != len(lookups):
        raise ValueError("%d values for %d fields" % (len(values), len(lookups)))
    return " ".join(map(dict.__getitem__, lookups, values))


def _table_lines(table: CondTable, layout) -> list:
    """The table's lines as ``_read_section`` reads them with ``layout``:
    sorted by context text, each with its events sorted by event text.

    An entry is its event's ``"\\t<ids> "`` prefix, made once per event,
    and its count; entries and lines are sorted as plain strings, which
    is that order (see the module docstring).
    """
    (contexts, *context_ids), (events, *event_ids) = (
        [{value: text for text, value in lookup.items()} for lookup in part]
        for part in layout)
    prefixes = {event: "\t%s " % text for event, text in events.items()}  # a memo from here on
    lines = []
    for context in table.contexts():
        entries = []
        for event, count in table.events(context).items():
            prefix = prefixes.get(event)
            if prefix is None:
                prefix = prefixes[event] = "\t%s " % _ids(
                    event if len(event_ids) > 1 else (event,), event_ids)
            entries.append(prefix + str(count))
        entries.sort()
        lines.append((contexts.get(context) or _ids(context, context_ids)) + "".join(entries))
    lines.sort()
    return lines


def serialize_model(model: TrainedModel) -> str:
    words = model.vocabulary.words()
    if not words:
        # Its words line would be a bare ``words``, which no loader reads.
        raise ModelFormatError("the vocabulary is empty")
    listed = " ".join(["words"] + words)
    if listed.split()[1:] != words:
        word = next(word for word in words if word.split() != [word])
        raise ModelFormatError("vocabulary word %r is empty or holds whitespace" % (word,))
    lines = [
        "%s %d" % (MAGIC, VERSION),
        "swap_comma_period %d" % int(model.feature_config.swap_comma_period),
        "classes %s" % " ".join(INTERNAL_CLASSES),
        listed,
    ]
    for prefix, tables, layouts in zip(("main", "unknown"), (model.main, model.unknown),
                                       _layouts(words)):
        for name, table in tables.tables().items():
            lines.append("[%s.%s]" % (prefix, name))
            try:
                lines.extend(_table_lines(table, layouts[name]))
            except (KeyError, ValueError):
                raise ModelFormatError("[%s.%s] holds a value that has no id"
                                       % (prefix, name)) from None
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


def _count(text, line):
    """The count of an event at ``line``: a positive integer as
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


def _looked_up(text, lookups):
    """The value of each space-separated id of ``text`` in its field's
    lookup, or None for an id a lookup misses or a wrong number of ids."""
    ids = text.split(" ")
    if len(ids) == len(lookups):
        try:
            return tuple(map(dict.__getitem__, lookups, ids))
        except KeyError:
            pass
    return None


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

    listed = _expect(lines, 3, "words")
    if listed.split(" ") != listed.split():
        raise ModelFormatError("empty vocabulary word or whitespace in a word at line 4")
    words = {}
    for word in listed.split(" "):
        if word in words:
            raise ModelFormatError("repeated vocabulary word %r at line 4" % (word,))
        words[word] = None

    numbered = enumerate(itertools.islice(lines, 4, None), 5)
    header = next(numbered, None)  # (line, text) of the line that starts a section
    counts = {}  # count text -> its value, for the whole file
    tables = []
    for prefix, layouts in zip(("main", "unknown"), _layouts(words)):
        for name in CountTables.NAMES:
            section = "%s.%s" % (prefix, name)
            if header is None or header[1] != "[%s]" % section:
                line, found = header or (len(lines) + 1, "<end of file>")
                raise ModelFormatError("expected section [%s] at line %d, found %r"
                                       % (section, line, found))
            table, header = _read_section(numbered, section, layouts[name], counts)
            tables.append(CondTable(table))
    if header is not None:
        raise ModelFormatError("trailing content at line %d" % (header[0],))
    main, unknown = CountTables(*tables[:3]), CountTables(*tables[3:])
    _check_sample_sizes(main, "main")
    _check_sample_sizes(unknown, "unknown")
    return TrainedModel(Vocabulary(words), main, unknown, config)


def _read_section(numbered, section, layout, counts):
    """({context: {event: count}} of one section's lines, (line, text) of
    the line that ends it or None at the end of the file).

    A line without a tab ends the section: every context line holds an
    event, and no header holds a tab.  ``counts`` is the file's memo of
    count texts.
    """
    (contexts, *context_lookups), (events, *event_lookups) = layout
    events = dict(events)  # event text -> its event, for this section
    events_get, counts_get = events.get, counts.get
    table = {}
    previous = ""
    for line, text in numbered:
        context_text, *entries = text.split("\t")
        if not entries:
            return table, (line, text)
        context = contexts.get(context_text) or _looked_up(context_text, context_lookups)
        if context is None:
            raise ModelFormatError("bad context %r in [%s] at line %d"
                                   % (context_text, section, line))
        if context_text <= previous:
            raise ModelFormatError("context out of order at line %d" % (line,))
        previous = context_text
        bucket = table[context] = {}
        last = ""
        for entry in entries:
            event_text, _, count_text = entry.rpartition(" ")
            event = events_get(event_text)
            if event is None:
                values = _looked_up(event_text, event_lookups)
                if values is None:
                    raise ModelFormatError("bad event %r in [%s] at line %d"
                                           % (event_text, section, line))
                event = events[event_text] = Token(*values) if len(values) > 1 else values[0]
            if event_text <= last:
                raise ModelFormatError("event out of order at line %d" % (line,))
            last = event_text
            count = counts_get(count_text)
            if count is None:
                count = counts[count_text] = _count(count_text, line)
            bucket[event] = count
    return table, None


def write_whole(path, text: str):
    """Write ``text`` to the file at ``path`` whole or not at all.

    The text goes to a new file beside ``path`` (mode 0666 less the
    umask; removed on a failure), which replaces ``path`` in one rename:
    a failure or a kill leaves an earlier file as it was, and a hard
    link to it keeps the earlier text.  A symbolic link stays a link to
    the replaced file; a device or a pipe is written in place.
    """
    if os.path.exists(path) and not os.path.isfile(path):
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        return
    target = os.path.realpath(path)
    temporary = "%s.%s.tmp" % (target, os.urandom(8).hex())
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


def write_model(model: TrainedModel, path):
    """Serialize the model, then write its file with ``write_whole``."""
    write_whole(path, serialize_model(model))


def read_model(path) -> TrainedModel:
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except UnicodeDecodeError as exc:
        raise ModelFormatError("not UTF-8: %s" % exc) from None
    return deserialize_model(text)
