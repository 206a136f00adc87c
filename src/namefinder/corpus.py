"""Annotated-corpus parsing, tokenization and emission.

The corpus format is plain UTF-8 text with inline tags marking name
regions:

    <ENAMEX TYPE="PERSON">Bill Gates</ENAMEX> was born .

Tag elements are ENAMEX (PERSON, ORGANIZATION, LOCATION), TIMEX (DATE,
TIME) and NUMEX (MONEY, PERCENT).  Tags never nest and never span a
sentence boundary.  Literal ``&``, ``<`` and ``>`` in text must be
written ``&amp;``, ``&lt;`` and ``&gt;``.

A tag's text runs from a ``<`` to the next ``>``, since no tag of the
grammar holds a ``>`` before its last character.  The parser looks each
tag text up in a memo, filled from the grammar's regular expression the
first time the text is seen, so a corpus's few distinct tags are
matched once each.  Then the tag is checked against the open region,
as every tag is, so a malformed or misplaced tag gets the same message
and position whether or not its text was seen before.  Text between
tags with no ``&`` or ``>`` needs no unescaping and is taken as it is.

The tokenizer is rule-based: it splits on whitespace, detaches clause
and sentence punctuation, and keeps digits, commas, periods, slashes
and dashes inside tokens so that numeric strings like ``23,000.00`` or
``11/9/89`` survive whole.  A small closed abbreviation list blocks
both the punctuation split and the sentence break.  Sentences end
after a bare ``.``, ``!`` or ``?`` token that was followed by
whitespace in the input.  In annotated text a region's last token ends
its sentence at the closing tag when it is such a terminal; a terminal
inside a region does not break.  One builder cuts sentences for both
entry points: ``tokenize`` feeds it plain text and gets token lists,
and ``parse_annotated`` feeds it the text between tags and gets
``AnnotatedSentence``s.  Only the annotated path keeps its words
through a per-call memo, so a parsed corpus, which training keeps
whole while it counts, holds one ``str`` per distinct word; the plain
path, which the decoder runs on every document, skips the memo's cost.
``Region``, ``AnnotatedSentence`` and the decoder's ``DecodeResult``
are slotted dataclasses, with no per-instance ``__dict__``.
"""

import re
from dataclasses import dataclass, field

# Name classes, in fixed inventory order.  The order matters: the decoder
# breaks ties by it and the scorer reports in it.
PERSON = "PERSON"
ORGANIZATION = "ORGANIZATION"
LOCATION = "LOCATION"
TIME = "TIME"
DATE = "DATE"
PERCENT = "PERCENT"
MONEY = "MONEY"
NOT_A_NAME = "NOT-A-NAME"

INTERNAL_CLASSES = (PERSON, ORGANIZATION, LOCATION, TIME, DATE, PERCENT, MONEY, NOT_A_NAME)
NAME_CLASSES = INTERNAL_CLASSES[:-1]  # the seven classes that mark regions

# Pseudo-classes used only as transition contexts; they never emit tokens.
START_OF_SENTENCE = "START-OF-SENTENCE"
END_OF_SENTENCE = "END-OF-SENTENCE"

# Tag element for each region class.
_ELEMENT_OF_CLASS = {
    PERSON: "ENAMEX",
    ORGANIZATION: "ENAMEX",
    LOCATION: "ENAMEX",
    DATE: "TIMEX",
    TIME: "TIMEX",
    MONEY: "NUMEX",
    PERCENT: "NUMEX",
}
_CLASSES_OF_ELEMENT = {
    "ENAMEX": {PERSON, ORGANIZATION, LOCATION},
    "TIMEX": {DATE, TIME},
    "NUMEX": {MONEY, PERCENT},
}


class ParseError(ValueError):
    """Raised for malformed annotated input, with line/column position."""

    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        if line is not None:
            message = "line %d, column %d: %s" % (line, column, message)
        super().__init__(message)


@dataclass(frozen=True, slots=True)
class Region:
    """A typed name span over token indices [start, end)."""

    start: int
    end: int
    name_class: str

    def __post_init__(self):
        if not 0 <= self.start < self.end:
            raise ValueError("region must satisfy 0 <= start < end, got (%d, %d)"
                             % (self.start, self.end))
        if self.name_class not in NAME_CLASSES:
            raise ValueError("not a name class: %r" % (self.name_class,))


@dataclass(slots=True)
class AnnotatedSentence:
    """A token sequence plus disjoint, sorted name regions."""

    tokens: list = field(default_factory=list)
    regions: list = field(default_factory=list)

    def validate(self):
        prev_end = 0
        for region in self.regions:
            if region.start < prev_end:
                raise ValueError("regions overlap or are unsorted: %r" % (self.regions,))
            if region.end > len(self.tokens):
                raise ValueError("region %r exceeds sentence length %d"
                                 % (region, len(self.tokens)))
            prev_end = region.end
        return self


# --- Tokenizer -------------------------------------------------------------

TERMINALS = {".", "!", "?"}
_OPENERS = set("([{\"'")
_TRAILERS = set(")]}\"',;:.!?")

# Closed list; these keep their trailing period and never end a sentence.
ABBREVIATIONS = {"Mr.", "Mrs.", "Dr.", "M.", "St.", "Co.", "Inc.", "Corp."}


_LONGEST_ABBREVIATION = max(map(len, ABBREVIATIONS))


def _split_chunk(chunk):
    """Split one whitespace-delimited chunk into tokens.

    Openers detach from the front while more than one character is left,
    then trailers from the back until an abbreviation is left.  Both
    ends are found by index and the chunk is sliced once, so a long run
    of punctuation costs linear time.
    """
    start = 0
    while start < len(chunk) - 1 and chunk[start] in _OPENERS:
        start += 1
    end = len(chunk)
    while end > start and chunk[end - 1] in _TRAILERS:
        if end - start <= _LONGEST_ABBREVIATION and chunk[start:end] in ABBREVIATIONS:
            break
        end -= 1
    tokens = list(chunk[:start])
    if end > start:
        tokens.append(chunk[start:end])
    tokens.extend(chunk[end:])
    return tokens


def _split_text(text, words=None):
    """(tokens, breaks): the tokens of text's whitespace-delimited chunks,
    and after each chunk that ends in a terminal the count of tokens up
    to it.

    A chunk that neither starts with an opener nor ends with a trailer
    is one token, and never a terminal, since every terminal is a
    trailer; only the other chunks are split.  With ``words``, a dict,
    each token is kept through ``words.setdefault(token, token)``, so
    equal words are one ``str``.
    """
    tokens = []
    breaks = []
    for chunk in text.split():
        if chunk[0] in _OPENERS or chunk[-1] in _TRAILERS:
            split = _split_chunk(chunk)
            if words is not None:
                split = list(map(words.setdefault, split, split))
            tokens += split
            if split[-1] in TERMINALS:
                breaks.append(len(tokens))
        else:
            tokens.append(chunk if words is None else words.setdefault(chunk, chunk))
    return tokens, breaks


def tokenize(text: str) -> list:
    """Split raw text into sentences of word tokens.

    Total function: any input yields a (possibly empty) list of non-empty
    sentences.  The sentences are cut by ``_SentenceBuilder``, as
    annotated text's are, so plain text tokenizes as it parses.
    """
    builder = _SentenceBuilder()
    builder.add_text(text)
    builder.flush()
    return builder.sentences


# --- Annotated-markup parsing ----------------------------------------------

_TAG_RE = re.compile(
    r"<(?P<element>ENAMEX|TIMEX|NUMEX)\s+TYPE=\"(?P<type>[A-Z-]+)\"\s*>"
    r"|</(?P<close>ENAMEX|TIMEX|NUMEX)\s*>"
)
_ENTITY_RE = re.compile(r"&(amp|lt|gt);")
_ENTITY_MAP = {"&amp;": "&", "&lt;": "<", "&gt;": ">"}
# An '&' that starts no entity, or any '>'.
_BARE_RE = re.compile(r"&(?!(?:amp|lt|gt);)|>")


def _position(text, offset):
    line = text.count("\n", 0, offset) + 1
    column = offset - (text.rfind("\n", 0, offset) + 1) + 1
    return line, column


def _unescape(text, raw, raw_offset):
    """Replace entities; reject bare markup characters."""
    if "&" not in text and ">" not in text:
        return text
    bare = _BARE_RE.search(text)
    if bare:
        line, col = _position(raw, raw_offset + bare.start())
        if bare.group() == "&":
            raise ParseError("bare '&' (use &amp;)", line, col)
        raise ParseError("bare '>' (use &gt;)", line, col)
    return _ENTITY_RE.sub(lambda m: _ENTITY_MAP[m.group()], text)


class _SentenceBuilder:
    """The one sentence cutter, fed text through ``add_text`` and region
    tags through ``open_region`` and ``close_region``.

    Without ``words`` it makes each sentence a token list, as
    ``tokenize`` returns them.  With ``words``, a dict, it makes each an
    ``AnnotatedSentence`` and keeps every token through the dict, so
    equal words are one ``str``: a parsed corpus holds one string per
    distinct word, not one per occurrence.
    """

    def __init__(self, words=None):
        self.words = words
        self.sentences = []
        self.tokens = []
        self.regions = []
        self.open_class = None
        self.open_start = None

    def add_text(self, text):
        tokens, breaks = _split_text(text, self.words)
        # A break inside an open region would split it across sentences.
        if self.open_class is not None:
            breaks = ()
        start = 0
        for end in breaks:
            self.tokens += tokens[start:end]
            self.flush()
            start = end
        self.tokens += tokens[start:]

    def open_region(self, name_class):
        self.open_class = name_class
        self.open_start = len(self.tokens)

    def close_region(self):
        region = Region(self.open_start, len(self.tokens), self.open_class)
        self.regions.append(region)
        self.open_class = None
        self.open_start = None
        # The break add_text held back while the region was open.
        if self.tokens[-1] in TERMINALS:
            self.flush()

    def flush(self):
        if self.tokens:
            self.sentences.append(self.tokens if self.words is None else
                                  AnnotatedSentence(self.tokens, self.regions).validate())
        self.tokens = []
        self.regions = []


def _read_tag(tag):
    """(element, TYPE) of an opening tag's text, (element, None) of a
    closing one's, or None if the text is no tag of the grammar."""
    m = _TAG_RE.fullmatch(tag)
    if not m:
        return None
    if m.group("close"):
        return m.group("close"), None
    return m.group("element"), m.group("type")


def _tag_problem(tag, builder):
    """Why the tag (as ``_read_tag`` gives it) is malformed or out of
    place at this point, or None."""
    if tag is None:
        return "malformed tag"
    element, name_class = tag
    if name_class is None:
        if builder.open_class is None:
            return "closing tag without an open region"
        open_element = _ELEMENT_OF_CLASS[builder.open_class]
        if element != open_element:
            return "closing tag %s does not match open %s" % (element, open_element)
        if builder.open_start == len(builder.tokens):
            return "empty region"
        return None
    if builder.open_class is not None:
        return "nested tags are not allowed"
    if name_class not in _CLASSES_OF_ELEMENT[element]:
        return "unknown TYPE %r for %s" % (name_class, element)
    return None


def parse_annotated(text: str) -> list:
    """Parse inline-markup annotated text into AnnotatedSentences whose
    equal words are one ``str`` object."""
    builder = _SentenceBuilder(words={})
    tags = {}  # tag text -> _read_tag of it
    pos = 0
    while pos < len(text):
        lt = text.find("<", pos)
        if lt == -1:
            builder.add_text(_unescape(text[pos:], text, pos))
            break
        if lt > pos:
            builder.add_text(_unescape(text[pos:lt], text, pos))
        pos = text.find(">", lt) + 1  # past the tag; 0 if no '>' ends it
        tag = None
        if pos:
            raw = text[lt:pos]
            tag = tags.get(raw)
            if tag is None:
                tag = tags[raw] = _read_tag(raw)
        problem = _tag_problem(tag, builder)
        if problem:
            # The position lookup scans from the start of the text, so
            # only an error pays for it and parsing stays linear.
            raise ParseError(problem, *_position(text, lt))
        if tag[1] is None:
            builder.close_region()
        else:
            builder.open_region(tag[1])
    if builder.open_class is not None:
        raise ParseError("unclosed tag at end of document", *_position(text, len(text)))
    builder.flush()
    return builder.sentences


def _escape(token):
    return token.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def emit_annotated(sentences) -> str:
    """Render AnnotatedSentences back to inline-markup text, one per line.

    Escaping never touches a space, so each region, and each run of
    tokens between regions, is joined and then escaped in one piece.
    Regions that overlap, are unsorted or run past the tokens raise
    ValueError, as ``AnnotatedSentence.validate`` does.
    """
    lines = []
    for sentence in sentences:
        tokens = sentence.validate().tokens
        if not tokens:
            continue
        parts = []
        pos = 0
        for region in sentence.regions:
            if region.start > pos:
                parts.append(_escape(" ".join(tokens[pos:region.start])))
            element = _ELEMENT_OF_CLASS[region.name_class]
            parts.append('<%s TYPE="%s">%s</%s>'
                         % (element, region.name_class,
                            _escape(" ".join(tokens[region.start:region.end])), element))
            pos = region.end
        if pos < len(tokens):
            parts.append(_escape(" ".join(tokens[pos:])))
        lines.append(" ".join(parts))
    return "\n".join(lines) + ("\n" if lines else "")
