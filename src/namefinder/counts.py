"""Count-table construction from annotated sentences.

Training walks each sentence as the generative story tells it: a class
transition at every region boundary (conditioned on the previous class
and the previous real word, ``END_WORD`` at a sentence start), a
first-word event per region, a bigram event per subsequent word, and an
``END_TOKEN`` event closing each region.  Only these three tables are
counted.  The pooled back-off levels below them (class bigrams and
marginals, begin-bigrams and word unigrams) are their sums, which
``CountTables`` derives once per table set.

The unknown-word tables come from a held-out scheme: each half of the
corpus is counted as if the other half were all the training there
was, so its words outside the other half's vocabulary become
``UNKNOWN_WORD``, keeping their real word-feature, and the two halves'
counts are added together.  Renaming a word changes no event but the
word, so ``train`` counts each half once, with its real words, and
derives both sets from those counts: the main tables are the two
halves' sum, and each half's held-out counts are its own tables with
the unseen words renamed, where every event whose renamed key collides
with another adds to it.  A word is what the tokenizer makes, non-empty
and with no whitespace (``features``), and ``collect_counts`` refuses
any other token of a hand-built ``AnnotatedSentence``, so no counted
word spells a sentinel.

``collect_counts`` computes a word's feature once per distinct (word,
first-word flag), the only inputs a feature has besides the config, and
counts straight into the tables' event dicts; ``train`` gives both
halves one memo of those tokens, so it features each pair once.  Every
other sum of one event dict into another (``CondTable.add_events``, the
pooled levels, the held-out class transitions) goes through ``_add``;
only the held-out word renaming, where renamed keys can collide inside
one dict, sums its events itself.
"""

from dataclasses import dataclass, field
from functools import cached_property

from .corpus import (
    AnnotatedSentence,
    END_OF_SENTENCE,
    INTERNAL_CLASSES,
    NOT_A_NAME,
    START_OF_SENTENCE,
)
from .features import (
    END_TOKEN,
    END_WORD,
    FeatureConfig,
    Token,
    UNKNOWN_WORD,
    compute_feature,
)


# Classes a region can follow: every internal class, then the sentence start.
PREVIOUS_CLASSES = INTERNAL_CLASSES + (START_OF_SENTENCE,)


class TrainingError(ValueError):
    """Raised when a corpus cannot be trained on (e.g. too small)."""


class Vocabulary:
    """The training words in first-seen order.

    A word's position in ``words()`` (from 1) is its id in the model
    file.  Size counts distinct observed words.
    """

    def __init__(self, words=()):
        self._words = dict.fromkeys(words)

    def known(self, word: str) -> bool:
        """END_WORD is known: the sentence-start context is the main tables'."""
        return word in self._words or word == END_WORD

    def words(self):
        """Words in first-seen order."""
        return list(self._words)

    def __contains__(self, word):
        return word in self._words

    def __len__(self):
        return len(self._words)

    def __eq__(self, other):
        """Equal when the words and their order (their file ids) agree."""
        return isinstance(other, Vocabulary) and list(self._words) == list(other._words)


def _add(bucket: dict, events: dict):
    """Add every count of an event -> count dict into ``bucket``."""
    for event, count in events.items():
        bucket[event] = bucket.get(event, 0) + count


class CondTable:
    """Integer event counts keyed by conditioning context.

    Contexts and events are strings or flat tuples of strings.  A
    context's total (sample size) and unique-outcome count are read off
    its events when asked; nothing else is stored.  ``events``, when
    given, is a ``{context: {event: count}}`` dict with no empty event
    dict, and the table takes it over without a copy.
    """

    def __init__(self, events=None):
        self._events = {} if events is None else events

    def add(self, context, event, count=1):
        self.add_events(context, {event: count})

    def add_events(self, context, events: dict):
        """Add every count of an event -> count dict to one context."""
        if events:
            _add(self._events.setdefault(context, {}), events)

    def count(self, context, event) -> int:
        return self._events.get(context, {}).get(event, 0)

    def total(self, context) -> int:
        return sum(self._events.get(context, {}).values())

    def unique(self, context) -> int:
        return len(self._events.get(context, ()))

    def events(self, context) -> dict:
        return self._events.get(context, {})

    def contexts(self):
        return self._events.keys()

    def update(self, other: "CondTable"):
        """Add every count from another table into this one."""
        for context, bucket in other._events.items():
            self.add_events(context, bucket)

    def items(self):
        """Yield (context, event, count) triples in storage order."""
        for context, bucket in self._events.items():
            for event, count in bucket.items():
                yield context, event, count

    def __eq__(self, other):
        return isinstance(other, CondTable) and self._events == other._events

    def __len__(self):
        return sum(len(bucket) for bucket in self._events.values())


class _PooledLevel(CondTable):
    """A pooled back-off level: a derived table's events, read-only."""

    def __init__(self, events: dict, counted: str):
        super().__init__(events)
        self._counted = counted

    def add(self, *args, **kwargs):
        raise TypeError("pooled levels are derived; add counts to %s instead"
                        % self._counted)

    add_events = update = add


@dataclass
class CountTables:
    """The three counted tables of one model (main or unknown-word), and
    the four pooled back-off levels derived from them.  Context -> event:
      class_transitions  (nc_prev, w_prev) -> nc
      first_words        (nc, nc_prev)     -> Token
      word_bigrams       (w_prev, f_prev, nc) -> Token (END_TOKEN closes a region)
      class_bigrams   (nc_prev,) -> nc     class_transitions summed over w_prev
      class_marginal  ()         -> nc     class_bigrams summed over nc_prev
      begin_bigrams   (nc,)      -> Token  first_words summed over nc_prev
      word_unigrams   (nc,)      -> Token  first_words and word_bigrams by class,
                                           less the END_TOKEN closing each region
    So no context holds more samples than a level below it.  A context
    whose classes or length no query can ask for adds to no level a
    query reads.  The read-only levels are summed when one is first
    read, so every count must be in by then: a count added to a counted
    table afterwards leaves them stale.  ``_pooled`` sums each counted
    table in one pass, every word-bigram event included, and then keeps
    only a class's closing END_TOKEN beyond its region count, which no
    trained model has: one closes each region.  A model file can hold
    more, and keeping the surplus keeps the unigram level at least as
    large as every word-bigram context above it.
    """

    class_transitions: CondTable = field(default_factory=CondTable)
    first_words: CondTable = field(default_factory=CondTable)
    word_bigrams: CondTable = field(default_factory=CondTable)

    NAMES = ("class_transitions", "first_words", "word_bigrams")

    def tables(self):
        return {name: getattr(self, name) for name in self.NAMES}

    @cached_property
    def _pooled(self):
        """(class_bigrams, class_marginal, begin_bigrams, word_unigrams),
        each summed in one pass over the events it pools."""
        transitions, first_words, bigrams = (table._events for table in self.tables().values())
        class_bigrams = {}
        for context, events in transitions.items():
            _add(class_bigrams.setdefault(context[:1], {}), events)
        marginal = {}
        for nc_prev in PREVIOUS_CLASSES:
            _add(marginal, class_bigrams.get((nc_prev,), {}))
        begin_bigrams, word_unigrams = {}, {}
        for nc in INTERNAL_CLASSES:
            pooled = {}
            for nc_prev in PREVIOUS_CLASSES:
                _add(pooled, first_words.get((nc, nc_prev), {}))
            if pooled:
                begin_bigrams[(nc,)] = pooled
                word_unigrams[(nc,)] = dict(pooled)
        for context, events in bigrams.items():
            _add(word_unigrams.setdefault(context[2:], {}), events)
        # One END_TOKEN closes each region, and each region has one first word.
        for context, pooled in word_unigrams.items():
            count = pooled.pop(END_TOKEN, 0) - sum(begin_bigrams.get(context, {}).values())
            if count > 0:
                pooled[END_TOKEN] = count
        return (_PooledLevel(class_bigrams, "class_transitions"),
                _PooledLevel({(): marginal} if marginal else {}, "class_transitions"),
                _PooledLevel(begin_bigrams, "first_words"),
                _PooledLevel(word_unigrams, "first_words and word_bigrams"))

    class_bigrams = property(lambda self: self._pooled[0])
    class_marginal = property(lambda self: self._pooled[1])
    begin_bigrams = property(lambda self: self._pooled[2])
    word_unigrams = property(lambda self: self._pooled[3])


@dataclass(frozen=True)
class TrainedModel:
    """Immutable result of training: vocabulary plus two table sets."""

    vocabulary: Vocabulary
    main: CountTables
    unknown: CountTables
    feature_config: FeatureConfig

    @cached_property
    def table_views(self):
        """(main, unknown-word) estimator views.

        Built the first time a decoder asks and shared by every decoder
        over this model, with the contexts and rows the decoders weigh
        into them; not a field, so equality and the model file ignore it.
        """
        from .estimator import TableView  # the estimator imports this module
        size = len(self.vocabulary)
        return TableView(self.main, size), TableView(self.unknown, size)

    @cached_property
    def token_keys(self):
        """Per first-word flag (False, then True), word -> the decoder's
        canonical key (route flag, Token) of that word.

        Filled by the decoders over this model with vocabulary words
        only, so each dict holds at most |V| keys; not a field, so
        equality and the model file ignore it.
        """
        return {}, {}


def segment_classes(sentence: AnnotatedSentence):
    """Cover the sentence with (name_class, start, end) segments.

    Name regions keep their spans; gaps become NOT-A-NAME segments.
    Adjacent name regions stay distinct segments even when same-class.
    """
    segments = []
    pos = 0
    for region in sentence.regions:
        if region.start > pos:
            segments.append((NOT_A_NAME, pos, region.start))
        segments.append((region.name_class, region.start, region.end))
        pos = region.end
    if pos < len(sentence.tokens):
        segments.append((NOT_A_NAME, pos, len(sentence.tokens)))
    return segments


def collect_counts(sentences, config: FeatureConfig = FeatureConfig(), *,
                   tokens_of=None) -> CountTables:
    """Count every event the generative story produces for the corpus.

    A word's feature depends only on the word, its first-word flag and
    the config, so each word's feature is computed, and its token
    built, once per distinct (word, flag) and kept in ``tokens_of``:
    per first-word flag (False, then True), word -> token.  Calls over
    parts of one corpus with one config may share it; by default each
    call has its own.  A token that is empty or holds whitespace is
    refused with ``TrainingError`` when it is first featured.  Counts go
    straight into the three tables' event dicts, in the order the story
    produces them.
    """
    t = CountTables()
    transitions, first_words, bigrams = (table._events for table in t.tables().values())
    if tokens_of is None:
        tokens_of = ({}, {})
    for sentence in sentences:
        if not sentence.tokens:
            continue
        tokens = []
        for word in sentence.tokens:
            known = tokens_of[not tokens]
            token = known.get(word)
            if token is None:
                if word.split() != [word]:
                    raise TrainingError("token %r is empty or holds whitespace" % (word,))
                feature = compute_feature(word, is_first_word=not tokens, config=config)
                token = known[word] = Token(word, feature)
            tokens.append(token)
        nc_prev, w_prev = START_OF_SENTENCE, END_WORD
        for nc, start, end in segment_classes(sentence):
            events = transitions.setdefault((nc_prev, w_prev), {})
            events[nc] = events.get(nc, 0) + 1
            prev = tokens[start]
            events = first_words.setdefault((nc, nc_prev), {})
            events[prev] = events.get(prev, 0) + 1
            for i in range(start + 1, end):
                token = tokens[i]
                events = bigrams.setdefault((prev.word, prev.feature, nc), {})
                events[token] = events.get(token, 0) + 1
                prev = token
            events = bigrams.setdefault((prev.word, prev.feature, nc), {})
            events[END_TOKEN] = events.get(END_TOKEN, 0) + 1
            nc_prev, w_prev = nc, prev.word
        events = transitions.setdefault((nc_prev, w_prev), {})
        events[END_OF_SENTENCE] = events.get(END_OF_SENTENCE, 0) + 1
    return t


def build_vocabulary(sentences) -> Vocabulary:
    """First-seen-order vocabulary over every token."""
    return Vocabulary(word for sentence in sentences for word in sentence.tokens)


def _add_held_out(unknown: CountTables, half: CountTables, unseen: set):
    """Add one half's counts to the unknown-word tables, each word in
    ``unseen`` (the half's words that the other half lacks) renamed
    ``UNKNOWN_WORD`` with its feature kept.  That is the transition
    context's previous word, the first-word tokens and the word-bigram
    context word and event tokens; counts whose renamed keys collide
    are summed."""
    transitions, first_words, bigrams = (table._events for table in unknown.tables().values())
    for (nc_prev, w_prev), events in half.class_transitions._events.items():
        _add(transitions.setdefault((nc_prev, UNKNOWN_WORD if w_prev in unseen else w_prev), {}),
             events)
    for context, events in half.first_words._events.items():
        _add_renamed(first_words.setdefault(context, {}), events, unseen)
    for (w_prev, f_prev, nc), events in half.word_bigrams._events.items():
        _add_renamed(bigrams.setdefault(
            (UNKNOWN_WORD if w_prev in unseen else w_prev, f_prev, nc), {}), events, unseen)


def _add_renamed(bucket: dict, events: dict, unseen: set):
    """Add every count of a token -> count dict into ``bucket``, each
    token whose word is in ``unseen`` renamed ``UNKNOWN_WORD`` with its
    feature kept."""
    for token, count in events.items():
        if token[0] in unseen:
            token = Token(UNKNOWN_WORD, token[1])
        bucket[token] = bucket.get(token, 0) + count


def train(sentences, config: FeatureConfig = FeatureConfig()) -> TrainedModel:
    """Build a full model: main tables plus held-out unknown-word tables.

    Each half of the corpus is counted once, with its real words, and
    the two counts share one token memo.  The unknown-word tables are
    the second half's counts with its words outside the first half's
    vocabulary renamed ``UNKNOWN_WORD``, plus the first half's renamed
    against the second's (``_add_held_out``); the main tables are then
    the first half's own tables with the second half's counts added.
    Both sets equal counting the whole corpus, and each half against
    the other's vocabulary.
    """
    sentences = [s for s in sentences if s.tokens]
    if len(sentences) < 2:
        raise TrainingError("need at least 2 sentences to form held-out halves, got %d"
                            % len(sentences))
    half = (len(sentences) + 1) // 2
    part_a, part_b = sentences[:half], sentences[half:]
    words_a, words_b = build_vocabulary(part_a), build_vocabulary(part_b)
    tokens_of = ({}, {})
    counted_a = collect_counts(part_a, config, tokens_of=tokens_of)
    counted_b = collect_counts(part_b, config, tokens_of=tokens_of)
    unknown = CountTables()
    _add_held_out(unknown, counted_b, {word for word in words_b.words() if word not in words_a})
    _add_held_out(unknown, counted_a, {word for word in words_a.words() if word not in words_b})
    for name, table in counted_a.tables().items():
        table.update(getattr(counted_b, name))
    return TrainedModel(Vocabulary(words_a.words() + words_b.words()), counted_a, unknown, config)
