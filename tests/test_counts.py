"""Count collection: the event streams behind every probability table."""

import hashlib
import random
import statistics

import pytest
from hypothesis import given, settings, strategies as st

from namefinder import (
    AnnotatedSentence,
    CondTable,
    CountTables,
    END_OF_SENTENCE,
    END_TOKEN,
    END_WORD,
    INTERNAL_CLASSES,
    NOT_A_NAME,
    ORGANIZATION,
    PERSON,
    Region,
    START_OF_SENTENCE,
    Token,
    TrainingError,
    UNKNOWN_WORD,
    Vocabulary,
    collect_counts,
    generate_corpus,
    segment_classes,
    serialize_model,
    train,
)
from namefinder import counts
from namefinder.counts import build_vocabulary
from namefinder.features import FeatureConfig, compute_feature
from reference import WORD_POOL, random_corpus, ref_train_walks
from test_golden import MODEL_SHA256
from timing import pair_ratios

NAN = NOT_A_NAME
POOLED = ("class_bigrams", "class_marginal", "begin_bigrams", "word_unigrams")


def sent(tokens, regions=()):
    return AnnotatedSentence(tokens=list(tokens), regions=list(regions))


def marginal(tables, nc, part):
    """Per-word (part "word") or per-feature (part "feature") counts of a
    class's word unigrams."""
    counts = {}
    for token, n in tables.word_unigrams.events((nc,)).items():
        key = getattr(token, part)
        counts[key] = counts.get(key, 0) + n
    return counts


class TestSegmentClasses:
    def test_gaps_become_not_a_name(self):
        s = sent(["Mr.", "John", "Smith", "said", "hello", "."],
                 [Region(1, 3, PERSON)])
        assert segment_classes(s) == [
            (NAN, 0, 1), (PERSON, 1, 3), (NAN, 3, 6),
        ]

    def test_all_name(self):
        s = sent(["John"], [Region(0, 1, PERSON)])
        assert segment_classes(s) == [(PERSON, 0, 1)]

    def test_no_regions(self):
        assert segment_classes(sent(["a", "b"])) == [(NAN, 0, 2)]

    def test_adjacent_regions_stay_distinct(self):
        s = sent(["Ann", "Bob"], [Region(0, 1, PERSON), Region(1, 2, PERSON)])
        assert segment_classes(s) == [(PERSON, 0, 1), (PERSON, 1, 2)]


@pytest.fixture(scope="module")
def single_region_tables():
    corpus = [sent(["John", "runs"], [Region(0, 1, PERSON)])]
    return collect_counts(corpus)


@pytest.fixture(scope="module")
def multi_token_tables():
    corpus = [sent(["Mr.", "John", "Smith", "said", "hello", "."],
                   [Region(1, 3, PERSON)])]
    return collect_counts(corpus)


class TestSingleRegionSentence:
    """Every event for [John] runs, with John marked PERSON, by hand."""

    @pytest.fixture
    def tables(self, single_region_tables):
        return single_region_tables

    def test_class_transitions(self, tables):
        t = tables.class_transitions
        assert t.count((START_OF_SENTENCE, END_WORD), PERSON) == 1
        assert t.count((PERSON, "John"), NAN) == 1
        assert t.count((NAN, "runs"), END_OF_SENTENCE) == 1
        assert sum(t.total(c) for c in t.contexts()) == 3

    def test_class_backoff_levels(self, tables):
        assert tables.class_bigrams.count((START_OF_SENTENCE,), PERSON) == 1
        assert tables.class_bigrams.count((PERSON,), NAN) == 1
        assert tables.class_marginal.count((), PERSON) == 1
        assert tables.class_marginal.count((), END_OF_SENTENCE) == 1
        assert tables.class_marginal.total(()) == 3

    def test_first_words(self, tables):
        john = Token("John", "firstWord")
        runs = Token("runs", "lowerCase")
        assert tables.first_words.count((PERSON, START_OF_SENTENCE), john) == 1
        assert tables.first_words.count((NAN, PERSON), runs) == 1
        assert tables.begin_bigrams.count((PERSON,), john) == 1
        assert tables.begin_bigrams.count((NAN,), runs) == 1

    def test_single_word_region_emits_only_the_end_bigram(self, tables):
        t = tables.word_bigrams
        assert t.count(("John", "firstWord", PERSON), END_TOKEN) == 1
        assert t.total(("John", "firstWord", PERSON)) == 1
        assert t.count(("runs", "lowerCase", NAN), END_TOKEN) == 1

    def test_unigram_levels(self, tables):
        assert tables.word_unigrams.count((PERSON,), Token("John", "firstWord")) == 1
        assert marginal(tables, PERSON, "word").get("John", 0) == 1
        assert marginal(tables, PERSON, "feature").get("firstWord", 0) == 1
        assert marginal(tables, NAN, "word").get("runs", 0) == 1
        assert marginal(tables, NAN, "feature").get("lowerCase", 0) == 1


class TestMultiTokenRegion:
    @pytest.fixture
    def tables(self, multi_token_tables):
        return multi_token_tables

    def test_transition_contexts_use_previous_segment_last_word(self, tables):
        t = tables.class_transitions
        assert t.count((START_OF_SENTENCE, END_WORD), NAN) == 1
        assert t.count((NAN, "Mr."), PERSON) == 1
        assert t.count((PERSON, "Smith"), NAN) == 1
        assert t.count((NAN, "."), END_OF_SENTENCE) == 1

    def test_first_word_vs_inner_bigrams(self, tables):
        fw = tables.first_words
        assert fw.count((PERSON, NAN), Token("John", "initCap")) == 1
        bg = tables.word_bigrams
        assert bg.count(("John", "initCap", PERSON), Token("Smith", "initCap")) == 1
        assert bg.count(("Smith", "initCap", PERSON), END_TOKEN) == 1
        # The name-final word closes the region; the next word is counted
        # under the following segment, not as a name bigram.
        assert bg.total(("Smith", "initCap", PERSON)) == 1

    def test_not_a_name_bigrams(self, tables):
        bg = tables.word_bigrams
        assert bg.count(("Mr.", "firstWord", NAN), END_TOKEN) == 1
        assert bg.count(("said", "lowerCase", NAN), Token("hello", "lowerCase")) == 1
        assert bg.count(("hello", "lowerCase", NAN), Token(".", "other")) == 1
        assert bg.count((".", "other", NAN), END_TOKEN) == 1

    def test_word_feature_pairs_decompose(self, tables):
        # Bigram event mass per class equals the token count of its
        # segments: one event per token (successor or region end).
        for nc in (PERSON, NAN):
            contexts = [c for c in tables.word_bigrams.contexts() if c[2] == nc]
            bigram_mass = sum(tables.word_bigrams.total(c) for c in contexts)
            assert bigram_mass == tables.word_unigrams.total((nc,))
        assert tables.word_unigrams.total((PERSON,)) == 2
        assert tables.word_unigrams.total((NAN,)) == 4


class TestCountConsistency:
    def test_totals_and_uniques_match_event_sums(self, rng):
        corpus = random_corpus(rng, 60)
        tables = collect_counts(corpus)
        for name in tables.NAMES + POOLED:
            table = getattr(tables, name)
            for context in table.contexts():
                events = table.events(context)
                assert table.total(context) == sum(events.values())
                assert table.unique(context) == len(events)
                assert all(count > 0 for count in events.values())

    def test_class_chain_totals_agree(self, rng):
        corpus = random_corpus(rng, 60)
        tables = collect_counts(corpus)
        # Collapsing transition contexts over the conditioned word gives
        # the class-bigram table; collapsing again gives the marginal.
        for nc_prev in INTERNAL_CLASSES + (START_OF_SENTENCE,):
            contexts = [c for c in tables.class_transitions.contexts()
                        if c[0] == nc_prev]
            for nc in INTERNAL_CLASSES + (END_OF_SENTENCE,):
                collapsed = sum(tables.class_transitions.count(c, nc)
                                for c in contexts)
                assert collapsed == tables.class_bigrams.count((nc_prev,), nc)
        marg = tables.class_marginal
        for nc in INTERNAL_CLASSES + (END_OF_SENTENCE,):
            collapsed = sum(tables.class_bigrams.count((p,), nc)
                            for p in INTERNAL_CLASSES + (START_OF_SENTENCE,))
            assert collapsed == marg.count((), nc)

    def test_first_word_totals_match_class_arrivals(self, rng):
        corpus = random_corpus(rng, 60)
        tables = collect_counts(corpus)
        for nc, nc_prev in tables.first_words.contexts():
            assert tables.first_words.total((nc, nc_prev)) == \
                tables.class_bigrams.count((nc_prev,), nc)

    def test_order_insensitive(self, rng):
        corpus = random_corpus(rng, 40)
        a = collect_counts(corpus)
        b = collect_counts(list(reversed(corpus)))
        for name in a.NAMES:
            assert getattr(a, name) == getattr(b, name)

    def test_empty_sentences_are_skipped(self):
        corpus = [sent([]), sent(["a"]), sent([])]
        tables = collect_counts(corpus)
        assert tables.class_marginal.total(()) == 2

    def test_each_distinct_word_and_flag_is_featured_once(self, monkeypatch):
        # A feature depends on the word, its first-word flag and the config
        # only, so one call computes each (word, flag) once; the counts
        # are those of a plain walk.
        calls = []

        def counted(word, is_first_word=False, config=FeatureConfig()):
            calls.append((word, is_first_word))
            return compute_feature(word, is_first_word, config)

        corpus = generate_corpus(80, seed=3) + [sent(["the", "The", "the"])]
        pairs = {(word, i == 0) for s in corpus for i, word in enumerate(s.tokens)}
        monkeypatch.setattr(counts, "compute_feature", counted)
        main = collect_counts(corpus)
        assert len(calls) == len(pairs) < sum(len(s.tokens) for s in corpus)
        assert set(calls) == pairs
        walk = ref_train_walks(corpus)[0]
        for name in main.NAMES:
            assert getattr(main, name) == walk[name], name


class TestPooledLevels:
    """The four pooled levels are sums of the three counted tables."""

    @settings(derandomize=True, deadline=None, max_examples=30)
    @given(size=st.integers(min_value=2, max_value=60),
           seed=st.integers(min_value=0, max_value=2 ** 16),
           sentinels=st.booleans())
    def test_derived_levels_equal_a_seven_table_walk(self, size, seed, sentinels):
        corpus = generate_corpus(size, seed)
        if sentinels:
            # Words shaped like sentinels in hand-built sentences, inside
            # and outside regions.  A sentence that spells UNKNOWN_WORD is
            # refused, and left out.
            drawn = random_corpus(random.Random(seed), 8,
                                  pool=WORD_POOL + ["+end+", "+unk+", UNKNOWN_WORD])
            kept = [s for s in drawn if UNKNOWN_WORD not in s.tokens]
            if len(kept) < len(drawn):
                with pytest.raises(TrainingError, match="token 'unknown word' is empty"):
                    train(corpus + drawn)
            corpus += kept
        model = train(corpus)
        for tables, walk in zip((model.main, model.unknown), ref_train_walks(corpus)):
            for name in tables.NAMES + POOLED:
                assert getattr(tables, name) == walk[name], name

    def test_only_the_counted_tables_are_stored(self, single_region_tables):
        assert set(single_region_tables.tables()) == {
            "class_transitions", "first_words", "word_bigrams"}
        with pytest.raises(TypeError):
            CountTables(class_marginal=CondTable())
        with pytest.raises(AttributeError):
            single_region_tables.class_marginal = CondTable()

    @pytest.mark.parametrize("name, counted", [
        ("class_bigrams", "class_transitions"), ("class_marginal", "class_transitions"),
        ("begin_bigrams", "first_words"), ("word_unigrams", "first_words and word_bigrams")])
    def test_pooled_levels_refuse_writes(self, single_region_tables, name, counted):
        level = getattr(single_region_tables, name)
        before = [(context, level.total(context)) for context in level.contexts()]
        other = CondTable()
        other.add((PERSON,), Token("x", "lowerCase"))
        for write in (lambda: level.add((PERSON,), Token("x", "lowerCase")),
                      lambda: level.add_events((PERSON,), {Token("x", "lowerCase"): 1}),
                      lambda: level.update(other)):
            with pytest.raises(TypeError, match="add counts to %s instead" % counted):
                write()
        assert [(context, level.total(context)) for context in level.contexts()] == before


class TestVocabulary:
    def test_first_seen_ids(self):
        corpus = [sent(["b", "a"]), sent(["a", "c"])]
        vocab = build_vocabulary(corpus)
        assert vocab.words() == ["b", "a", "c"]
        assert len(vocab) == 3

    def test_membership(self):
        vocab = Vocabulary(["x"])
        assert "y" not in vocab and "x" in vocab
        assert vocab.known("x") and not vocab.known("y")

    def test_end_word_always_known(self):
        # So the sentence-start context routes to the main tables.
        vocab = Vocabulary()
        assert vocab.known(END_WORD) and END_WORD not in vocab
        for w in (UNKNOWN_WORD, "+end+", "+unk+", "word"):
            assert not vocab.known(w)


class TestCondTable:
    def test_update_merges(self):
        a = CondTable()
        a.add(("x",), "e1")
        a.add(("x",), "e2", 2)
        b = CondTable()
        b.add(("x",), "e1", 3)
        b.add(("y",), "e3")
        a.update(b)
        assert a.count(("x",), "e1") == 4
        assert a.total(("x",)) == 6
        assert a.count(("y",), "e3") == 1

    def test_missing_context_is_empty(self):
        t = CondTable()
        assert t.total(("nope",)) == 0
        assert t.unique(("nope",)) == 0
        assert t.events(("nope",)) == {}


class TestTrain:
    def test_needs_two_sentences(self):
        with pytest.raises(TrainingError, match="held-out halves"):
            train([sent(["a"])])
        with pytest.raises(TrainingError):
            train([sent(["a"]), sent([])])

    def test_held_out_unknown_counts_by_hand(self):
        corpus = [
            sent(["alpha", "beta"]),
            sent(["alpha", "gamma"]),
            sent(["beta", "gamma"]),
            sent(["alpha", "delta"]),
        ]
        model = train(corpus)
        # Halves are [s1, s2] and [s3, s4]; each is counted against the
        # other's vocabulary, so only "delta" maps to the sentinel.
        assert marginal(model.unknown, NAN, "word") == {
            "alpha": 3, "beta": 2, "gamma": 2, UNKNOWN_WORD: 1}
        # The sentinel keeps the real word's feature.
        unigrams = model.unknown.word_unigrams.events((NAN,))
        assert unigrams[Token(UNKNOWN_WORD, "lowerCase")] == 1
        # Transition contexts use mapped words too.
        t = model.unknown.class_transitions
        assert t.count((NAN, UNKNOWN_WORD), END_OF_SENTENCE) == 1
        assert t.count((NAN, "gamma"), END_OF_SENTENCE) == 2
        assert t.count((NAN, "beta"), END_OF_SENTENCE) == 1
        bg = model.unknown.word_bigrams.events(("alpha", "lowerCase", NAN))
        assert bg == {
            Token(UNKNOWN_WORD, "lowerCase"): 1,
            Token("beta", "lowerCase"): 1,
            Token("gamma", "lowerCase"): 1,
        }

    def test_renamed_keys_that_collide_add_up(self):
        # Halves [s1, s2] and [s3, s4]: each half's first words are unseen
        # in the other, so they share one sentinel token and one bigram
        # context, and the renamed counts add up.
        corpus = [sent(["alpha", "beta"]), sent(["alpha", "gamma"]),
                  sent(["delta", "beta"]), sent(["epsilon", "beta"])]
        model = train(corpus)
        unknown = Token(UNKNOWN_WORD, "lowerCase")
        assert model.unknown.first_words.events((NAN, START_OF_SENTENCE)) == {unknown: 4}
        assert model.unknown.word_bigrams.events((UNKNOWN_WORD, "lowerCase", NAN)) == {
            Token("beta", "lowerCase"): 3, unknown: 1, END_TOKEN: 1}
        t = model.unknown.class_transitions
        assert t.events((NAN, "beta")) == {END_OF_SENTENCE: 3}
        assert t.events((NAN, UNKNOWN_WORD)) == {END_OF_SENTENCE: 1}
        walk = ref_train_walks(corpus)[1]
        for name in model.unknown.NAMES + POOLED:
            assert getattr(model.unknown, name) == walk[name], name

    def test_main_tables_see_every_word(self):
        corpus = [
            sent(["alpha", "beta"]),
            sent(["alpha", "gamma"]),
            sent(["beta", "gamma"]),
            sent(["alpha", "delta"]),
        ]
        model = train(corpus)
        assert marginal(model.main, NAN, "word") == {
            "alpha": 3, "beta": 2, "gamma": 2, "delta": 1,
        }
        assert UNKNOWN_WORD not in marginal(model.main, NAN, "word")
        assert model.vocabulary.words() == ["alpha", "beta", "gamma", "delta"]

    def test_fully_shared_vocabulary_leaves_no_unknown_words(self):
        corpus = [sent(["a", "b"]), sent(["a", "b"]), sent(["b", "a"]),
                  sent(["a", "b"])]
        model = train(corpus)
        assert UNKNOWN_WORD not in marginal(model.unknown, NAN, "word")

    def test_unknown_mass_doubles_every_sentence(self, rng):
        # Both passes together count each sentence exactly once.
        corpus = random_corpus(rng, 20)
        model = train(corpus)
        total_tokens = sum(len(s.tokens) for s in corpus)
        assert model.unknown.class_marginal.total(()) == \
            model.main.class_marginal.total(())
        assert sum(sum(marginal(model.unknown, nc, "word").values())
                   for nc in INTERNAL_CLASSES) == total_tokens

    def test_each_distinct_word_and_flag_is_featured_once_per_train(self, monkeypatch):
        # Both halves share one token memo, so a pair seen in both halves
        # is featured once, and the model is the golden test's.
        calls = []

        def counted(word, is_first_word=False, config=FeatureConfig()):
            calls.append((word, is_first_word))
            return compute_feature(word, is_first_word, config)

        corpus = generate_corpus(1000, seed=5)
        half = (len(corpus) + 1) // 2
        pairs_of = [{(word, i == 0) for s in part for i, word in enumerate(s.tokens)}
                    for part in (corpus[:half], corpus[half:])]
        monkeypatch.setattr(counts, "compute_feature", counted)
        model = train(corpus)
        assert len(calls) == len(set(calls)) < sum(map(len, pairs_of))
        assert set(calls) == pairs_of[0] | pairs_of[1]
        text = serialize_model(model).encode("utf-8")
        assert hashlib.sha256(text).hexdigest() == MODEL_SHA256

    @pytest.mark.parametrize("word", [UNKNOWN_WORD, "two words", "a\tb", "a\u00a0b", ""])
    def test_a_token_that_is_empty_or_holds_whitespace_is_refused(self, word):
        # No tokenizer makes one, and UNKNOWN_WORD, as a word, would alias
        # the out-of-vocabulary sentinel.
        # Inside a region of the first half, and first in the second.
        for corpus in ([sent(["Mr.", word, "said"], [Region(1, 2, PERSON)]), sent(["it"])],
                       [sent(["it"]), sent([word, "said"])]):
            with pytest.raises(TrainingError) as info:
                train(corpus)
            assert str(info.value) == "token %r is empty or holds whitespace" % (word,)

    def test_region_classes_flow_into_tables(self):
        corpus = [
            sent(["Acme", "Corp.", "won"], [Region(0, 2, ORGANIZATION)]),
            sent(["it", "won"]),
        ]
        model = train(corpus)
        assert marginal(model.main, ORGANIZATION, "word").get("Acme", 0) == 1
        assert model.main.first_words.count(
            (ORGANIZATION, START_OF_SENTENCE), Token("Acme", "firstWord")) == 1


def test_train_time_is_linear():
    """time(2n)/time(n) <= 2.5 for training, as criterion 9 asks of
    decoding.

    Small and large corpora alternate, and the gate takes the median of
    the per-pair ratios, so that a burst of load on a shared machine
    does not decide it.
    """
    large = generate_corpus(6000, seed=31)
    small = large[:3000]
    ratios = pair_ratios(train, small, large)
    assert statistics.median(ratios) <= 2.5, ratios
