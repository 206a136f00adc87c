"""Viterbi decoding: exactness against exhaustive search and against
the plain recurrence, score reconstruction, document segmentation,
deterministic tie handling, the estimator views shared by every decoder
over one model, and the model's token table."""

import copy
import gc
import inspect
import operator
import random
import statistics
import traceback
import weakref
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from namefinder import (
    AnnotatedSentence,
    Decoder,
    INTERNAL_CLASSES,
    LOCATION,
    NOT_A_NAME,
    PERSON,
    Region,
    Token,
    WORD_FEATURES,
    compute_feature,
    parse_annotated,
    regions_from_path,
    score_path,
    train,
)
from namefinder.decoder import _recurrence
from namefinder.estimator import RowStore
from namefinder.features import UNKNOWN_WORD
from namefinder.model_io import ModelFormatError, deserialize_model, serialize_model
from namefinder.synthetic import generate_corpus
from reference import OOV_POOL, WORD_POOL, random_corpus, ref_best_path, ref_viterbi
from timing import pair_ratios

NAN = NOT_A_NAME
K = len(INTERNAL_CLASSES)


def tokens_of(words, model):
    return [Token(w, compute_feature(w, i == 0, model.feature_config))
            for i, w in enumerate(words)]


def random_words(rng, min_len=1, max_len=4):
    pool = WORD_POOL + OOV_POOL
    return [rng.choice(pool) for _ in range(rng.randint(min_len, max_len))]


class TestRegionsFromPath:
    def test_single_region_with_tail(self):
        assert regions_from_path((PERSON, PERSON, NAN),
                                 (True, False, True)) == [Region(0, 2, PERSON)]

    def test_adjacent_same_class_regions(self):
        assert regions_from_path((PERSON, PERSON), (True, True)) == [
            Region(0, 1, PERSON), Region(1, 2, PERSON),
        ]

    def test_all_filler(self):
        assert regions_from_path((NAN, NAN, NAN), (True, False, False)) == []

    def test_class_change_needs_boundary_flag(self):
        assert regions_from_path((PERSON, LOCATION), (True, True)) == [
            Region(0, 1, PERSON), Region(1, 2, LOCATION),
        ]


class TestAgainstExhaustiveSearch:
    """The dynamic program must reproduce brute-force search exactly,
    including the documented tie order, on models of every size."""

    def test_random_models_and_sentences(self, rng):
        for trial in range(60):
            corpus = random_corpus(rng, rng.randint(2, 25))
            model = train(corpus)
            decoder = Decoder(model)
            for _ in range(3):
                words = random_words(rng)
                result = decoder.decode_sentence(words)
                want_score, want_classes, want_bounds = ref_best_path(words, model)
                assert result.log_score == want_score
                assert result.path_classes == want_classes
                assert result.path_boundaries == want_bounds

    def test_degenerate_two_sentence_model(self, rng):
        # Tiny models drive most queries onto shared floors, making
        # exact ties common; the tie rule must still match.
        corpus = random_corpus(rng, 2, max_len=2)
        model = train(corpus)
        decoder = Decoder(model)
        for _ in range(25):
            words = random_words(rng)
            result = decoder.decode_sentence(words)
            want_score, want_classes, want_bounds = ref_best_path(words, model)
            assert result.log_score == want_score
            assert result.path_classes == want_classes
            assert result.path_boundaries == want_bounds


class TestSingleToken:
    def test_one_word_is_a_degenerate_argmax(self, tiny_model):
        # With one token there is no search: the best class maximizes
        # transition in, first word, region end, and transition out.
        result = Decoder(tiny_model).decode_sentence(["John"])
        want_score, want_classes, _ = ref_best_path(["John"], tiny_model)
        assert result.log_score == want_score
        assert result.path_classes == want_classes
        assert result.path_boundaries == (True,)

    def test_oov_single_token_tie_breaks_to_earliest_class(self, rng):
        corpus = random_corpus(rng, 2, max_len=2)
        model = train(corpus)
        result = Decoder(model).decode_sentence(["qqqq"])
        _, want_classes, _ = ref_best_path(["qqqq"], model)
        assert result.path_classes == want_classes


class TestScoreReconstruction:
    def test_reported_score_rebuilds_from_factors(self, rng):
        corpus = random_corpus(rng, 30)
        model = train(corpus)
        decoder = Decoder(model)
        for _ in range(40):
            words = random_words(rng, max_len=6)
            result = decoder.decode_sentence(words)
            rebuilt = score_path(tokens_of(words, model),
                                 result.path_classes,
                                 result.path_boundaries, model)
            assert rebuilt == pytest.approx(result.log_score, abs=1e-9)

    def test_alternative_paths_never_score_higher(self, rng):
        corpus = random_corpus(rng, 30)
        model = train(corpus)
        decoder = Decoder(model)
        for _ in range(30):
            words = random_words(rng, max_len=5)
            result = decoder.decode_sentence(words)
            n = len(words)
            classes = tuple(rng.choice(INTERNAL_CLASSES) for _ in range(n))
            bounds = (True,) + tuple(
                # A class change forces a boundary; same-class may continue.
                True if classes[t] != classes[t - 1] else rng.random() < 0.5
                for t in range(1, n))
            alt = score_path(tokens_of(words, model), classes, bounds, model)
            assert alt <= result.log_score + 1e-9


@pytest.fixture(scope="module")
def cue_model():
    doc = "\n".join(
        ['Mr. <ENAMEX TYPE="PERSON">Smith</ENAMEX> said hello .'] * 3
        + ['Mr. <ENAMEX TYPE="PERSON">Jones</ENAMEX> said hello .'] * 2
        + ["the plan said hello ."] * 3
    )
    return train(parse_annotated(doc))


class TestNamedFixture:
    def test_title_cue_yields_person_region(self, cue_model):
        result = Decoder(cue_model).decode_sentence(
            ["Mr.", "Smith", "said", "hello", "."])
        assert result.sentence.regions == [Region(1, 2, PERSON)]
        assert result.path_classes[0] == NAN
        assert result.path_classes[1] == PERSON

    def test_decoded_sentence_carries_tokens_and_regions(self, cue_model):
        words = ["Mr.", "Jones", "said", "hello", "."]
        result = Decoder(cue_model).decode_sentence(words)
        assert isinstance(result.sentence, AnnotatedSentence)
        assert result.sentence.tokens == words
        assert result.sentence.regions == [Region(1, 2, PERSON)]
        result.sentence.validate()


class TestDecodeDocument:
    def test_empty_text(self, tiny_model):
        assert Decoder(tiny_model).decode_document("") == []
        assert Decoder(tiny_model).decode_document("   \n ") == []

    def test_sentences_decode_independently(self, rng):
        corpus = random_corpus(rng, 30)
        model = train(corpus)
        decoder = Decoder(model)
        text_a = "the cat ran ."
        text_b = "Blue Ridge won ."
        separate = [r.log_score for r in
                    [decoder.decode_sentence(text_a.split()),
                     decoder.decode_sentence(text_b.split())]]
        combined = decoder.decode_document(text_a + " " + text_b)
        assert [r.log_score for r in combined] == separate
        assert [r.sentence.tokens for r in combined] == [
            text_a.split(), text_b.split()]


class TestDeterminismAndReuse:
    def test_repeated_decoding_is_stable(self, rng):
        corpus = random_corpus(rng, 20)
        model = train(corpus)
        decoder = Decoder(model)
        words = random_words(rng, min_len=3, max_len=6)
        first = decoder.decode_sentence(words)
        for _ in range(3):
            assert decoder.decode_sentence(words) == first
        # A fresh decoder (cold caches) agrees with a warmed one.
        assert Decoder(model).decode_sentence(words) == first

    def test_interleaved_sentences_do_not_interfere(self, rng):
        corpus = random_corpus(rng, 20)
        model = train(corpus)
        decoder = Decoder(model)
        sentences = [random_words(rng, 2, 5) for _ in range(6)]
        alone = [Decoder(model).decode_sentence(w) for w in sentences]
        shared = [decoder.decode_sentence(w) for w in sentences]
        assert shared == alone

    def test_warm_caches_change_nothing(self):
        # Fresh money, date and percent tokens are out of vocabulary and
        # share rows by feature, as do words shaped like sentinels.
        model = train(generate_corpus(300, seed=11))
        # The sentinel-shaped sentences come first, so that their rows are
        # the ones the out-of-vocabulary tokens that follow share.
        sentences = [
            ["the", "+unk+", "said", "+end+", "to", "+begin+", "."],
            ["the", "~zq~", "said", "~qz~", "to", "@@", "."],
            ["+unk+", "$9,999", "rose", "+unk+", "."],
            ["~qq~", "+end+", "+unk+", "~qq~"],
            ["+begin+"], ["+unk+"], ["~zz~"],
        ]
        sentences += [s.tokens for s in generate_corpus(60, seed=12)]
        warm = Decoder(model)
        for words in sentences:
            warm.decode_sentence(words)
        for words in sentences:
            result = warm.decode_sentence(words)
            fresh = Decoder(model).decode_sentence(words)
            assert result.log_score == fresh.log_score
            assert result.path_classes == fresh.path_classes
            assert result.path_boundaries == fresh.path_boundaries
            rebuilt = score_path(tokens_of(words, model), result.path_classes,
                                 result.path_boundaries, model)
            assert rebuilt == pytest.approx(result.log_score, abs=1e-9)

    def test_begin_decodes_as_any_unseen_word(self):
        # "+begin+" is no sentinel: it is out of vocabulary and decodes
        # exactly as another unseen word of feature "other" does.
        model = train(generate_corpus(300, seed=11))
        assert compute_feature("+begin+") == compute_feature("+zzz+") == "other"
        assert "+begin+" not in model.vocabulary and "+zzz+" not in model.vocabulary
        for sentence in ("He said {} Smith .", "{}", "{} Smith spoke ."):
            begin, other = (Decoder(model).decode_sentence(sentence.format(word).split())
                            for word in ("+begin+", "+zzz+"))
            assert begin.path_classes == other.path_classes
            assert begin.path_boundaries == other.path_boundaries
            assert begin.log_score == other.log_score

    def test_oov_words_of_one_feature_share_rows(self, tiny_model):
        decoder = Decoder(tiny_model)
        oov = ["zq" + a + b + c for a in "abcdefghij" for b in "abcdefghij"
               for c in "abcdefghij"]
        assert len(oov) == 1000 and not any(w in tiny_model.vocabulary for w in oov)
        decoder.decode_sentence(["the", "plan", "."])
        first_word_rows = sum(map(len, decoder._grids))
        decoder.decode_sentence(["the", oov[0], "plan", "."])
        sizes = [len(store) for store in decoder_stores(decoder)]
        for word in oov[1:]:
            decoder.decode_sentence(["the", word, "plan", "."])
        assert sum(map(len, decoder._grids)) <= first_word_rows + 1
        assert [len(store) for store in decoder_stores(decoder)] == sizes

    def test_empty_sentence_rejected(self, tiny_model):
        with pytest.raises(ValueError):
            Decoder(tiny_model).decode_sentence([])

    @pytest.mark.parametrize("words", [[""], ["the", ""], ["", "plan"]])
    def test_empty_word_rejected(self, tiny_model, words):
        # Also once the token table holds the sentence's other words.
        decoder = Decoder(tiny_model)
        decoder.decode_sentence(["the", "plan", "."])
        with pytest.raises(ValueError):
            decoder.decode_sentence(words)
        assert "" not in tiny_model.token_keys[False] and "" not in tiny_model.token_keys[True]


def has_views(model):
    """Whether the model has built its cached estimator views."""
    return "table_views" in vars(model)


def shared_rows(decoder):
    """The decoder's row stores and start row, which belong to the views."""
    return (*decoder._blocks, *decoder._grids, *decoder._ends, *decoder._contexts,
            *decoder._ratios, decoder._start_row)


def decoder_stores(decoder):
    """Every dict that the decoder holds, on either route flag: each
    store that it reads rows or keys from."""
    stores = []
    for value in vars(decoder).values():
        stores.extend(store for store in (value if isinstance(value, tuple) else (value,))
                      if isinstance(store, dict))
    return stores


TEXT = "Mr. John Smith said hello .\n+unk+ Zqx opened in Boston +end+ ."


class TestSharedViews:
    def test_decoders_share_one_pair_of_views(self, tiny_corpus):
        model = train(tiny_corpus)
        first, second = Decoder(model), Decoder(model)
        views = model.table_views
        expected = (*(view.transition_blocks for view in views),
                    *(view.first_word_grids for view in views),
                    *(view.end_rows for view in views),
                    *(view.next_contexts for view in views),
                    *(view.unigram_ratios for view in views), views[False].start_row)
        assert len(shared_rows(first)) == len(expected)
        assert all(a is b is c for a, b, c in zip(shared_rows(first), shared_rows(second),
                                                  expected))
        other = Decoder(train(tiny_corpus))
        assert not any(a is b for a, b in zip(shared_rows(other), shared_rows(first)))

    def test_a_fresh_decoder_weighs_no_context_a_row_has_not_read(self, tiny_corpus):
        model = train(tiny_corpus)
        Decoder(model)
        for view in model.table_views:
            assert not view.transition_blocks and not view.next_contexts and not view.end_rows
        Decoder(model).decode_sentence(["The", "plan"])
        main, unknown = model.table_views
        assert set(main.transition_blocks) == {"The", "plan"}
        read = {Token("The", compute_feature("The", True)),
                Token("plan", compute_feature("plan", False))}
        assert set(main.next_contexts) == set(main.end_rows) == read
        assert not unknown.transition_blocks and not unknown.next_contexts
        assert not unknown.end_rows

    def test_views_die_with_their_model_by_reference_counting(self, tiny_corpus):
        # No reference cycle: with the cycle collector off, dropping the
        # model and its warm decoders frees both views at once.
        gc.disable()
        try:
            model = train(tiny_corpus)
            decoders = [Decoder(model), Decoder(model)]
            for decoder in decoders:
                decoder.decode_document(TEXT)
            assert all(view.transition_blocks and view.first_word_grids
                       for view in model.table_views)
            views = [weakref.ref(view) for view in model.table_views]
            del model, decoders, decoder
            assert [view() for view in views] == [None, None]
        finally:
            gc.enable()

    def test_a_deep_copied_warm_decoder_decodes_identically(self, tiny_corpus):
        model = train(tiny_corpus)
        warm = Decoder(model)
        warm.decode_document(TEXT)
        twin = copy.deepcopy(warm, {id(model): model})
        assert twin.model is model
        assert twin._token_keys == model.token_keys and all(model.token_keys)
        text = TEXT + "\nAcme Systems Corp. opened in Qzx ."
        assert twin.decode_document(text) == warm.decode_document(text) == \
            Decoder(model).decode_document(text)

    def test_training_and_loading_build_no_views(self, tiny_corpus):
        model = train(tiny_corpus)
        assert not has_views(model)
        assert not has_views(deserialize_model(serialize_model(model)))

    def test_views_change_neither_equality_nor_the_model_file(self, tiny_corpus):
        model = train(tiny_corpus)
        twin = replace(model)
        text = serialize_model(model)
        Decoder(model)
        assert has_views(model) and not has_views(twin)
        assert model == twin and twin == model
        assert serialize_model(model) == text

    def test_contexts_no_query_reaches_are_ignored(self, tiny_corpus):
        # Tables built in memory may hold contexts no query can ask for;
        # they must not stop a decoder from being built or change what
        # it decodes.  A model file holding them is refused.
        clean = train(tiny_corpus)
        odd = train(tiny_corpus)
        odd.main.class_transitions.add(("BOGUS", "said"), PERSON)
        odd.main.class_transitions.add(("said",), PERSON)
        odd.main.word_bigrams.add(("said", "lowerCase"), Token("hello", "lowerCase"))
        odd.main.word_bigrams.add(("said", "lowerCase", "BOGUS"), Token("hello", "lowerCase"))
        with pytest.raises(ModelFormatError):
            deserialize_model(serialize_model(odd))
        text = "Mr. John Smith said hello .\nAcme Systems Corp. opened in Boston ."
        assert Decoder(odd).decode_document(text) == Decoder(clean).decode_document(text)

    def test_filled_rows_change_neither_equality_nor_the_model_file(self, tiny_corpus):
        model = train(tiny_corpus)
        text = serialize_model(model)
        twin = deserialize_model(text)
        Decoder(model).decode_document(TEXT)
        main, unknown = model.table_views
        assert main.transition_blocks and main.first_word_grids
        assert unknown.transition_blocks and unknown.first_word_grids
        assert not has_views(twin)
        assert model == twin and twin == model
        assert serialize_model(model) == text

    def test_fresh_decoders_reuse_filled_rows(self, tiny_corpus):
        model = train(tiny_corpus)
        words = "Mr. Zqx Smith said hello .".split()
        first = Decoder(model).decode_sentence(words)
        filled = [dict(view.transition_blocks) for view in model.table_views]
        filled += [dict(view.first_word_grids) for view in model.table_views]
        second = Decoder(model)
        assert second.decode_sentence(words) == first
        stores = [view.transition_blocks for view in model.table_views]
        stores += [view.first_word_grids for view in model.table_views]
        # Nothing was refilled: the same row objects under the same keys.
        for before, after in zip(filled, stores):
            assert before.keys() == after.keys()
            assert all(after[key] is row for key, row in before.items())

    def test_oov_words_with_fresh_decoders_add_one_first_word_grid(self, tiny_corpus):
        model = train(tiny_corpus)
        oov = ["zq" + a + b + c for a in "abcdefghij" for b in "abcdefghij"
               for c in "abcdefghij"]
        assert len(oov) == 1000 and not any(w in model.vocabulary for w in oov)
        assert len({compute_feature(w, False) for w in oov}) == 1
        Decoder(model).decode_sentence(["the", "plan", "."])
        before = [len(view.first_word_grids) for view in model.table_views]
        for word in oov:
            Decoder(model).decode_sentence(["the", word, "plan", "."])
        after = [len(view.first_word_grids) for view in model.table_views]
        assert sum(after) <= sum(before) + 1

    def test_shared_keys_stay_within_the_vocabulary_bound(self):
        model = train(generate_corpus(200, seed=3))
        text = "\n".join(" ".join(s.tokens) for s in generate_corpus(300, seed=4))
        text += "\n+end+ +unk+ +begin+ Zqx said $9,999 1999 ZQX Zq."
        for line in text.split("\n"):
            Decoder(model).decode_document(line)
        words = set(model.vocabulary.words()) | {UNKNOWN_WORD}
        bound = len(model.vocabulary) + 1
        main, unknown = model.table_views
        assert set(main.transition_blocks) <= words
        assert set(unknown.transition_blocks) <= {UNKNOWN_WORD}
        for view in model.table_views:
            assert len(view.transition_blocks) <= bound
            for tokens in (view.first_word_grids, view.next_contexts, view.end_rows,
                           view.unigram_ratios):
                assert len(tokens) <= bound * len(WORD_FEATURES)
                assert all(word in words and feature in WORD_FEATURES
                           for word, feature in tokens)
        assert {word for word, _ in main.first_word_grids} <= words
        assert {word for word, _ in unknown.first_word_grids} <= {UNKNOWN_WORD}
        # Out-of-vocabulary words reached the unknown-word store.
        assert unknown.transition_blocks and unknown.first_word_grids
        # One long-lived decoder reads random vocabulary bigrams, then twice
        # as many new ones: no store that it reads outgrows the bound, and
        # a second decoder reads the very same stores, so it keeps none of
        # its own.
        decoder = Decoder(model)
        vocabulary = sorted(model.vocabulary.words())
        for seed, n_sentences in ((5, 200), (6, 400)):
            rng = random.Random(seed)
            for _ in range(n_sentences):
                decoder.decode_sentence([rng.choice(vocabulary) for _ in range(20)])
            stores = decoder_stores(decoder)
            assert stores and all(len(store) <= bound * len(WORD_FEATURES)
                                  for store in stores)
        others = decoder_stores(Decoder(model))
        assert len(others) == len(stores) and all(map(operator.is_, others, stores))


def test_decode_time_is_linear():
    """time(2n)/time(n) <= 2.5 for one sentence with no terminal, read
    by ``decode_document`` at 10k and 20k tokens.

    Sizes alternate, each decode uses a fresh decoder over one model (the
    first also fills the rows every decoder shares), and the gate takes
    the median of the per-pair ratios, as ``test_parse_time_is_linear``
    does.
    """
    model = train(generate_corpus(200, seed=13))
    words = [w for s in generate_corpus(1600, seed=14) for w in s.tokens
             if w not in (".", "!", "?")]
    words = [word if i % 50 else "zq%d" % i for i, word in enumerate(words[:20000])]
    assert len(words) == 20000
    small, large = " ".join(words[:10000]), " ".join(words)
    sentences = []  # per decode, checked after the timings

    def decode(text):
        sentences.append(len(Decoder(model).decode_document(text)))

    ratios = pair_ratios(decode, small, large)
    assert sentences == [1] * 10
    assert statistics.median(ratios) <= 2.5, ratios


# --- Property: rows shared across decoders change no decode ---------------

@pytest.fixture(scope="module")
def property_model():
    return train(generate_corpus(150, seed=21))


_OOV_WORDS = ["Zqx", "zqx", "$9,999", "1066", "77", "ZQX", "Zq.", "zq-9", "9/9/99",
              "4.5%", "x9", ";", "+endx+"]
_SHAPED_LIKE_SENTINELS = ["+end+", "+unk+", "+begin+"]


def test_the_unseen_words_are_unseen(property_model):
    assert not set(_OOV_WORDS + _SHAPED_LIKE_SENTINELS) & set(property_model.vocabulary.words())


@st.composite
def _sentences(draw, vocabulary):
    pool = st.sampled_from(vocabulary + _OOV_WORDS + _SHAPED_LIKE_SENTINELS)
    return draw(st.lists(st.lists(pool, min_size=1, max_size=8), min_size=1, max_size=4))


class TestSharedRowProperties:
    @settings(derandomize=True, deadline=None, max_examples=30)
    @given(data=st.data())
    def test_fresh_decoders_agree_with_a_freshly_loaded_twin(self, property_model, data):
        model = property_model
        sentences = data.draw(_sentences(sorted(model.vocabulary.words())[:60]))
        twin = deserialize_model(serialize_model(model))
        for words in sentences:
            result = Decoder(model).decode_sentence(words)
            assert result == Decoder(twin).decode_sentence(words)
            rebuilt = score_path(tokens_of(words, model), result.path_classes,
                                 result.path_boundaries, model)
            assert rebuilt == pytest.approx(result.log_score, abs=1e-9)


# --- Pruned search: the plain recurrence is the oracle --------------------

def decode_as_oracle(decoder, words):
    """Decode words, asserting the plain recurrence over the same stores
    finds the same score and path."""
    result = decoder.decode_sentence(words)
    assert (result.log_score, result.path_classes, result.path_boundaries) == \
        ref_viterbi(decoder, words)
    return result


def hand_built(model, start_row, block, grid, end_row, next_row):
    """A decoder over model whose stores build every row with the given
    builders, on either route flag, each block and grid stored with the
    maxima of its rows over the internal previous classes.  No class
    counts any token, so the continuation row of a previous token is its
    row of floor terms, ``next_row(prev)``, whatever the token."""
    decoder = Decoder(model)
    blocks = RowStore(lambda w_prev: with_maxima(block(w_prev)))
    grids = RowStore(lambda token: with_maxima(grid(token)))
    decoder._blocks, decoder._grids = (blocks, blocks), (grids, grids)
    decoder._ends = (RowStore(end_row),) * 2
    decoder._contexts = (RowStore(lambda prev: ((), next_row(prev))),) * 2
    decoder._ratios = (RowStore(lambda token: ()),) * 2
    decoder._start_row = start_row
    return decoder


def with_maxima(rows):
    """(rows, the maximum of each row over the internal previous
    classes); a block's END-OF-SENTENCE row gets none."""
    return rows, tuple(max(row[:K]) for row in rows[:K])


def constant(row):
    return lambda key: row


_TIED_LOGS = st.sampled_from([0.0, -1.0, -2.0])


def _drawn_row(data, size):
    """A row of few distinct values, sometimes all equal, so that scores tie."""
    return tuple(data.draw(st.one_of(_TIED_LOGS.map(lambda v: [v] * size),
                                     st.lists(_TIED_LOGS, min_size=size, max_size=size))))


class TestPrunedSearch:
    """The decoder skips BOUNDARY candidates whose bound cannot win; it
    must find the plain recurrence's score and path, ties included."""

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(data=st.data())
    def test_random_sentences_decode_as_the_plain_recurrence(self, property_model, data):
        model = property_model
        sentences = data.draw(_sentences(sorted(model.vocabulary.words())[:60]))
        decoder = Decoder(model)
        for words in sentences:
            decode_as_oracle(decoder, words)
            decode_as_oracle(Decoder(model), words)

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(data=st.data(),
           words=st.lists(st.sampled_from(["the", "plan", "Zqx", "+unk+", "+end+"]),
                          min_size=1, max_size=5))
    def test_forced_ties_decode_as_the_plain_recurrence(self, tiny_model, data, words):
        # Rows of three values make equal rows, equal bscores, CONTINUE
        # equal to the best BOUNDARY, and BOUNDARY classes of different
        # bscore at equal score.
        decoder = hand_built(
            tiny_model, _drawn_row(data, K),
            lambda w_prev: tuple(_drawn_row(data, K) for _ in range(K + 1)),
            lambda token: tuple(_drawn_row(data, K + 1) for _ in range(K)),
            lambda prev: _drawn_row(data, K), lambda prev: _drawn_row(data, K))
        decode_as_oracle(decoder, words)

    def test_continue_wins_when_every_candidate_ties(self, tiny_model):
        decoder = hand_built(tiny_model, (0.0,) * K, constant(((0.0,) * K,) * (K + 1)),
                             constant(((0.0,) * (K + 1),) * K), constant((0.0,) * K),
                             constant((0.0,) * K))
        result = decode_as_oracle(decoder, ["the", "plan", "Zqx"])
        assert result.path_classes == (INTERNAL_CLASSES[0],) * 3
        assert result.path_boundaries == (True, False, False)

    def test_lowest_boundary_class_wins_a_tie_it_is_visited_after(self, tiny_model):
        # Classes 5 and 2 open the second token at the same score 0.0;
        # 5 has the higher bscore, so it is visited first, and 2's bound
        # equals that score exactly.  Class 2 must still win.
        start = tuple(1.0 if i == 5 else 0.0 if i == 2 else -10.0 for i in range(K))
        transition = tuple(-1.0 if i == 5 else 0.0 for i in range(K))
        decoder = hand_built(
            tiny_model, start, constant((transition,) * K + ((0.0,) * K,)),
            constant(((0.0,) * (K + 1),) * K), constant((0.0,) * K), constant((-100.0,) * K))
        result = decode_as_oracle(decoder, ["the", "plan"])
        assert result.log_score == 0.0
        assert result.path_classes == (INTERNAL_CLASSES[2], INTERNAL_CLASSES[0])
        assert result.path_boundaries == (True, True)

    @pytest.mark.parametrize("top_transition, winner", [(0.0, 2), (-1.0, 5)])
    def test_a_tie_for_the_best_bscore_rescans(self, tiny_model, top_transition, winner):
        # Classes 2 and 5 tie for the best bscore, so the runner-up's
        # bound equals the best one's and every class rescans.  With
        # equal candidates the lowest class, 2, keeps the win; with 2's
        # transition lower, only the rescan finds class 5.
        reads = [0]

        class CountingRow(tuple):
            def __getitem__(self, i):
                if type(i) is int and i != K:  # not the START column, nor a slice
                    reads[0] += 1
                return tuple.__getitem__(self, i)

        start = tuple(0.0 if i in (2, 5) else -10.0 for i in range(K))
        transition = tuple(top_transition if i == 2 else 0.0 for i in range(K))
        decoder = hand_built(
            tiny_model, start, constant((transition,) * K + ((0.0,) * K,)),
            constant(tuple(CountingRow((0.0,) * (K + 1)) for _ in range(K))),
            constant((0.0,) * K), constant((-100.0,) * K))
        result = decoder.decode_sentence(["the", "plan"])
        # The best predecessor alone reads one grid cell per class.
        assert reads[0] > K
        assert (result.log_score, result.path_classes, result.path_boundaries) == \
            ref_viterbi(decoder, ["the", "plan"])
        assert result.log_score == 0.0
        assert result.path_classes == (INTERNAL_CLASSES[winner], INTERNAL_CLASSES[0])
        assert result.path_boundaries == (True, True)

    @settings(derandomize=True, deadline=None, max_examples=100)
    @given(data=st.data())
    def test_all_oov_sentences_decode_as_the_plain_recurrence(self, property_model, data):
        # Every step reads the unknown-word tables, and every token one key.
        unseen = _OOV_WORDS + _SHAPED_LIKE_SENTINELS
        words = data.draw(st.lists(st.sampled_from(unseen), min_size=1, max_size=12))
        decode_as_oracle(Decoder(property_model), words)

    def test_a_word_with_whitespace_decodes_as_an_unseen_word(self, property_model):
        # No tokenizer makes one and training refuses one, but decoding
        # stays total: like any unseen word, it reads the unknown-word rows.
        decoder = Decoder(property_model)
        assert decoder._keys(["two words", "said"])[0] == \
            (True, Token(UNKNOWN_WORD, "lowerCase"))
        result = decode_as_oracle(decoder, ["two words", "said", "."])
        other = decoder.decode_sentence(["zqx", "said", "."])
        assert (result.log_score, result.path_classes, result.path_boundaries) == \
            (other.log_score, other.path_classes, other.path_boundaries)
        assert result.sentence.tokens == ["two words", "said", "."]

    def test_one_token_sentences_decode_as_the_plain_recurrence(self, property_model):
        decoder = Decoder(property_model)
        for word in sorted(property_model.vocabulary.words()) + _OOV_WORDS + _SHAPED_LIKE_SENTINELS:
            result = decode_as_oracle(decoder, [word])
            assert result.path_boundaries == (True,)

    def test_a_long_sentence_decodes_as_the_plain_recurrence(self, property_model):
        # Sentences of text the model was not trained on, run together
        # into one, so that names and unseen words recur far apart.
        words = [w for s in generate_corpus(60, seed=22) for w in s.tokens]
        assert len(words) >= 500
        assert any(word not in property_model.vocabulary for word in words)
        result = decode_as_oracle(Decoder(property_model), words)
        assert sum(result.path_boundaries) > 1


class TestGeneratedStep:
    """The recurrence is generated at import, and its source is readable."""

    def test_a_wrong_length_row_raises_with_its_source_line(self, tiny_model):
        decoder = hand_built(tiny_model, (0.0,) * K, constant(((0.0,) * K,) * (K + 1)),
                             constant(((0.0,) * (K + 1),) * K), constant((0.0,) * (K - 1)),
                             constant((0.0,) * K))
        try:
            decoder.decode_sentence(["the", "plan"])
        except ValueError:
            shown = traceback.format_exc()
        else:
            pytest.fail("a region-end row of %d cells was decoded" % (K - 1))
        unpack = ", ".join("e%d" % j for j in range(K)) + " = ends[prev_unknown][prev_tok]"
        frame = 'File "%s", line ' % _recurrence.__code__.co_filename
        assert frame in shown
        assert shown.index(unpack) > shown.index(frame)

    def test_its_source_can_be_read(self):
        source = inspect.getsource(_recurrence)
        assert source.startswith("def _recurrence(keys, ")
        for j in range(K):
            assert "        s%d += c%d\n" % (j, j) in source
        assert inspect.getsourcefile(_recurrence) == _recurrence.__code__.co_filename

# --- The model's token table ------------------------------------------------

def oov_heavy_text(n_sentences, seed):
    """Synthetic text with every third word replaced by an unseen word,
    lower-case, capitalized or with digits in turn, distinct per seed."""
    words = [w for s in generate_corpus(n_sentences, seed=seed) for w in s.tokens]
    shapes = ("zq%dx", "Zq%dx", "%d-9")
    return " ".join(shapes[i % 9 // 3] % (seed * 10**6 + i) if i % 3 == 1 else word
                    for i, word in enumerate(words))


class TestTokenTable:
    def test_holds_only_known_words_however_much_text_is_decoded(self):
        model = train(generate_corpus(200, seed=3))
        known = set(model.vocabulary.words())
        # 50 sentences, then twice as many of other words through fresh
        # decoders: the words outside the vocabulary never get an entry.
        Decoder(model).decode_document(oov_heavy_text(50, seed=101) + " +end+ +unk+ .")
        for seed in (102, 103):
            Decoder(model).decode_document(oov_heavy_text(50, seed=seed))
        for is_first_word, table in enumerate(model.token_keys):
            assert table and set(table) <= known
            for word, key in table.items():
                assert key == (False, Token(word, compute_feature(
                    word, bool(is_first_word), model.feature_config)))
