"""Back-off mixture estimation: weights, floors, routing, normalization.

The fixed-point fixtures below are worked by hand from the mixing rule

    lambda = (1 - old_c/c) * 1/(1 + unique/c)

with old_c chaining each level's sample size into the next, and are
frozen as exact fractions.
"""

import copy
import math
import random

import pytest

from namefinder import (
    AnnotatedSentence,
    CountTables,
    Decoder,
    END_OF_SENTENCE,
    END_TOKEN,
    END_WORD,
    INTERNAL_CLASSES,
    MONEY,
    NOT_A_NAME,
    NUM_SUCCESSOR_CLASSES,
    PERSON,
    Region,
    START_OF_SENTENCE,
    Token,
    UNKNOWN_WORD,
    compute_feature,
    lambda_weight,
    p_class_transition,
    p_class_transition_from,
    p_first_word,
    p_first_word_from,
    p_next_word,
    p_next_word_from,
    train,
)
from namefinder.estimator import (
    PREVIOUS_CLASSES,
    SUCCESSOR_CLASSES,
    RowStore,
    TableView,
    route,
)
from namefinder.synthetic import generate_corpus
from reference import (
    OOV_POOL,
    WORD_POOL,
    random_corpus,
    ref_lookup,
    ref_p_class_transition,
    ref_p_first_word,
    ref_p_next_word,
    ref_tables,
)

NAN = NOT_A_NAME


class TestLambdaWeight:
    def test_worked_example(self):
        # c = 4 samples, 2 distinct outcomes, nothing at the level above:
        # (1 - 0/4) * 1/(1 + 2/4) = 2/3, leaving exactly 1/3 to back off.
        lam = lambda_weight(4, 0, 2)
        assert lam == 2 / 3
        assert 1.0 - lam == pytest.approx(1 / 3, abs=1e-15)

    def test_untrained_level_gets_zero(self):
        assert lambda_weight(0, 0, 0) == 0.0
        assert lambda_weight(0, 0, 5) == 0.0

    def test_equally_trained_levels_get_zero(self):
        # old_c = c means the level above already saw every sample.
        assert lambda_weight(6, 6, 3) == 0.0

    def test_half_discount(self):
        assert lambda_weight(8, 2, 4) == 0.5

    def test_bounds_and_monotonicity(self):
        rng = random.Random(5)
        for _ in range(2000):
            c = rng.randint(1, 10**6)
            old = rng.randint(0, c)
            unique = rng.randint(1, c)
            lam = lambda_weight(c, old, unique)
            assert 0.0 <= lam < 1.0
            if unique + 1 <= c:
                # More diversity for the same mass means less trust.
                assert lambda_weight(c, old, unique + 1) <= lam

    def test_weight_reaches_one_at_two_to_the_53(self):
        # One distinct event: below 2**53 the weight stays under 1 and the
        # floor keeps some mass; at 2**53 it rounds to 1, which is why
        # model files refuse sample sizes from there up.
        assert lambda_weight(2 ** 53 - 1, 0, 1) < 1.0
        assert lambda_weight(2 ** 53, 0, 1) == 1.0

    def test_more_data_earns_more_trust(self):
        previous = 0.0
        for c in (1, 2, 4, 8, 16, 1000):
            lam = lambda_weight(c, 0, 1)
            assert lam > previous
            previous = lam


def empty_tables():
    return CountTables()


class TestFloors:
    def test_untrained_class_transition_is_uniform(self):
        tables = empty_tables()
        assert NUM_SUCCESSOR_CLASSES == 9
        for nc in INTERNAL_CLASSES + (END_OF_SENTENCE,):
            p = p_class_transition_from(tables, nc, START_OF_SENTENCE, END_WORD)
            assert p == 1.0 / 9.0

    def test_untrained_word_families_hit_the_word_floor(self):
        tables = empty_tables()
        token = Token("w", "lowerCase")
        assert p_first_word_from(tables, token, PERSON, NAN, 100) == 1.0 / 1400.0
        assert p_next_word_from(tables, token, Token("v", "lowerCase"),
                                PERSON, 100) == 1.0 / 1400.0

    def test_normalized_floor_shrinks_cells(self):
        tables = empty_tables()
        token = Token("w", "lowerCase")
        assert p_first_word_from(tables, token, PERSON, NAN, 100,
                                 normalized_floor=True) == 1.0 / (101 * 14)
        assert p_next_word_from(tables, token, Token("v", "lowerCase"), PERSON,
                                100, normalized_floor=True) == 1.0 / (101 * 14 + 1)


def next_word_fixture():
    """Four region tokens: "come here" three times, "come hither" once."""
    t = empty_tables()
    come = ("come", "lowerCase", NAN)
    t.word_bigrams.add(come, Token("here", "lowerCase"), 3)
    t.word_bigrams.add(come, Token("hither", "lowerCase"), 1)
    return t


class TestNextWordMixture:
    def test_rare_continuation_by_hand(self):
        # lambda = 2/3 at the bigram level; the unigram and product
        # levels are trained on exactly the same 4 samples, so chaining
        # gives them weight 0 and 1/3 falls through to the floor 1/28:
        # 2/3 * 1/4 + 1/3 * 1/28 = 5/28.
        t = next_word_fixture()
        p = p_next_word_from(t, Token("hither", "lowerCase"),
                             Token("come", "lowerCase"), NAN, 2)
        assert p == pytest.approx(5 / 28, rel=1e-12)

    def test_common_continuation_by_hand(self):
        t = next_word_fixture()
        p = p_next_word_from(t, Token("here", "lowerCase"),
                             Token("come", "lowerCase"), NAN, 2)
        assert p == pytest.approx(43 / 84, rel=1e-12)

    def test_region_end_gets_floor_mass_only(self):
        t = next_word_fixture()
        p = p_next_word_from(t, END_TOKEN, Token("come", "lowerCase"), NAN, 2)
        assert p == pytest.approx(1 / 84, rel=1e-12)

    def test_observed_events_dominate_their_direct_share(self):
        t = next_word_fixture()
        p = p_next_word_from(t, Token("here", "lowerCase"),
                             Token("come", "lowerCase"), NAN, 2)
        assert p >= (2 / 3) * (3 / 4)


def first_word_fixture():
    """PERSON regions opened by John twice and Ann once from a sentence
    start, and by Bob once mid-sentence."""
    t = empty_tables()
    john = Token("John", "firstWord")
    ann = Token("Ann", "firstWord")
    bob = Token("Bob", "initCap")
    t.first_words.add((PERSON, START_OF_SENTENCE), john, 2)
    t.first_words.add((PERSON, START_OF_SENTENCE), ann, 1)
    t.first_words.add((PERSON, NAN), bob, 1)
    return t


class TestFirstWordMixture:
    def test_chained_discount_by_hand(self):
        # Level 1: c=3, u=2 -> lambda 3/5, share 2/3.
        # Level 2: c=4, old=3, u=3 -> lambda 1/7, share 1/2.
        # Levels 3 and 4 are equally trained (old = c = 4): weight 0.
        # Floor 1/42 takes the remaining 12/35.
        # Total: 2/5 + 1/35 + (12/35)(1/42) = 107/245.
        t = first_word_fixture()
        p = p_first_word_from(t, Token("John", "firstWord"), PERSON,
                              START_OF_SENTENCE, 3)
        assert p == pytest.approx(107 / 245, rel=1e-12)

    def test_unseen_context_skips_to_pooled_level(self):
        # The (PERSON, MONEY) context has no samples: lambda 0, and the
        # pooled level becomes the top with old_c = 0:
        # (4/7)(1/2) + (3/7)(1/42) = 29/98.
        t = first_word_fixture()
        p = p_first_word_from(t, Token("John", "firstWord"), PERSON, MONEY, 3)
        assert p == pytest.approx(29 / 98, rel=1e-12)


class TestNormalization:
    """Each family, per fixed table set, sums to 1 over its event space
    once the floor is spread over that space."""

    def outcome_tokens(self, model, with_end):
        words = model.vocabulary.words() + [UNKNOWN_WORD]
        from namefinder import WORD_FEATURES
        tokens = [Token(w, f) for w in words for f in WORD_FEATURES]
        if with_end:
            tokens.append(END_TOKEN)
        return tokens

    @pytest.mark.parametrize("table_set", ["main", "unknown"])
    def test_class_transitions_sum_to_one(self, tiny_model, table_set):
        tables = getattr(tiny_model, table_set)
        contexts = [
            (START_OF_SENTENCE, END_WORD),
            (NAN, "."),
            (PERSON, "Smith"),
            (MONEY, "never-seen"),
        ]
        for nc_prev, w_prev in contexts:
            total = sum(
                p_class_transition_from(tables, nc, nc_prev, w_prev)
                for nc in INTERNAL_CLASSES + (END_OF_SENTENCE,)
            )
            assert total == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("table_set", ["main", "unknown"])
    def test_first_words_sum_to_one(self, tiny_model, table_set):
        tables = getattr(tiny_model, table_set)
        size = len(tiny_model.vocabulary)
        outcomes = self.outcome_tokens(tiny_model, with_end=False)
        for nc, nc_prev in ((PERSON, START_OF_SENTENCE), (NAN, PERSON),
                            (MONEY, NAN)):
            total = sum(
                p_first_word_from(tables, token, nc, nc_prev, size,
                                  normalized_floor=True)
                for token in outcomes
            )
            assert total == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("table_set", ["main", "unknown"])
    def test_next_words_sum_to_one(self, tiny_model, table_set):
        tables = getattr(tiny_model, table_set)
        size = len(tiny_model.vocabulary)
        outcomes = self.outcome_tokens(tiny_model, with_end=True)
        for prev in (Token("John", "initCap"), Token("none", "lowerCase")):
            for nc in (PERSON, NAN):
                total = sum(
                    p_next_word_from(tables, token, prev, nc, size,
                                     normalized_floor=True)
                    for token in outcomes
                )
                assert total == pytest.approx(1.0, abs=1e-9)


class TestRouting:
    def test_route(self, tiny_model):
        # A query takes the unknown-word tables iff any word in it routes
        # as unknown.
        assert route(tiny_model, "John") == (False, "John")
        assert route(tiny_model, "said") == (False, "said")
        assert route(tiny_model, "zzz") == (True, UNKNOWN_WORD)
        assert route(tiny_model, "yyy") == (True, UNKNOWN_WORD)

    def test_end_word_routes_to_the_main_tables(self, tiny_model):
        # The sentence-start context is the main tables'.  UNKNOWN_WORD is
        # no vocabulary word, and words shaped like sentinels are words.
        assert route(tiny_model, END_WORD) == (False, END_WORD)
        for word in (UNKNOWN_WORD, "+end+", "+unk+"):
            assert route(tiny_model, word) == (True, UNKNOWN_WORD)

    def test_oov_condition_word_maps_to_sentinel(self, tiny_model):
        p = p_class_transition(PERSON, NAN, "zzz", tiny_model)
        expected = p_class_transition_from(tiny_model.unknown, PERSON, NAN,
                                           UNKNOWN_WORD)
        assert p == expected

    def test_first_word_routes_on_current_word(self, tiny_model):
        token = Token("Zebra", "initCap")
        p = p_first_word(token, PERSON, NAN, tiny_model)
        expected = p_first_word_from(
            tiny_model.unknown, Token(UNKNOWN_WORD, "initCap"), PERSON, NAN,
            len(tiny_model.vocabulary))
        assert p == expected

    def test_next_word_routes_on_either_word(self, tiny_model):
        known = Token("John", "initCap")
        oov = Token("Zebra", "initCap")
        size = len(tiny_model.vocabulary)
        assert p_next_word(oov, known, PERSON, tiny_model) == p_next_word_from(
            tiny_model.unknown, Token(UNKNOWN_WORD, "initCap"), known,
            PERSON, size)
        assert p_next_word(known, oov, PERSON, tiny_model) == p_next_word_from(
            tiny_model.unknown, known, Token(UNKNOWN_WORD, "initCap"),
            PERSON, size)
        assert p_next_word(known, known, PERSON, tiny_model) == p_next_word_from(
            tiny_model.main, known, known, PERSON, size)


class TestOracleEquivalence:
    """The recursive oracle restates the chain; values agree to 1e-12."""

    def test_random_queries_match_reference(self, rng):
        corpus = random_corpus(rng, 80)
        model = train(corpus)
        words = WORD_POOL + OOV_POOL + [END_WORD]
        features = ("lowerCase", "initCap", "firstWord", "other",
                    "twoDigitNum", "containsDigitAndPeriod")
        classes = INTERNAL_CLASSES
        size = len(model.vocabulary)
        for _ in range(2500):
            nc = rng.choice(classes)
            nc_prev = rng.choice(classes + (START_OF_SENTENCE,))
            w_prev = rng.choice(words)
            token = Token(rng.choice(words), rng.choice(features))
            prev = Token(w_prev, rng.choice(features))

            got = p_class_transition(nc, nc_prev, w_prev, model)
            tables = ref_tables(model, w_prev)
            want = ref_p_class_transition(
                tables, nc, nc_prev, ref_lookup(model, prev).word)
            assert got == pytest.approx(want, rel=1e-12)
            assert got > 0.0

            got = p_first_word(token, nc, nc_prev, model)
            tables = ref_tables(model, token.word)
            want = ref_p_first_word(tables, ref_lookup(model, token), nc,
                                    nc_prev, size)
            assert got == pytest.approx(want, rel=1e-12)
            assert got > 0.0

            got = p_next_word(token, prev, nc, model)
            tables = ref_tables(model, token.word, prev.word)
            want = ref_p_next_word(tables, ref_lookup(model, token),
                                   ref_lookup(model, prev), nc, size)
            assert got == pytest.approx(want, rel=1e-12)
            assert got > 0.0

    def test_end_token_queries_match_reference(self, rng):
        corpus = random_corpus(rng, 40)
        model = train(corpus)
        size = len(model.vocabulary)
        for _ in range(300):
            prev = Token(rng.choice(WORD_POOL + OOV_POOL), "lowerCase")
            nc = rng.choice(INTERNAL_CLASSES)
            got = p_next_word(END_TOKEN, prev, nc, model)
            tables = ref_tables(model, END_WORD, prev.word)
            want = ref_p_next_word(tables, END_TOKEN,
                                   ref_lookup(model, prev), nc, size)
            assert got == pytest.approx(want, rel=1e-12)


@pytest.fixture(scope="module")
def synthetic_model():
    return train(generate_corpus(400, seed=21))


def tables_and_view(model, table_set):
    tables = getattr(model, table_set)
    return tables, TableView(tables, len(model.vocabulary))


def log_transitions(tables, nc_prev, w_prev):
    return [math.log(p_class_transition_from(tables, nc, nc_prev, w_prev))
            for nc in SUCCESSOR_CLASSES]


def log_first_words(tables, token, size):
    return [[math.log(p_first_word_from(tables, token, nc, nc_prev, size))
             for nc_prev in PREVIOUS_CLASSES]
            for nc in INTERNAL_CLASSES]


def log_next_words(tables, prev, token, size):
    return [math.log(p_next_word_from(tables, token, prev, nc, size))
            for nc in INTERNAL_CLASSES]


def always(row):
    """A store that gives ``row`` under every key."""
    return RowStore(lambda key: row)


def next_cells(model, view, prev, token):
    """The continuation row that a decoder over model computes for
    (prev, token) from ``view``'s stores, each class's cell read as the
    log_score of a two-token path that the decoder's other rows force
    through that class.

    For class j, prev opens j (the start row and prev's START column are
    0.0 for j and -inf elsewhere), every BOUNDARY candidate is -inf (the
    first-word cells of the internal previous classes), and closing j
    after token costs 0.0 (its region-end row and the END-OF-SENTENCE
    block row).  So the path CONTINUEs, and its score, 0.0 + cell + 0.0
    + 0.0, is the cell bit for bit.  prev takes the unknown-word route
    flag, so the step reads ``view``'s stores, and token the main one,
    whose region-end row is the forced one.
    """
    k = len(INTERNAL_CLASSES)
    no_boundary = ((-math.inf,) * k,) * k
    blocks = always((no_boundary + ((0.0,) * k,), (-math.inf,) * k))
    cells = []
    for j in range(k):
        opens = tuple(0.0 if i == j else -math.inf for i in range(k))
        grids = always((tuple(row + (cell,) for row, cell in zip(no_boundary, opens)),
                        (-math.inf,) * k))
        decoder = Decoder(model)
        decoder._start_row = opens
        decoder._blocks, decoder._grids = (blocks, blocks), (grids, grids)
        decoder._ends = (always(opens), view.end_rows)
        decoder._contexts = (view.next_contexts,) * 2
        decoder._ratios = (view.unigram_ratios,) * 2
        decoder._token_keys = ({"b": (False, token)}, {"a": (True, prev)})
        result = decoder.decode_sentence(["a", "b"])
        assert result.path_classes == (INTERNAL_CLASSES[j],) * 2
        assert result.path_boundaries == (True, False)
        cells.append(result.log_score)
    return cells


class TestLogRows:
    """Every stored row, the start row, and every continuation row that a
    decoder computes, equals math.log of the scalar queries exactly (==),
    cell by cell, on both table sets, for trained and untrained contexts
    alike; a row once stored is the same object, and each row's stored
    maximum is the maximum of those logs."""

    @pytest.fixture(params=["tiny", "synthetic"])
    def model(self, request, tiny_model, synthetic_model):
        return tiny_model if request.param == "tiny" else synthetic_model

    @pytest.mark.parametrize("table_set", ["main", "unknown"])
    def test_transition_blocks_and_start_row(self, model, table_set):
        tables, view = tables_and_view(model, table_set)
        trained = set(tables.class_transitions.contexts())
        words = {w_prev for _, w_prev in trained}
        words |= {END_WORD, UNKNOWN_WORD, "never-seen"}
        seen = {True: 0, False: 0}
        for w_prev in sorted(words):
            entry = view.transition_blocks[w_prev]
            block, maxima = entry
            columns = []
            for nc_prev in INTERNAL_CLASSES:
                seen[(nc_prev, w_prev) in trained] += 1
                columns.append(log_transitions(tables, nc_prev, w_prev))
            assert [list(row) for row in block] == [list(row) for row in zip(*columns)]
            assert view.transition_blocks[w_prev] is entry
            # The decoder's bound: per internal successor, the best column.
            assert maxima == tuple(
                max(column[j] for column in columns) for j in range(len(INTERNAL_CLASSES)))
        assert seen[True] and seen[False]
        assert view.start_row == log_transitions(
            tables, START_OF_SENTENCE, END_WORD)[:len(INTERNAL_CLASSES)]

    @pytest.mark.parametrize("table_set", ["main", "unknown"])
    def test_first_word_grids(self, model, table_set):
        tables, view = tables_and_view(model, table_set)
        size = len(model.vocabulary)
        tokens = {token for _, token, _ in tables.first_words.items()}
        tokens |= {token for _, token, _ in tables.word_unigrams.items()}
        tokens |= {Token(UNKNOWN_WORD, "initCap"), Token(UNKNOWN_WORD, "fourDigitNum"),
                   Token("never-seen", "lowerCase"), END_TOKEN}
        for token in sorted(tokens):
            entry = view.first_word_grids[token]
            grid, maxima = entry
            # Every class row, the START column (index 8) included.
            assert len(grid[0]) == len(INTERNAL_CLASSES) + 1
            assert [list(row) for row in grid] == log_first_words(tables, token, size)
            assert view.first_word_grids[token] is entry
            # The decoder's bound leaves the START column out.
            assert maxima == tuple(
                max(row[:len(INTERNAL_CLASSES)]) for row in log_first_words(tables, token, size))

    @pytest.mark.parametrize("table_set", ["main", "unknown"])
    def test_next_rows(self, model, table_set):
        tables, view = tables_and_view(model, table_set)
        size = len(model.vocabulary)
        bigrams = tables.word_bigrams
        trained = set(bigrams.contexts())
        prevs = {Token(word, feature) for word, feature, _ in trained}
        prevs |= {Token("never-seen", "lowerCase"), Token(UNKNOWN_WORD, "initCap")}
        unigram_tokens = sorted({token for _, token, _ in tables.word_unigrams.items()})
        seen = {True: 0, False: 0}
        for prev in sorted(prevs):
            # Up to three events of each of the previous token's contexts,
            # plus tokens that no context saw.  No text holds END_TOKEN,
            # so no continuation step reads it.
            tokens = {Token(UNKNOWN_WORD, "lowerCase"),
                      Token("never-seen", "initCap"), *unigram_tokens[:3]}
            for nc in INTERNAL_CLASSES:
                seen[(prev.word, prev.feature, nc) in trained] += 1
                tokens.update(sorted(bigrams.events((prev.word, prev.feature, nc)))[:3])
            tokens.discard(END_TOKEN)
            for token in sorted(tokens):
                assert next_cells(model, view, prev, token) == log_next_words(
                    tables, prev, token, size)
        assert seen[True] and seen[False]

    @pytest.mark.parametrize("table_set", ["main", "unknown"])
    def test_region_end_rows(self, model, table_set):
        tables, view = tables_and_view(model, table_set)
        size = len(model.vocabulary)
        bigrams = tables.word_bigrams
        prevs = {Token(word, feature) for word, feature, _ in bigrams.contexts()}
        prevs |= {Token("never-seen", "lowerCase"), Token(UNKNOWN_WORD, "initCap")}
        closed = 0
        for prev in sorted(prevs):
            row = view.end_rows[prev]
            assert list(row) == log_next_words(tables, prev, END_TOKEN, size)
            assert view.end_rows[prev] is row
            closed += any(END_TOKEN in bigrams.events((prev.word, prev.feature, nc))
                          for nc in INTERNAL_CLASSES)
        assert closed

    def test_region_end_rows_with_a_literal_end_word(self):
        # A literal +end+ in a PERSON region is an ordinary word: its token
        # is pooled into PERSON's unigram level, and END_TOKEN into no
        # unigram level.  Every class still takes the row sum.
        corpus = generate_corpus(100, seed=8) + [AnnotatedSentence(
            ["Mr.", "+end+", "said", "."], [Region(0, 2, PERSON)])]
        model = train(corpus)
        tables, view = tables_and_view(model, "main")
        literal = Token("+end+", compute_feature("+end+"))
        assert literal in tables.word_unigrams.events((PERSON,))
        assert not any(END_TOKEN in tables.word_unigrams.events((nc,))
                       for nc in INTERNAL_CLASSES)
        mr = Token("Mr.", compute_feature("Mr.", True))
        for prev in (mr, literal, Token("said", "lowerCase")):
            assert list(view.end_rows[prev]) == log_next_words(
                tables, prev, END_TOKEN, len(model.vocabulary))
            assert next_cells(model, view, prev, literal) == log_next_words(
                tables, prev, literal, len(model.vocabulary))

    def test_cells_of_classes_that_did_not_count_the_token_are_the_floor(
            self, synthetic_model):
        tables, view = tables_and_view(synthetic_model, "main")
        size = len(synthetic_model.vocabulary)
        unigrams = [tables.word_unigrams.events((nc,)) for nc in INTERNAL_CLASSES]
        counted = {}
        for j, events in enumerate(unigrams):
            for token in events:
                counted.setdefault(token, []).append(j)
        token = next(token for token, classes in sorted(counted.items())
                     if 1 < len(classes) < len(INTERNAL_CLASSES))
        assert view.unigram_ratios[token] == tuple(
            (j, unigrams[j][token] / tables.word_unigrams.total((INTERNAL_CLASSES[j],)))
            for j in counted[token])
        floors = 0
        for prev in sorted({Token(word, feature)
                            for word, feature, _ in tables.word_bigrams.contexts()})[:40]:
            row = next_cells(synthetic_model, view, prev, token)
            assert row == log_next_words(tables, prev, token, size)
            log_floors = view.next_contexts[prev][1]
            for j in range(len(INTERNAL_CLASSES)):
                if j not in counted[token]:
                    assert row[j] == log_floors[j]
                    floors += 1
        assert floors

    def test_tokens_no_level_counted_share_one_row_per_previous_token(self, tiny_model):
        tables, view = tables_and_view(tiny_model, "main")
        said = Token("said", "lowerCase")
        assert any(tables.word_bigrams.events(("said", "lowerCase", nc))
                   for nc in INTERNAL_CLASSES)
        unseen = Token("never-seen", "lowerCase"), Token("never-seen-either", "initCap")
        rows = [next_cells(tiny_model, view, said, token) for token in unseen]
        # Both read said's row of log floor terms.
        assert rows[0] == rows[1] == list(view.next_contexts[said][1])
        for token, row in zip(unseen, rows):
            assert row == log_next_words(tables, said, token, len(tiny_model.vocabulary))

    def test_every_level_counts_as_evidence(self, tiny_model):
        # A token counted in only one first-word context, or after only
        # one previous token, must still take the row sum, not the floor
        # constant.
        tables = CountTables(**copy.deepcopy(tiny_model.main.tables()))
        only_first = Token("only-first", "lowerCase")
        only_bigram = Token("only-bigram", "lowerCase")
        tables.first_words.add((MONEY, START_OF_SENTENCE), only_first)
        tables.word_bigrams.add(("said", "lowerCase", NOT_A_NAME), only_bigram)
        tables.class_transitions.add((PERSON, "said"), END_OF_SENTENCE)
        size = len(tiny_model.vocabulary)
        view = TableView(tables, size)
        said = Token("said", "lowerCase")
        for token in (only_first, only_bigram):
            assert [list(row) for row in view.first_word_grids[token][0]] == log_first_words(
                tables, token, size)
            for prev in (said, Token("never-seen", "lowerCase")):
                assert next_cells(tiny_model, view, prev, token) == log_next_words(
                    tables, prev, token, size)
        columns = [log_transitions(tables, nc_prev, "said") for nc_prev in INTERNAL_CLASSES]
        assert [list(row) for row in view.transition_blocks["said"][0]] == [
            list(row) for row in zip(*columns)]
        assert view.first_word_grids[only_first][0] != view.first_word_grids[
            Token("never-seen", "lowerCase")][0]
