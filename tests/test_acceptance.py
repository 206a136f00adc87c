"""Acceptance gate: ten end-to-end criteria with pinned tolerances.

Each test prints one summary line with its measured values.  The
expensive fixtures (the 5,000-sentence synthetic corpus and the model
trained on its first 4,000 sentences) are shared across criteria.
"""

import gc
import random
import statistics
import time
from fractions import Fraction

import pytest

from namefinder import (
    CountTables,
    Decoder,
    END_OF_SENTENCE,
    END_TOKEN,
    END_WORD,
    INTERNAL_CLASSES,
    NOT_A_NAME,
    START_OF_SENTENCE,
    Token,
    UNKNOWN_WORD,
    WORD_FEATURES,
    compute_feature,
    deserialize_model,
    generate_corpus,
    lambda_weight,
    p_class_transition,
    p_class_transition_from,
    p_first_word,
    p_first_word_from,
    p_next_word,
    p_next_word_from,
    score,
    serialize_model,
    train,
)
from namefinder.scorer import error_rate
from reference import (
    OOV_POOL,
    WORD_POOL,
    random_corpus,
    ref_best_path,
    ref_feature,
    ref_lookup,
    ref_p_class_transition,
    ref_p_first_word,
    ref_p_next_word,
    ref_tables,
)

SYNTH_SEED = 12345
SYNTH_F_THRESHOLD = 0.90


@pytest.fixture(scope="module")
def synth_split():
    corpus = generate_corpus(5000, seed=SYNTH_SEED)
    return corpus[:4000], corpus[4000:]


@pytest.fixture(scope="module")
def synth_model(synth_split):
    return train(synth_split[0])


def test_criterion_01_smoothing_worked_example():
    # Four bigram samples from "come" inside NOT-A-NAME: "here" three
    # times, "hither" once.  The bigram level must trust itself with
    # weight exactly 2/3 and back off with exactly 1/3.
    tables = CountTables()
    context = ("come", "lowerCase", NOT_A_NAME)
    tables.word_bigrams.add(context, Token("here", "lowerCase"), 3)
    tables.word_bigrams.add(context, Token("hither", "lowerCase"), 1)
    c = tables.word_bigrams.total(context)
    unique = tables.word_bigrams.unique(context)
    assert (c, unique) == (4, 2)
    # Exact rational arithmetic first: the formula itself gives 2/3.
    lam_exact = (1 - Fraction(0, c)) * 1 / (1 + Fraction(unique, c))
    assert lam_exact == Fraction(2, 3)
    assert 1 - lam_exact == Fraction(1, 3)
    # The float implementation returns the closest double to 2/3.
    lam = lambda_weight(c, 0, unique)
    assert lam == 2 / 3
    assert 1.0 - lam == 1.0 - 2 / 3
    print("PASS criterion 1: lambda = 2/3 exactly, back-off weight 1/3")


def test_criterion_02_decoder_exactness():
    rng = random.Random(2024)
    pool = WORD_POOL + OOV_POOL
    started = time.perf_counter()
    checked = 0
    for i in range(500):
        model = train(random_corpus(rng, rng.randint(2, 12)))
        decoder = Decoder(model)
        if i % 25 == 0:
            n = 6
        elif i % 25 in (1, 2):
            n = 5
        else:
            n = rng.randint(1, 4)
        words = [rng.choice(pool) for _ in range(n)]
        result = decoder.decode_sentence(words)
        want_score, want_classes, want_bounds = ref_best_path(words, model)
        assert result.log_score == pytest.approx(want_score, rel=1e-9)
        assert result.path_classes == want_classes
        assert result.path_boundaries == want_bounds
        checked += 1
    elapsed = time.perf_counter() - started
    assert checked == 500
    assert elapsed < 120.0
    print("PASS criterion 2: 500 random models match brute force "
          "(paths and scores) in %.1fs" % elapsed)


def test_criterion_03_normalization():
    rng = random.Random(3)
    corpus = random_corpus(rng, 45)
    model = train(corpus)
    assert len(corpus) <= 50 and len(model.vocabulary) <= 20
    started = time.perf_counter()
    size = len(model.vocabulary)
    words = model.vocabulary.words() + [UNKNOWN_WORD]
    tokens = [Token(w, f) for w in words for f in WORD_FEATURES]
    successors = INTERNAL_CLASSES + (END_OF_SENTENCE,)
    contexts_checked = 0
    for tables in (model.main, model.unknown):
        class_contexts = list(tables.class_transitions.contexts()) + [
            ("MONEY", "never-seen"), (START_OF_SENTENCE, END_WORD)]
        for nc_prev, w_prev in class_contexts:
            total = sum(p_class_transition_from(tables, nc, nc_prev, w_prev)
                        for nc in successors)
            assert total == pytest.approx(1.0, abs=1e-9), (nc_prev, w_prev)
            contexts_checked += 1
        for nc, nc_prev in tables.first_words.contexts():
            total = sum(p_first_word_from(tables, token, nc, nc_prev, size,
                                          normalized_floor=True)
                        for token in tokens)
            assert total == pytest.approx(1.0, abs=1e-9), (nc, nc_prev)
            contexts_checked += 1
        for w_prev, f_prev, nc in tables.word_bigrams.contexts():
            prev = Token(w_prev, f_prev)
            total = sum(p_next_word_from(tables, token, prev, nc, size,
                                         normalized_floor=True)
                        for token in tokens + [END_TOKEN])
            assert total == pytest.approx(1.0, abs=1e-9), (w_prev, f_prev, nc)
            contexts_checked += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    print("PASS criterion 3: %d trained contexts sum to 1 +/- 1e-9 in %.1fs"
          % (contexts_checked, elapsed))


def test_criterion_04_estimator_oracle_equivalence():
    rng = random.Random(4)
    model = train(random_corpus(rng, 80))
    size = len(model.vocabulary)
    words = WORD_POOL + OOV_POOL + [END_WORD]
    features = list(WORD_FEATURES)
    started = time.perf_counter()
    for i in range(10000):
        nc = rng.choice(INTERNAL_CLASSES)
        nc_prev = rng.choice(INTERNAL_CLASSES + (START_OF_SENTENCE,))
        token = Token(rng.choice(words), rng.choice(features))
        prev = Token(rng.choice(words), rng.choice(features))
        family = i % 3
        if family == 0:
            got = p_class_transition(nc, nc_prev, prev.word, model)
            tables = ref_tables(model, prev.word)
            want = ref_p_class_transition(tables, nc, nc_prev,
                                          ref_lookup(model, prev).word)
        elif family == 1:
            got = p_first_word(token, nc, nc_prev, model)
            tables = ref_tables(model, token.word)
            want = ref_p_first_word(tables, ref_lookup(model, token), nc,
                                    nc_prev, size)
        else:
            got = p_next_word(token, prev, nc, model)
            tables = ref_tables(model, token.word, prev.word)
            want = ref_p_next_word(tables, ref_lookup(model, token),
                                   ref_lookup(model, prev), nc, size)
        assert got == pytest.approx(want, rel=1e-12)
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    print("PASS criterion 4: 10^4 random queries match the recursive "
          "oracle to 1e-12 in %.1fs" % elapsed)


def test_criterion_05_feature_conformance():
    examples = [
        ("90", False, "twoDigitNum"),
        ("1990", False, "fourDigitNum"),
        ("A8956-67", False, "containsDigitAndAlpha"),
        ("09-96", False, "containsDigitAndDash"),
        ("11/9/89", False, "containsDigitAndSlash"),
        ("23,000.00", False, "containsDigitAndComma"),
        ("1.00", False, "containsDigitAndPeriod"),
        ("456789", False, "otherNum"),
        ("BBN", False, "allCaps"),
        ("M.", False, "capPeriod"),
        ("Sally", True, "firstWord"),
        ("Sally", False, "initCap"),
        ("can", False, "lowerCase"),
        (",", False, "other"),
        ("BBN", True, "allCaps"),
    ]
    for word, first, want in examples:
        assert compute_feature(word, is_first_word=first) == want, word
    rng = random.Random(55)
    alphabet = "aAbB.,-/019:$%üÜǅ "
    checked = 0
    while checked < 100000:
        word = "".join(rng.choice(alphabet)
                       for _ in range(rng.randint(1, 6))).strip()
        if not word:
            continue
        first = rng.random() < 0.5
        got = compute_feature(word, is_first_word=first)
        assert got in WORD_FEATURES
        assert got == ref_feature(word, first), word
        checked += 1
    print("PASS criterion 5: 15 fixed examples plus 10^5 generated "
          "strings classify identically to the precedence oracle")


def test_criterion_06_synthetic_end_to_end(synth_split, synth_model):
    training, test = synth_split
    assert len(training) == 4000 and len(test) == 1000
    started = time.perf_counter()
    decoder = Decoder(synth_model)
    response = [decoder.decode_sentence(s.tokens).sentence for s in test]
    report = score(test, response)
    elapsed = time.perf_counter() - started
    f = report.overall.f_measure
    assert f >= SYNTH_F_THRESHOLD
    assert elapsed < 300.0
    print("PASS criterion 6: synthetic 4000/1000 F = %.4f >= %.2f "
          "(error rate %.1f%%) in %.1fs"
          % (f, SYNTH_F_THRESHOLD, error_rate(report), elapsed))


def test_criterion_07_learning_curve_shape(synth_split, synth_model):
    training, test = synth_split
    started = time.perf_counter()
    f_at = {}
    for fraction in (Fraction(1), Fraction(1, 2), Fraction(1, 4),
                     Fraction(1, 8)):
        k = int(fraction * len(training) + Fraction(1, 2))
        model = synth_model if fraction == 1 else train(training[:k])
        decoder = Decoder(model)
        response = [decoder.decode_sentence(s.tokens).sentence for s in test]
        f_at[fraction] = score(test, response).overall.f_measure
    elapsed = time.perf_counter() - started
    gap = f_at[Fraction(1)] - f_at[Fraction(1, 2)]
    assert abs(gap) <= 0.02
    assert f_at[Fraction(1, 8)] < f_at[Fraction(1)]
    assert elapsed < 600.0
    print("PASS criterion 7: F(1)=%.4f F(1/2)=%.4f (gap %.4f <= 0.02), "
          "F(1/8)=%.4f < F(1), in %.1fs"
          % (f_at[Fraction(1)], f_at[Fraction(1, 2)], gap,
             f_at[Fraction(1, 8)], elapsed))


def test_criterion_08_scorer_arithmetic(tiny_corpus):
    from namefinder import AnnotatedSentence, Region

    words = ["w%d" % i for i in range(20)]
    key_classes = ["PERSON"] * 4 + ["LOCATION"] * 3 + ["DATE"] * 3
    key = [AnnotatedSentence(
        tokens=words,
        regions=[Region(i, i + 1, nc) for i, nc in enumerate(key_classes)])]
    response = [AnnotatedSentence(
        tokens=words,
        regions=[Region(i, i + 1, nc)
                 for i, nc in enumerate(key_classes[:6])]
        + [Region(6, 7, "PERSON"), Region(12, 13, "DATE")])]
    overall = score(key, response).overall
    assert (overall.correct, overall.responses, overall.keys) == (6, 8, 10)
    assert overall.precision == 0.75
    assert overall.recall == 0.6
    assert overall.f_measure == pytest.approx(2 / 3, rel=1e-12)
    assert "%.3f" % overall.f_measure == "0.667"
    identity = score(tiny_corpus, tiny_corpus).overall
    assert (identity.precision, identity.recall, identity.f_measure) == \
        (1.0, 1.0, 1.0)
    empty = [AnnotatedSentence(tokens=s.tokens, regions=[])
             for s in tiny_corpus]
    degenerate = score(tiny_corpus, empty).overall
    assert (degenerate.precision, degenerate.recall, degenerate.f_measure) == \
        (0.0, 0.0, 0.0)
    print("PASS criterion 8: 6/8/10 fixture gives P=0.750 R=0.600 F=0.667; "
          "identity and empty-response cases hold")


def test_criterion_09_throughput_and_linearity(synth_model):
    token_stream = []
    chunk_seed = 777
    text_parts = []
    size = 0
    while size < 1_100_000:
        corpus = generate_corpus(2000, seed=chunk_seed)
        chunk_seed += 1
        for s in corpus:
            line = " ".join(s.tokens)
            text_parts.append(line)
            token_stream.extend(s.tokens)
            size += len(line) + 1

    def take_bytes(n):
        out, used = [], 0
        for line in text_parts:
            if used >= n:
                break
            out.append(line)
            used += len(line) + 1
        return "\n".join(out)

    def take_tokens(n):
        out, used = [], 0
        for line in text_parts:
            if used >= n:
                break
            out.append(line)
            used += line.count(" ") + 1
        return "\n".join(out)

    def timed_decode(text):
        decoder = Decoder(synth_model)
        gc.collect()
        begin = time.perf_counter()
        decoder.decode_document(text)
        return time.perf_counter() - begin

    text_1mb = take_bytes(1_000_000)
    megabytes = len(text_1mb.encode("utf-8")) / 1e6
    assert megabytes >= 1.0
    elapsed = timed_decode(text_1mb)
    throughput = megabytes / (elapsed / 3600.0)
    assert throughput >= 60.0
    assert elapsed < 120.0

    # Sizes alternate and the gate takes the median of the per-pair
    # ratios, so a drift in the machine's speed between timings enters
    # one pair, not the gate.
    ratios = []
    for n in (10_000, 100_000):
        small, large = take_tokens(n), take_tokens(2 * n)
        pairs = [(timed_decode(small), timed_decode(large)) for _ in range(3)]
        ratios.append(statistics.median(t_large / t_small for t_small, t_large in pairs))
        assert ratios[-1] <= 2.5, (n, pairs)
    print("PASS criterion 9: %.2f MB decoded in %.1fs = %d MB/hr >= 60; "
          "time(2n)/time(n) = %.2f, %.2f <= 2.5"
          % (megabytes, elapsed, throughput, ratios[0], ratios[1]))


def test_criterion_10_persistence(synth_model):
    text = serialize_model(synth_model)
    reloaded = deserialize_model(text)
    assert serialize_model(reloaded) == text

    fixture = generate_corpus(100, seed=404)
    plain = "\n".join(" ".join(s.tokens) for s in fixture)
    original_out = Decoder(synth_model).decode_document(plain)
    reloaded_out = Decoder(reloaded).decode_document(plain)
    assert len(original_out) == 100
    assert reloaded_out == original_out
    print("PASS criterion 10: double serialization is byte-identical and "
          "the reloaded model decodes 100 sentences identically")
