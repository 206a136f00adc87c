"""Exact-match scoring: tallies, F-measure arithmetic, alignment checks."""

import pytest

from namefinder import (
    AlignmentError,
    AnnotatedSentence,
    DATE,
    Decoder,
    LOCATION,
    NAME_CLASSES,
    ORGANIZATION,
    PERSON,
    Region,
    emit_annotated,
    error_rate,
    format_report,
    parse_annotated,
    score,
)


def sent(tokens, regions=()):
    return AnnotatedSentence(tokens=list(tokens), regions=list(regions))


WORDS = ["w%d" % i for i in range(20)]


@pytest.fixture
def six_of_eight_of_ten():
    """Response finds 6 of 10 key regions and adds 2 wrong ones."""
    key = [sent(WORDS, [
        Region(0, 1, PERSON), Region(1, 2, PERSON), Region(2, 3, PERSON),
        Region(3, 4, PERSON), Region(4, 5, LOCATION), Region(5, 6, LOCATION),
        Region(6, 7, LOCATION), Region(7, 8, DATE), Region(8, 9, DATE),
        Region(9, 10, DATE),
    ])]
    response = [sent(WORDS, [
        Region(0, 1, PERSON), Region(1, 2, PERSON), Region(2, 3, PERSON),
        Region(3, 4, PERSON), Region(4, 5, LOCATION), Region(5, 6, LOCATION),
        Region(6, 7, PERSON),   # right span, wrong class
        Region(12, 13, DATE),   # span not in the key
    ])]
    return key, response


class TestArithmetic:
    def test_precision_recall_f(self, six_of_eight_of_ten):
        key, response = six_of_eight_of_ten
        report = score(key, response)
        overall = report.overall
        assert (overall.correct, overall.responses, overall.keys) == (6, 8, 10)
        assert overall.precision == 0.75
        assert overall.recall == 0.6
        assert overall.f_measure == pytest.approx(2 / 3, rel=1e-12)
        assert error_rate(report) == pytest.approx(100 / 3, rel=1e-12)

    def test_weighted_f(self, six_of_eight_of_ten):
        key, response = six_of_eight_of_ten
        # F_beta = (beta^2+1)RP / (beta^2 R + P).
        assert score(key, response, beta=0.5).overall.f_measure == \
            pytest.approx(0.625, rel=1e-12)
        assert score(key, response, beta=2.0).overall.f_measure == \
            pytest.approx(5 / 7, rel=1e-12)

    def test_per_class_tallies(self, six_of_eight_of_ten):
        key, response = six_of_eight_of_ten
        per_class = score(key, response).per_class
        person = per_class[PERSON]
        assert (person.correct, person.responses, person.keys) == (4, 5, 4)
        assert person.precision == 0.8
        assert person.recall == 1.0
        location = per_class[LOCATION]
        assert (location.correct, location.responses, location.keys) == (2, 2, 3)
        date = per_class[DATE]
        assert (date.correct, date.responses, date.keys) == (0, 1, 3)
        assert date.precision == 0.0 and date.recall == 0.0 and date.f_measure == 0.0

    def test_class_tallies_sum_to_overall(self, six_of_eight_of_ten):
        key, response = six_of_eight_of_ten
        report = score(key, response)
        assert set(report.per_class) == set(NAME_CLASSES)
        for field in ("correct", "responses", "keys"):
            total = sum(getattr(t, field) for t in report.per_class.values())
            assert total == getattr(report.overall, field)

    def test_identity_scores_one(self, tiny_corpus):
        report = score(tiny_corpus, tiny_corpus)
        assert report.overall.precision == 1.0
        assert report.overall.recall == 1.0
        assert report.overall.f_measure == 1.0
        assert error_rate(report) == 0.0

    def test_empty_response_scores_zero(self, six_of_eight_of_ten):
        key, _ = six_of_eight_of_ten
        report = score(key, [sent(WORDS)])
        assert report.overall.precision == 0.0
        assert report.overall.recall == 0.0
        assert report.overall.f_measure == 0.0
        assert error_rate(report) == 100.0

    def test_no_keys_and_no_responses(self):
        report = score([sent(["a", "b"])], [sent(["a", "b"])])
        assert report.overall == report.per_class[PERSON].__class__(
            0, 0, 0, 0.0, 0.0, 0.0)

    def test_wrong_regions_against_empty_key(self, six_of_eight_of_ten):
        _, response = six_of_eight_of_ten
        report = score([sent(WORDS)], response)
        assert report.overall.precision == 0.0
        assert report.overall.recall == 0.0

    def test_symmetry_swaps_precision_and_recall(self, six_of_eight_of_ten):
        key, response = six_of_eight_of_ten
        forward = score(key, response)
        backward = score(response, key)
        assert forward.overall.precision == backward.overall.recall
        assert forward.overall.recall == backward.overall.precision
        assert forward.overall.f_measure == pytest.approx(
            backward.overall.f_measure, rel=1e-12)

    def test_f_lies_between_precision_and_recall(self, six_of_eight_of_ten):
        key, response = six_of_eight_of_ten
        t = score(key, response).overall
        assert min(t.precision, t.recall) <= t.f_measure <= max(t.precision,
                                                                t.recall)

    def test_extra_wrong_response_lowers_precision(self, six_of_eight_of_ten):
        key, response = six_of_eight_of_ten
        worse = [sent(WORDS, response[0].regions + [Region(14, 15, DATE)])]
        assert score(key, worse).overall.precision < \
            score(key, response).overall.precision
        assert score(key, worse).overall.recall == \
            score(key, response).overall.recall

    def test_beta_must_be_positive(self, six_of_eight_of_ten):
        key, response = six_of_eight_of_ten
        for bad in (0.0, -1.0, float("nan"), float("inf"), 1e200):
            with pytest.raises(ValueError):
                score(key, response, beta=bad)


class TestAlignment:
    def test_sentence_count_mismatch(self):
        with pytest.raises(AlignmentError,
                           match="token counts differ: key has 2, response has 1"):
            score([sent(["a"]), sent(["b"])], [sent(["a"])])

    def test_sentence_splits_may_differ(self):
        # A terminal inside a region does not end the annotated sentence,
        # but it does end the untagged one.
        key = parse_annotated('<ENAMEX TYPE="ORGANIZATION">Yahoo ! Inc.</ENAMEX> said .')
        response = parse_annotated("Yahoo ! Inc. said .")
        assert (len(key), len(response)) == (1, 2)
        report = score(key, response)
        assert (report.overall.correct, report.overall.responses,
                report.overall.keys) == (0, 0, 1)
        tagged = [sent(["Yahoo", "!"]), sent(["Inc.", "said", "."], [Region(0, 1, PERSON)])]
        report = score(key, tagged)
        assert (report.overall.correct, report.overall.responses,
                report.overall.keys) == (0, 1, 1)
        found = [sent(["Yahoo", "!"], [Region(0, 2, ORGANIZATION)]),
                 sent(["Inc.", "said", "."])]
        assert score(key, found).overall.correct == 0
        assert score(found, found).overall.f_measure == 1.0

    def test_regions_are_placed_by_global_token_offsets(self):
        # Equal spans in different sentences stay different regions, and
        # a region matches across different splits at the same offsets.
        key = [sent(["a", "b"], [Region(0, 1, PERSON)]), sent(["c", "d"], [Region(0, 1, PERSON)])]
        response = [sent(["a", "b"]), sent(["c", "d"], [Region(0, 1, PERSON)])]
        overall = score(key, response).overall
        assert (overall.correct, overall.responses, overall.keys) == (1, 1, 2)
        resplit = [sent(["a"]), sent(["b", "c", "d"], [Region(1, 2, PERSON)])]
        overall = score(key, resplit).overall
        assert (overall.correct, overall.responses, overall.keys) == (1, 1, 2)

    def test_decoded_text_scores_against_its_own_markup(self, tiny_model):
        # Emitting and re-parsing a decode splits "..." and "?!" into
        # more sentences; the score must still be perfect.
        decoded = [result.sentence for result in
                   Decoder(tiny_model).decode_document("Wait... Mr. Smith said so?! Yes.")]
        key = parse_annotated(emit_annotated(decoded))
        report = score(key, decoded)
        overall = report.overall
        assert overall.correct == overall.responses == overall.keys
        assert error_rate(report) == (0.0 if overall.keys else 100.0)
        tagged = [AnnotatedSentence(s.tokens, [Region(0, 1, PERSON)]) for s in decoded]
        key = parse_annotated(emit_annotated(tagged))
        assert len(key) != len(tagged)
        assert score(key, tagged).overall.f_measure == 1.0

    def test_divergence_is_named_in_the_key_across_splits(self):
        with pytest.raises(AlignmentError, match="sentence 2, token 1: key 'c' vs response 'x'"):
            score([sent(["a", "b"]), sent(["c"])], [sent(["a"]), sent(["b", "x"])])

    def test_token_mismatch_names_first_divergence(self):
        with pytest.raises(AlignmentError) as info:
            score([sent(["a", "b", "c"]), sent(["x", "y"])],
                  [sent(["a", "b", "c"]), sent(["x", "z"])])
        assert "sentence 2, token 2" in str(info.value)
        assert "'y'" in str(info.value) and "'z'" in str(info.value)

    def test_token_count_mismatch(self):
        with pytest.raises(AlignmentError, match="token counts differ"):
            score([sent(["a", "b"])], [sent(["a", "b", "c"])])

    def test_regions_never_affect_alignment(self):
        key = [sent(["a", "b"], [Region(0, 1, PERSON)])]
        response = [sent(["a", "b"], [Region(1, 2, DATE)])]
        report = score(key, response)
        assert report.overall.correct == 0


class TestFormatReport:
    def test_machine_lines(self, six_of_eight_of_ten):
        key, response = six_of_eight_of_ten
        text = format_report(score(key, response))
        assert "ALL 0.750 0.600 0.667" in text
        assert "PERSON 0.800 1.000 0.889" in text

    def test_table_includes_every_class(self, six_of_eight_of_ten):
        key, response = six_of_eight_of_ten
        text = format_report(score(key, response))
        for nc in NAME_CLASSES:
            assert nc in text
        header = text.splitlines()[0]
        for column in ("class", "correct", "responses", "keys", "P", "R", "F"):
            assert column in header
