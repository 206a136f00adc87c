"""Word-feature classification tests.

The fourteen-way classification drives every emission estimate, so the
fixed examples below are frozen exactly and the precedence order is
checked against an independent predicate-list oracle on generated
strings.
"""

import pytest

from namefinder import (
    ALL_CAPS,
    CAP_PERIOD,
    CONTAINS_DIGIT_AND_ALPHA,
    CONTAINS_DIGIT_AND_COMMA,
    CONTAINS_DIGIT_AND_DASH,
    CONTAINS_DIGIT_AND_PERIOD,
    CONTAINS_DIGIT_AND_SLASH,
    END_TOKEN,
    FIRST_WORD,
    FOUR_DIGIT_NUM,
    INIT_CAP,
    LOWER_CASE,
    NUM_WORD_FEATURES,
    OTHER,
    OTHER_NUM,
    TWO_DIGIT_NUM,
    FeatureConfig,
    WORD_FEATURES,
    compute_feature,
)
from reference import ref_feature

SWAPPED = FeatureConfig(swap_comma_period=True)

FIXED_EXAMPLES = [
    ("90", False, TWO_DIGIT_NUM),
    ("1990", False, FOUR_DIGIT_NUM),
    ("A8956-67", False, CONTAINS_DIGIT_AND_ALPHA),
    ("09-96", False, CONTAINS_DIGIT_AND_DASH),
    ("11/9/89", False, CONTAINS_DIGIT_AND_SLASH),
    ("23,000.00", False, CONTAINS_DIGIT_AND_COMMA),
    ("1.00", False, CONTAINS_DIGIT_AND_PERIOD),
    ("456789", False, OTHER_NUM),
    ("BBN", False, ALL_CAPS),
    ("M.", False, CAP_PERIOD),
    ("Sally", True, FIRST_WORD),
    ("Sally", False, INIT_CAP),
    ("can", False, LOWER_CASE),
    (",", False, OTHER),
    ("BBN", True, ALL_CAPS),
]


@pytest.mark.parametrize("word,first,expected", FIXED_EXAMPLES)
def test_fixed_examples(word, first, expected):
    assert compute_feature(word, is_first_word=first) == expected


def test_feature_inventory():
    assert NUM_WORD_FEATURES == 14
    assert len(WORD_FEATURES) == 14
    assert len(set(WORD_FEATURES)) == 14


def test_empty_word_rejected():
    with pytest.raises(ValueError):
        compute_feature("")


def test_sentinel_tokens_have_other_feature():
    assert END_TOKEN.feature == OTHER
    # The general rules give sentinel-shaped words "other" in either
    # position; "+begin+" is no sentinel but is shaped like one.
    for word in ("+end+", "+begin+", "+unk+"):
        for is_first_word in (False, True):
            assert compute_feature(word, is_first_word) == OTHER


def test_first_word_position_only_demotes_init_cap():
    # Sentence-initial position replaces initCap with firstWord and
    # changes nothing else.
    assert compute_feature("Sally", is_first_word=True) == FIRST_WORD
    assert compute_feature("BBN", is_first_word=True) == ALL_CAPS
    assert compute_feature("M.", is_first_word=True) == CAP_PERIOD
    assert compute_feature("can", is_first_word=True) == LOWER_CASE
    assert compute_feature("90", is_first_word=True) == TWO_DIGIT_NUM


def test_digit_checks_are_ascii_only():
    # Non-ASCII numerals do not count as digits, and lowerCase demands a
    # lowercase letter in first position.
    assert compute_feature("١٢") == OTHER
    assert compute_feature("٤x") == OTHER
    assert compute_feature("x٤") == LOWER_CASE


def test_cap_period_requires_exact_shape():
    assert compute_feature("M.") == CAP_PERIOD
    assert compute_feature("Mr.") == INIT_CAP
    assert compute_feature("MR.") == ALL_CAPS
    assert compute_feature("m.") == LOWER_CASE
    # allCaps needs only that every letter is a capital.
    assert compute_feature(".M") == ALL_CAPS


def test_init_cap_needs_a_lowercase_letter():
    assert compute_feature("AB-C") == ALL_CAPS
    assert compute_feature("Ab-C") == INIT_CAP
    assert compute_feature("A.B.") == ALL_CAPS


def test_swap_exchanges_comma_and_period_classes():
    assert compute_feature("23.000,00", config=SWAPPED) == CONTAINS_DIGIT_AND_COMMA
    assert compute_feature("1,00", config=SWAPPED) == CONTAINS_DIGIT_AND_PERIOD
    # Unswapped, the comma check comes first, so a string holding both
    # separators still lands in the comma class.
    assert compute_feature("23.000,00") == CONTAINS_DIGIT_AND_COMMA
    assert compute_feature("1,00") == CONTAINS_DIGIT_AND_COMMA
    assert compute_feature("1.00") == CONTAINS_DIGIT_AND_PERIOD


_MIRROR = str.maketrans(",.", ".,")


def test_swap_mirrors_default_classification(rng):
    # On numeral-shaped strings, classifying under the swapped convention
    # is the same as mirroring the separators and classifying under the
    # default one.  (Letter features such as capPeriod test a literal
    # period either way, so letters stay out of this universe.)
    alphabet = "0123456789.,-/"
    for _ in range(2000):
        word = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 6)))
        mirrored = word.translate(_MIRROR)
        assert compute_feature(word, config=SWAPPED) == compute_feature(mirrored)


ALPHABET = "aAbB.,-/019:$%üÜǅ "


def test_generated_strings_match_reference_oracle(rng):
    for _ in range(20000):
        word = "".join(
            rng.choice(ALPHABET) for _ in range(rng.randint(1, 6))
        ).strip()
        if not word:
            continue
        first = rng.random() < 0.5
        got = compute_feature(word, is_first_word=first)
        assert got in WORD_FEATURES
        assert got == ref_feature(word, first), word
