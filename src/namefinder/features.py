"""Deterministic word-feature computation.

Every word maps to exactly one of fourteen orthographic feature values
(two-digit number, all-caps, initial-capital, ...).  The checks run in a
fixed precedence order, so a word matching several predicates gets the
earliest one.  Tokens are handled downstream as (word, feature) pairs.

A word is what the tokenizer makes: a non-empty string with no
whitespace, so ``word.split() == [word]``.  Training refuses any other
token, and the model file writes words as they are.  The two sentinel
pseudo-words below break that rule, so no word can spell one.
"""

import re
from dataclasses import dataclass
from typing import NamedTuple

# Precedence order.  Earlier entries win when predicates overlap.
TWO_DIGIT_NUM = "twoDigitNum"
FOUR_DIGIT_NUM = "fourDigitNum"
CONTAINS_DIGIT_AND_ALPHA = "containsDigitAndAlpha"
CONTAINS_DIGIT_AND_DASH = "containsDigitAndDash"
CONTAINS_DIGIT_AND_SLASH = "containsDigitAndSlash"
CONTAINS_DIGIT_AND_COMMA = "containsDigitAndComma"
CONTAINS_DIGIT_AND_PERIOD = "containsDigitAndPeriod"
OTHER_NUM = "otherNum"
ALL_CAPS = "allCaps"
CAP_PERIOD = "capPeriod"
FIRST_WORD = "firstWord"
INIT_CAP = "initCap"
LOWER_CASE = "lowerCase"
OTHER = "other"

WORD_FEATURES = (
    TWO_DIGIT_NUM,
    FOUR_DIGIT_NUM,
    CONTAINS_DIGIT_AND_ALPHA,
    CONTAINS_DIGIT_AND_DASH,
    CONTAINS_DIGIT_AND_SLASH,
    CONTAINS_DIGIT_AND_COMMA,
    CONTAINS_DIGIT_AND_PERIOD,
    OTHER_NUM,
    ALL_CAPS,
    CAP_PERIOD,
    FIRST_WORD,
    INIT_CAP,
    LOWER_CASE,
    OTHER,
)

NUM_WORD_FEATURES = len(WORD_FEATURES)

_ALL_DIGITS = re.compile(r"^[0-9]+$")
_HAS_DIGIT = re.compile(r"[0-9]")


@dataclass(frozen=True)
class FeatureConfig:
    """Feature-computation options.

    swap_comma_period flips the roles of comma and period in the two
    digit-plus-separator features, for languages where the comma is the
    decimal point and the period groups digits.  Default is the English
    convention.
    """

    swap_comma_period: bool = False


class Token(NamedTuple):
    """A word paired with its feature value."""

    word: str
    feature: str


# Sentinel pseudo-words: END_WORD is empty and UNKNOWN_WORD holds a
# space, so no word spells either.  END_WORD closes every region (and is
# the previous word at a sentence start); UNKNOWN_WORD stands for every
# out-of-vocabulary word in the unknown-word tables.
END_WORD = ""
UNKNOWN_WORD = "unknown word"

END_TOKEN = Token(END_WORD, OTHER)


def _has_letter(word):
    return any(ch.isalpha() for ch in word)


def _letters_all_upper(word):
    letters = [ch for ch in word if ch.isalpha()]
    return bool(letters) and all(ch.isupper() for ch in letters)


def _is_init_cap(word):
    return word[0].isalpha() and word[0].isupper() and any(ch.islower() for ch in word)


def compute_feature(word: str, is_first_word: bool = False,
                    config: FeatureConfig = FeatureConfig()) -> str:
    """Return the feature value for ``word``.

    ``is_first_word`` marks the first token of a sentence; it only matters
    for capitalized words, where sentence position makes capitalization
    uninformative.  All-caps words and single initials keep their feature
    even sentence-initially.
    """
    if not word:
        raise ValueError("cannot compute a feature for an empty word")
    has_digit = _HAS_DIGIT.search(word) is not None
    has_alpha = _has_letter(word)

    if has_digit:
        if _ALL_DIGITS.match(word):
            if len(word) == 2:
                return TWO_DIGIT_NUM
            if len(word) == 4:
                return FOUR_DIGIT_NUM
        if has_alpha:
            return CONTAINS_DIGIT_AND_ALPHA
        # The comma slot is checked before the period slot; with the
        # swapped convention the period takes over the earlier slot.
        comma_char, period_char = (",", ".") if not config.swap_comma_period else (".", ",")
        if "-" in word:
            return CONTAINS_DIGIT_AND_DASH
        if "/" in word:
            return CONTAINS_DIGIT_AND_SLASH
        if comma_char in word:
            return CONTAINS_DIGIT_AND_COMMA
        if period_char in word:
            return CONTAINS_DIGIT_AND_PERIOD
        if _ALL_DIGITS.match(word):
            return OTHER_NUM
        return OTHER

    if has_alpha:
        if _letters_all_upper(word):
            # Single initial like "M." is carved out of allCaps.
            if len(word) == 2 and word[1] == ".":
                return CAP_PERIOD
            return ALL_CAPS
        if _is_init_cap(word):
            return FIRST_WORD if is_first_word else INIT_CAP
        if word[0].isalpha() and word[0].islower():
            return LOWER_CASE

    return OTHER
