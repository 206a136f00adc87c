"""Precision/recall/F-measure scoring of decoded output against a key.

Key and response are compared as flat token sequences, so they may split
sentences differently (the annotated parser keeps a terminal inside a
region from ending the sentence; plain tokenizing does not).  As in MUC
scoring by position, a region is placed by its global token offsets,
and a response region is correct only on an exact match: same token
span, same class.  F is the weighted harmonic mean
(beta^2 + 1)PR / (beta^2 R + P); degenerate denominators score 0 so the
scorer is total.  Error rate is 100 minus the F-measure percentage.
"""

import math
from dataclasses import dataclass

from .corpus import NAME_CLASSES


class AlignmentError(ValueError):
    """Key and response tokenizations differ."""


@dataclass(frozen=True)
class Tally:
    """Counts and derived measures for one class (or overall)."""

    correct: int
    responses: int
    keys: int
    precision: float
    recall: float
    f_measure: float


@dataclass(frozen=True)
class ScoreReport:
    overall: Tally
    per_class: dict
    beta: float


def _tally(correct, responses, keys, beta):
    precision = correct / responses if responses else 0.0
    recall = correct / keys if keys else 0.0
    if precision == 0.0 and recall == 0.0:
        f_measure = 0.0
    else:
        b2 = beta * beta
        f_measure = (b2 + 1) * recall * precision / (b2 * recall + precision)
    return Tally(correct, responses, keys, precision, recall, f_measure)


def _check_alignment(key, response):
    """Raise AlignmentError unless key and response hold the same flat
    token sequence; the message places a divergence in the key."""
    key_tokens = [(i, t, word) for i, sentence in enumerate(key)
                  for t, word in enumerate(sentence.tokens)]
    response_tokens = [word for sentence in response for word in sentence.tokens]
    for (i, t, word), other in zip(key_tokens, response_tokens):
        if word != other:
            raise AlignmentError("sentence %d, token %d: key %r vs response %r"
                                 % (i + 1, t + 1, word, other))
    if len(key_tokens) != len(response_tokens):
        raise AlignmentError("token counts differ: key has %d, response has %d"
                             % (len(key_tokens), len(response_tokens)))


def _region_set(sentences):
    """(start, end, class) of every region, by global token offsets."""
    regions = set()
    offset = 0
    for sentence in sentences:
        regions.update((offset + r.start, offset + r.end, r.name_class)
                       for r in sentence.regions)
        offset += len(sentence.tokens)
    return regions


def check_beta(beta: float):
    """Raise ValueError unless beta > 0 and beta * beta is finite, the
    values for which F is a number."""
    if not (beta > 0 and math.isfinite(beta * beta)):
        raise ValueError("beta must be positive with a finite square, got %r" % (beta,))


def score(key, response, beta: float = 1.0) -> ScoreReport:
    """Score response sentences against key sentences.

    Both are sequences of AnnotatedSentence whose tokens, read in order
    across sentences, are identical; the sentence splits may differ.  A
    divergence raises AlignmentError naming the first mismatch.
    """
    check_beta(beta)
    key, response = list(key), list(response)
    _check_alignment(key, response)
    key_regions = _region_set(key)
    response_regions = _region_set(response)
    matched = key_regions & response_regions
    per_class = {}
    for nc in NAME_CLASSES:
        per_class[nc] = _tally(
            sum(1 for m in matched if m[2] == nc),
            sum(1 for m in response_regions if m[2] == nc),
            sum(1 for m in key_regions if m[2] == nc),
            beta)
    overall = _tally(len(matched), len(response_regions), len(key_regions), beta)
    return ScoreReport(overall, per_class, beta)


def error_rate(report: ScoreReport) -> float:
    """100 minus the overall F-measure expressed as a percentage."""
    return 100.0 * (1.0 - report.overall.f_measure)


def format_report(report: ScoreReport) -> str:
    """Human-readable table plus one machine-readable line per class."""
    lines = ["%-14s %8s %10s %6s %7s %7s %7s"
             % ("class", "correct", "responses", "keys", "P", "R", "F")]
    rows = [(nc, report.per_class[nc]) for nc in NAME_CLASSES]
    rows.append(("ALL", report.overall))
    for name, t in rows:
        lines.append("%-14s %8d %10d %6d %7.3f %7.3f %7.3f"
                     % (name, t.correct, t.responses, t.keys,
                        t.precision, t.recall, t.f_measure))
    for name, t in rows:
        lines.append("%s %.3f %.3f %.3f" % (name, t.precision, t.recall, t.f_measure))
    return "\n".join(lines)
