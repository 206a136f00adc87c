"""Equivalence gate: decode paths, log scores and model bytes are pinned.

A 1,000-sentence synthetic model (seed 5) decodes 300 synthetic
sentences (seed 77) plus a line of sentinels and out-of-vocabulary
words.  The sha256 of the reprs of every (path_classes,
path_boundaries, log_score), the sha256 of the model file, and the
sha256 of the decoded sentences' ``emit_annotated`` text were recorded
once and must not move: a change to caching, row building,
serialization or emission that is meant to be invisible has to leave
the digests as they are.  Each sentence goes through a fresh decoder and through one
long-lived decoder, and the two must agree.  On the same text, the
decoder's bound must skip most BOUNDARY candidates.
"""

import hashlib

import pytest

from namefinder import Decoder, INTERNAL_CLASSES, emit_annotated, serialize_model, train
from namefinder.estimator import RowStore
from namefinder.synthetic import generate_corpus

MODEL_SHA256 = "269bd9cedb0c6f35c7715eab17319b8a56de8e10bc07f0e032a62cab2ce28b22"
DECODE_SHA256 = "47b92bc3364001d26d45054e8f6dc646ff7b9991ba01489e28bdda20ef20415b"
EMIT_SHA256 = "499a2778131651b46d7da1148684a9ea7317f8f6f9f0319aaa187ce4eccc8847"

SENTINEL_LINE = ["+end+", "+unk+", "+begin+", "Zqxv", "said", "+unk+", "$9,999", "+end+"]


@pytest.fixture(scope="module")
def model():
    return train(generate_corpus(1000, seed=5))


@pytest.fixture(scope="module")
def sentences():
    return [s.tokens for s in generate_corpus(300, seed=77)] + [SENTINEL_LINE]


def test_decodes_and_model_bytes_match_the_recorded_digests(model, sentences):
    text = serialize_model(model).encode("utf-8")
    warm = Decoder(model)
    digest = hashlib.sha256()
    decoded = []
    for words in sentences:
        fresh = Decoder(model).decode_sentence(words)
        assert warm.decode_sentence(words) == fresh
        digest.update(repr((fresh.path_classes, fresh.path_boundaries,
                            fresh.log_score)).encode("utf-8") + b"\n")
        decoded.append(fresh.sentence)
    assert hashlib.sha256(text).hexdigest() == MODEL_SHA256
    assert digest.hexdigest() == DECODE_SHA256
    emitted = emit_annotated(decoded).encode("utf-8")
    assert hashlib.sha256(emitted).hexdigest() == EMIT_SHA256


def test_the_bound_skips_most_boundary_candidates(model, sentences):
    """Each BOUNDARY candidate sum reads one first-word grid cell of an
    internal previous class; the plain recurrence reads 64 per token
    after the first.  Counting those reads through the grid rows, the
    bound must leave at most a quarter of them."""
    k = len(INTERNAL_CLASSES)
    reads = [0]

    class CountingRow(tuple):
        def __getitem__(self, i):
            if i != k:  # the START column is read for the first token only
                reads[0] += 1
            return tuple.__getitem__(self, i)

    def counting_grid(token, grids):
        grid, maxima = grids[token]
        return tuple(CountingRow(row) for row in grid), maxima

    decoder = Decoder(model)
    decoder._grids = tuple(RowStore(lambda token, grids=grids: counting_grid(token, grids))
                           for grids in decoder._grids)
    steps = 0
    for words in sentences:
        assert decoder.decode_sentence(words) == Decoder(model).decode_sentence(words)
        steps += len(words) - 1
    assert 0 < reads[0] <= 16 * steps, reads[0] / steps
    # One read per class from the best predecessor, and rarely a rescan.
    assert reads[0] <= 9 * steps, reads[0] / steps
