"""Equivalence gate: decode paths, log scores and model bytes are pinned.

A 1,000-sentence synthetic model (seed 5) decodes 300 synthetic
sentences (seed 77), and on its own a line of words shaped like
sentinels and out-of-vocabulary words.  The sha256 of the reprs of
every (path_classes, path_boundaries, log_score), the sha256 of the
model file, and the sha256 of the decoded sentences' ``emit_annotated``
text were recorded once per set and must not move: a change to
caching, row building, serialization or emission that is meant to be
invisible has to leave the digests as they are.  Each sentence goes
through a fresh decoder and through one long-lived decoder, and the two
must agree.  On the same text, the decoder's bound must skip most
BOUNDARY candidates.  No word of a text spells a sentinel, so a word
shaped like one decodes as any other out-of-vocabulary word.
"""

import hashlib

import pytest
from hypothesis import given, settings, strategies as st

from namefinder import (
    Decoder,
    END_WORD,
    INTERNAL_CLASSES,
    ParseError,
    UNKNOWN_WORD,
    emit_annotated,
    parse_annotated,
    serialize_model,
    tokenize,
    train,
)
from namefinder.estimator import RowStore
from namefinder.synthetic import generate_corpus

MODEL_SHA256 = "a280d2df340f40094d485ea9f8b7befb4534e255062946cb8bdfc9ae50d79e49"
DECODE_SHA256 = "4adc140144c7c7ad23bac1098de2ab3dd5ace5d5ba1c9e7a1f8fc7614df59dd1"
EMIT_SHA256 = "4e9c5374be92b96b354c7c9a0d09cc4192cb3d87fd827d679a42706a700db45d"

SENTINEL_LINE = ["+end+", "+unk+", "+begin+", "Zqxv", "said", "+unk+", "$9,999", "+end+"]
SENTINEL_DECODE_SHA256 = "af490d01232b40ed79a950a80cf64c8b99fecbff7d9a5b4b6c97a23ffea79765"
SENTINEL_EMIT_SHA256 = "eb6019de3533857ba3bcbbe1f0eda0914951f12fbcc77f18e3616586a4ffd7f6"


@pytest.fixture(scope="module")
def model():
    return train(generate_corpus(1000, seed=5))


@pytest.fixture(scope="module")
def sentences():
    return [s.tokens for s in generate_corpus(300, seed=77)]


def digests(model, sentences):
    """(decode digest, emit digest) of the sentences, each decoded by a
    fresh decoder and by one long-lived decoder, which must agree."""
    warm = Decoder(model)
    digest = hashlib.sha256()
    decoded = []
    for words in sentences:
        fresh = Decoder(model).decode_sentence(words)
        assert warm.decode_sentence(words) == fresh
        digest.update(repr((fresh.path_classes, fresh.path_boundaries,
                            fresh.log_score)).encode("utf-8") + b"\n")
        decoded.append(fresh.sentence)
    emitted = emit_annotated(decoded).encode("utf-8")
    return digest.hexdigest(), hashlib.sha256(emitted).hexdigest()


def test_decodes_and_model_bytes_match_the_recorded_digests(model, sentences):
    text = serialize_model(model).encode("utf-8")
    assert hashlib.sha256(text).hexdigest() == MODEL_SHA256
    assert digests(model, sentences) == (DECODE_SHA256, EMIT_SHA256)


def test_the_sentinel_line_matches_its_recorded_digests(model):
    assert digests(model, [SENTINEL_LINE]) == (SENTINEL_DECODE_SHA256, SENTINEL_EMIT_SHA256)


@pytest.mark.parametrize("word", ["+end+", "+unk+"])
def test_words_shaped_like_sentinels_decode_as_any_oov_word(model, word):
    decoder = Decoder(model)
    for left, right in (("said", "Smith"), ("Mr.", "said"), (None, ".")):
        shaped = [w for w in (left, word, right) if w]
        other = [w for w in (left, "+xyz+", right) if w]
        assert "+xyz+" not in model.vocabulary
        got, want = decoder.decode_sentence(shaped), decoder.decode_sentence(other)
        assert (got.path_classes, got.path_boundaries, got.log_score) == \
            (want.path_classes, want.path_boundaries, want.log_score)


# Text around the sentinels' spellings: the words of UNKNOWN_WORD, with
# every kind of whitespace between them, and markup.
_texts = st.lists(st.sampled_from(
    list("ab +-<>&;.,!?\t\n\r\u00a0\u2028\x0b") +
    ["+end+", "+unk+", "unknown", "word", "&amp;", "Mr.", '<ENAMEX TYPE="PERSON">',
     "</ENAMEX>"])).map("".join)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(text=_texts)
def test_no_token_spells_a_sentinel(text):
    tokens = [word for sentence in tokenize(text) for word in sentence]
    try:
        tokens += [word for sentence in parse_annotated(text) for word in sentence.tokens]
    except ParseError:
        pass
    assert END_WORD not in tokens and UNKNOWN_WORD not in tokens


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
