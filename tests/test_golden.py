"""Equivalence gate: decode paths, log scores and model bytes are pinned.

A 1,000-sentence synthetic model (seed 5) decodes 300 synthetic
sentences (seed 77) plus a line of sentinels and out-of-vocabulary
words.  The sha256 of the reprs of every (path_classes,
path_boundaries, log_score), and the sha256 of the model file, were
recorded once and must not move: a change to caching, row building or
serialization that is meant to be invisible has to leave both digests
as they are.  Each sentence goes through a fresh decoder and through one
long-lived decoder, and the two must agree.
"""

import hashlib

from namefinder import Decoder, serialize_model, train
from namefinder.synthetic import generate_corpus

MODEL_SHA256 = "269bd9cedb0c6f35c7715eab17319b8a56de8e10bc07f0e032a62cab2ce28b22"
DECODE_SHA256 = "47b92bc3364001d26d45054e8f6dc646ff7b9991ba01489e28bdda20ef20415b"

SENTINEL_LINE = ["+end+", "+unk+", "+begin+", "Zqxv", "said", "+unk+", "$9,999", "+end+"]


def test_decodes_and_model_bytes_match_the_recorded_digests():
    model = train(generate_corpus(1000, seed=5))
    text = serialize_model(model).encode("utf-8")
    sentences = [s.tokens for s in generate_corpus(300, seed=77)] + [SENTINEL_LINE]
    warm = Decoder(model)
    digest = hashlib.sha256()
    for words in sentences:
        fresh = Decoder(model).decode_sentence(words)
        assert warm.decode_sentence(words) == fresh
        digest.update(repr((fresh.path_classes, fresh.path_boundaries,
                            fresh.log_score)).encode("utf-8") + b"\n")
    assert hashlib.sha256(text).hexdigest() == MODEL_SHA256
    assert digest.hexdigest() == DECODE_SHA256
