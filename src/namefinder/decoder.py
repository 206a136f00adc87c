"""Viterbi decoding of sentences into name-class regions.

One theory is carried per internal class at every token position.  A
step from token t-1 to token t either CONTINUEs the open region (same
class, one bigram factor) or closes it at a BOUNDARY (region-end factor,
class transition conditioned on the previous word, and a first-word
factor for the new region).  Scores are natural logs of the smoothed
probabilities; each mixture is computed in linear space first.

Ties are broken deterministically: CONTINUE beats BOUNDARY at equal
score, and earlier classes in the fixed inventory order beat later
ones.  Backtracing the boundary flags yields the region segmentation;
NOT-A-NAME stretches produce no Region records.

The decoder reads rows of log probabilities under canonical keys: a
route flag (main or unknown-word tables) plus the token as looked up,
with every out-of-vocabulary word mapped to ``+unk+``.  A transition
block holds every class pair for one previous word, a first-word grid
every class pair (and the sentence start) for one token, and a
next-word row every class for one (previous token, token) pair, the
region-closing ``+end+`` included.  The estimator's ``TableView`` for
the route flag builds each of them in one pass, from evidence only.
The views are the model's (``table_views``): built by the first decoder
over a model and shared by every later one, together with the start row
and every transition block and first-word grid any decoder has filled.
So a fresh decoder does no weighting and refills none of those; it
starts with only its own next-word rows empty.  All out-of-vocabulary
words of one feature share their rows, and a literal ``+unk+`` in the
text, which the main tables answer, never shares a row with them.
Throughput on large documents is dominated by dictionary lookups, not
mixture evaluation.  Decoding time is linear in token count.
"""

import math
from dataclasses import dataclass

from .corpus import (
    AnnotatedSentence,
    END_OF_SENTENCE,
    INTERNAL_CLASSES,
    NOT_A_NAME,
    Region,
    START_OF_SENTENCE,
    tokenize,
)
from .counts import TrainedModel
from .estimator import p_class_transition, p_first_word, p_next_word, route
from .features import END_TOKEN, END_WORD, Token, compute_feature

_K = len(INTERNAL_CLASSES)


@dataclass
class DecodeResult:
    """Decoded sentence plus the path that produced it.

    path_classes holds one internal class per token; path_boundaries is
    True where a region starts (always at token 0).  The sentence's
    regions are the non-NOT-A-NAME segments of that path.
    """

    sentence: AnnotatedSentence
    log_score: float
    path_classes: tuple
    path_boundaries: tuple


def regions_from_path(classes, boundaries):
    """Segment a (class, boundary) path into Region records."""
    regions = []
    start = 0
    n = len(classes)
    for t in range(1, n + 1):
        if t == n or boundaries[t]:
            if classes[start] != NOT_A_NAME:
                regions.append(Region(start, t, classes[start]))
            start = t
    return regions


def score_path(tokens, classes, boundaries, model: TrainedModel) -> float:
    """Log-probability of one fully specified labeled segmentation.

    Sums exactly the factors the decoder maximizes over; used to check
    that reported scores reconstruct.
    """
    log = math.log
    total = 0.0
    nc_prev, w_prev = START_OF_SENTENCE, END_WORD
    for t, token in enumerate(tokens):
        nc = classes[t]
        if t == 0 or boundaries[t]:
            if t > 0:
                total += log(p_next_word(END_TOKEN, tokens[t - 1], nc_prev, model))
            total += log(p_class_transition(nc, nc_prev, w_prev, model))
            total += log(p_first_word(token, nc, nc_prev, model))
            nc_prev = nc
        else:
            total += log(p_next_word(token, tokens[t - 1], nc, model))
        w_prev = token.word
    total += log(p_next_word(END_TOKEN, tokens[-1], classes[-1], model))
    total += log(p_class_transition(END_OF_SENTENCE, classes[-1], w_prev, model))
    return total


class Decoder:
    """Reusable decoder over one trained model, with probability caches."""

    def __init__(self, model: TrainedModel):
        self.model = model
        self.config = model.feature_config
        # Indexed by the route flag: main tables, then unknown-word tables.
        self._views = model.table_views
        self._blocks = tuple(view.transition_blocks for view in self._views)
        self._grids = tuple(view.first_word_grids for view in self._views)
        self._init_trans = self._views[False].start_row
        self._next_cache = {}

    def _trans(self, unknown, w_prev):
        """block[j][i] = log Pr(class j | class i, w_prev); block[_K] is the
        row into END-OF-SENTENCE.  Shared by every decoder over the model."""
        block = self._blocks[unknown].get(w_prev)
        if block is None:
            block = self._views[unknown].transition_block(w_prev)
        return block

    def _fw(self, unknown, token):
        """fw[j][i] = log Pr(token opens class j | j, previous class i);
        fw[j][_K] is the same after START-OF-SENTENCE.  Shared by every
        decoder over the model."""
        grid = self._grids[unknown].get(token)
        if grid is None:
            grid = self._views[unknown].first_word_grid(token)
        return grid

    def _next(self, unknown, prev, token):
        """[log Pr(token | prev, class j)]; token END_TOKEN closes the region."""
        key = (unknown, prev, token)
        cached = self._next_cache.get(key)
        if cached is None:
            cached = self._next_cache[key] = self._views[unknown].next_log_row(prev, token)
        return cached

    def decode_sentence(self, words) -> DecodeResult:
        words = list(words)
        if not words:
            raise ValueError("cannot decode an empty sentence")
        # Canonical keys: the route flag, and the token with an
        # out-of-vocabulary word mapped to +unk+.
        keys = []
        for i, w in enumerate(words):
            feature = compute_feature(w, i == 0, self.config)
            unknown, word = route(self.model, w)
            keys.append((unknown, Token(word, feature)))
        n = len(keys)

        fw = self._fw(*keys[0])
        scores = [self._init_trans[j] + fw[j][_K] for j in range(_K)]
        backptrs = []
        for t in range(1, n):
            prev_unknown, prev_tok = keys[t - 1]
            unknown, tok = keys[t]
            end_vec = self._next(prev_unknown, prev_tok, END_TOKEN)
            cont_vec = self._next(prev_unknown or unknown, prev_tok, tok)
            by_target = self._trans(prev_unknown, prev_tok.word)
            fw = self._fw(unknown, tok)
            bscore = [scores[i] + end_vec[i] for i in range(_K)]
            new_scores = [0.0] * _K
            pointers = [None] * _K
            for j in range(_K):
                # Candidate order fixes the tie-break: CONTINUE first,
                # then BOUNDARY by class-inventory order, strict > wins.
                best = scores[j] + cont_vec[j]
                best_ptr = (j, False)
                row_t = by_target[j]
                row_f = fw[j]
                for i in range(_K):
                    cand = bscore[i] + row_t[i] + row_f[i]
                    if cand > best:
                        best = cand
                        best_ptr = (i, True)
                new_scores[j] = best
                pointers[j] = best_ptr
            scores = new_scores
            backptrs.append(pointers)

        last_unknown, last = keys[-1]
        end_vec = self._next(last_unknown, last, END_TOKEN)
        to_end = self._trans(last_unknown, last.word)[_K]
        best_j = 0
        best_final = scores[0] + end_vec[0] + to_end[0]
        for j in range(1, _K):
            cand = scores[j] + end_vec[j] + to_end[j]
            if cand > best_final:
                best_final = cand
                best_j = j
        classes = [best_j]
        bounds = []
        j = best_j
        for t in range(n - 1, 0, -1):
            i, is_boundary = backptrs[t - 1][j]
            bounds.append(is_boundary)
            j = i
            classes.append(j)
        classes.reverse()
        bounds.reverse()
        path_classes = tuple(INTERNAL_CLASSES[c] for c in classes)
        path_boundaries = (True, *bounds)
        sentence = AnnotatedSentence(
            words, regions_from_path(path_classes, path_boundaries))
        return DecodeResult(sentence, best_final, path_classes, path_boundaries)

    def decode_document(self, text: str):
        return [self.decode_sentence(words) for words in tokenize(text)]
