"""Viterbi decoding of sentences into name-class regions.

One theory is carried per internal class at every token position.  A
step from token t-1 to token t either CONTINUEs the open region (same
class, one bigram factor) or closes it at a BOUNDARY (region-end factor,
class transition conditioned on the previous word, and a first-word
factor for the new region).  Scores are natural logs of the smoothed
probabilities; each mixture is computed in linear space first.

The search is exact but skips BOUNDARY candidates that cannot win
(after Esposito & Radicioni's CarpeDiem, JMLR 2009).  A candidate for
class j from previous class i sums bscore[i] (i's score plus its
region-end factor), the transition and the first-word factor.  Its
bound is (bscore[i] + Tmax[j]) + Fmax[j], Tmax[j] and Fmax[j] being the
maxima of j's transition and first-word rows over the internal previous
classes.  The bound is added in the candidate's order, and rounding to
nearest never decreases when an operand grows, so no float candidate
exceeds its bound, and a lower bscore never gives a higher bound.  Each
token ranks bscore once.  Class j starts from CONTINUE and evaluates
the candidate of the best previous class (the lowest among equal
bscores) only if that class's bound reaches the incumbent; only if the
runner-up's bound still reaches it does j scan the previous classes in
descending bscore, stopping at the first bound below the incumbent.
On synthetic news text about 6 of the 64 candidate sums per token are
evaluated, almost all from the best previous class, and about one
token in 2,000 scans.

Ties are broken deterministically, whatever the visit order: CONTINUE
beats BOUNDARY at equal score, and among BOUNDARY candidates at equal
score the lowest previous class wins, so a visited candidate replaces
the incumbent when it scores higher, or equal while the incumbent is a
BOUNDARY from a higher class.  An equal bound does not stop the scan.
The final class is the earliest in the inventory among equal scores.
Backtracing the boundary flags yields the region segmentation;
NOT-A-NAME stretches produce no Region records.

The decoder reads rows of log probabilities under canonical keys: a
route flag (main or unknown-word tables) plus the token as looked up,
with every out-of-vocabulary word mapped to ``UNKNOWN_WORD``.  A
transition block holds every class pair for one previous word, a
first-word grid every class pair (and the sentence start) for one
token, and a region-end row every class's Pr(END_TOKEN | previous
token) for one previous token; each block and grid comes with its row
maxima, Tmax and Fmax above.  They live on the model's views (``table_views``),
built by the first decoder over a model and shared by every later one:
the estimator's ``TableView`` for the route flag builds a row in one
pass, from evidence only, the first time it is read, and keeps it in a
``RowStore``, a dict, so the recurrence reads rows by plain subscripts.
A continuation row, one per (previous token, token) pair, is never
stored: each step starts from the previous token's shared row of log
floor terms and sums only the classes that counted the token, reading
the views' weighted contexts and unigram shares.  So a decoder keeps
no row of its own, and every store it reads is keyed by the
vocabulary, which bounds its memory however much text it decodes.
All out-of-vocabulary words of one feature share their rows.  No word
of the text spells a sentinel (``features``), so every step reads its
continuation row the same way, and a word shaped like one is an
ordinary word.

A word's key depends only on the word, on whether it opens the
sentence, and on the model's feature configuration.  The model's token
table (``token_keys``) keeps the key of every vocabulary word the
decoders have met, one dict per first-word flag, so it holds at most
2 x |V| keys; an out-of-vocabulary word has its feature computed at
every occurrence and is never kept.
Decoding time is linear in token count.
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


@dataclass(slots=True)
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
    """Reusable decoder over one trained model.

    Each pair of row stores is indexed by the route flag: main tables,
    then unknown-word tables.  Every store, and the start row, is the
    model's views': the transition-block and first-word-grid stores,
    whose entries are (rows, row maxima), the region-end and
    next-context stores, keyed by previous token, and the unigram-ratio
    stores, keyed by token.  The decoder holds references only.
    """

    def __init__(self, model: TrainedModel):
        self.model = model
        self.config = model.feature_config
        views = model.table_views
        self._blocks = tuple(view.transition_blocks for view in views)
        self._grids = tuple(view.first_word_grids for view in views)
        self._ends = tuple(view.end_rows for view in views)
        self._contexts = tuple(view.next_contexts for view in views)
        self._ratios = tuple(view.unigram_ratios for view in views)
        self._start_row = views[False].start_row
        self._token_keys = model.token_keys

    def decode_sentence(self, words) -> DecodeResult:
        words = list(words)
        if not words:
            raise ValueError("cannot decode an empty sentence")
        # Canonical keys: the route flag, and the token with an
        # out-of-vocabulary word mapped to UNKNOWN_WORD.  Only the keys
        # of known words are kept.
        keys = []
        for i, w in enumerate(words):
            table = self._token_keys[i == 0]
            key = table.get(w)
            if key is None:
                feature = compute_feature(w, i == 0, self.config)
                unknown, word = route(self.model, w)
                key = unknown, Token(word, feature)
                if not unknown:
                    table[w] = key
            keys.append(key)
        n = len(keys)
        blocks, grids, ends = self._blocks, self._grids, self._ends
        contexts_of, ratios = self._contexts, self._ratios
        log = math.log

        unknown, tok = keys[0]
        fw = grids[unknown][tok][0]
        scores = [self._start_row[j] + fw[j][_K] for j in range(_K)]
        backptrs = []
        for t in range(1, n):
            prev_unknown, prev_tok = keys[t - 1]
            unknown, tok = keys[t]
            end_vec = ends[prev_unknown][prev_tok]
            # prev's row of log floor terms, with the mixture sum over each
            # class that counted tok.
            route_flag = prev_unknown or unknown
            contexts, cont_vec = contexts_of[route_flag][prev_tok]
            pairs = ratios[route_flag][tok]
            if pairs:
                cont_vec = list(cont_vec)
                for j, p_u in pairs:
                    events, c_w, k1, k2, floor_term = contexts[j]
                    count = events.get(tok)
                    total = k1 * (count / c_w) if count else 0.0
                    total += k2 * p_u
                    cont_vec[j] = log(total + floor_term)
            by_target, t_max = blocks[prev_unknown][prev_tok.word]
            fw, f_max = grids[unknown][tok]
            bscore = [scores[i] + end_vec[i] for i in range(_K)]
            # The best BOUNDARY predecessor (the lowest class among ties),
            # and the runner-up's bscore, which bounds every other one.
            ranked = sorted(bscore)
            b_top = ranked[-1]
            b_next = ranked[-2]
            top = bscore.index(b_top)
            order = None
            new_scores = [0.0] * _K
            pointers = [-1] * _K
            for j in range(_K):
                # best_i is the incumbent's previous class, -1 for
                # CONTINUE.  CONTINUE wins at equal score, then the
                # lowest BOUNDARY class, whatever the visit order.
                best = scores[j] + cont_vec[j]
                best_i = -1
                tm = t_max[j]
                fm = f_max[j]
                # Same association as the candidate, so the float bound
                # is never below it, and a lower bscore's is no higher.
                if b_top + tm + fm >= best:
                    row_t = by_target[j]
                    row_f = fw[j]
                    cand = b_top + row_t[top] + row_f[top]
                    if cand > best:
                        best = cand
                        best_i = top
                    if b_next + tm + fm >= best:
                        # Another class may still win or tie: scan them
                        # all in descending bscore until the bound stops.
                        if order is None:
                            order = sorted(range(_K), key=bscore.__getitem__, reverse=True)
                        for i in order:
                            b = bscore[i]
                            if b + tm + fm < best:
                                break
                            cand = b + row_t[i] + row_f[i]
                            if cand > best or (cand == best and best_i > i):
                                best = cand
                                best_i = i
                new_scores[j] = best
                pointers[j] = best_i
            scores = new_scores
            backptrs.append(pointers)

        last_unknown, last = keys[-1]
        end_vec = ends[last_unknown][last]
        to_end = blocks[last_unknown][last.word][0][_K]
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
            i = backptrs[t - 1][j]
            bounds.append(i >= 0)
            if i >= 0:
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
