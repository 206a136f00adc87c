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
maxima of j's transition and first-word cells over the internal previous
classes.  The bound is added in the candidate's order, and rounding to
nearest never decreases when an operand grows, so no float candidate
exceeds its bound, and a lower bscore never gives a higher bound.  Each
token ranks bscore once.  Class j starts from CONTINUE and evaluates
the candidate of the best previous class (the lowest among equal
bscores) with no bound test: where its bound falls below the incumbent,
the candidate cannot win, and the runner-up's bound, no higher, stops
the scan.  Only if the runner-up's bound reaches the incumbent does j
scan the previous classes in descending bscore (``_scan``), stopping at
the first bound below the incumbent.  On synthetic news text a token
evaluates the best previous class's 8 of the 64 candidate sums, and
about one token in 2,000 scans.

``decode_sentence`` is three parts: the keys (``_keys``), the
recurrence over them, and the backtrace (``_backtrace``).  The
recurrence's step is written out for the eight classes.  At import,
``_compile_recurrence`` fills the template ``_STEP`` (and ``_CLASS``
once per class) and compiles one straight-line function,
``_recurrence``: class j's score is the local s<j>; each token reads
its entry once, unpacks the previous token's part of the entry carried
from the step before (its region-end row, continuation contexts and
transition columns) and its own part (its first-word grid and unigram
pairs), then the best previous class's column of the transitions and
of the grid into the locals tt<j> and ft<j>; each class's tests above
are written out in that order and association; and each token appends
a tuple of 8 backpointers.  The last token's previous-token part is
returned for the backtrace, which reads no store.  The generated
source is kept in ``linecache`` under the file name
``<namefinder.decoder recurrence>``, so tracebacks show its lines, and
``inspect.getsource(namefinder.decoder._recurrence)`` prints it.

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
token's entry holds its rows in both roles.  As the previous token: its
transition columns, every class pair for its word, and its region-end
row, every class's Pr(END_TOKEN | previous token).  As the token read:
its first-word grid, every class pair (and the sentence start).
Columns and grids are stored by previous class, each with its maxima,
Tmax and Fmax above.  The entries live on the model's views
(``table_views``), built by the first decoder over a model and shared
by every later one: the estimator's ``TableView`` for the route flag
builds an entry in one pass, from evidence only, the first time it is
read, and keeps it in a ``RowStore``, a dict, so the recurrence reads
it by a plain subscript.  A sentence reads one entry per token, and
two more at each step whose route flags differ.  A continuation row,
one per (previous token, token) pair, is never stored: each step
starts from the previous token's shared row of log floor terms and
sums only the classes that counted the token, reading the weighted
contexts and unigram pairs of the two entries, or of the two tokens'
unknown-word entries when the route flags differ.  So a decoder keeps
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
2 x |V| keys; ``_keys`` looks a sentence's words up with one mapped
``dict.get`` (the first word in its own table) and computes only the
keys it misses.  An out-of-vocabulary word has its feature computed at
every occurrence and is never kept.
Decoding time is linear in token count.
"""

import linecache
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


# The recurrence over a sentence's keys, as a template: ``{e}`` and the
# like become the names e0, e1, ... of one local per class, and
# ``{classes}`` becomes ``_CLASS`` once per class.
_STEP = """\
def _recurrence(keys, start_row, entries):
    keys = iter(keys)
    prev_unknown, prev_tok = next(keys)
    previous, (grid, _, _) = entries[prev_unknown][prev_tok]
    opens = grid[{k}]
{start}
    backptrs = []
    append = backptrs.append
    for unknown, tok in keys:
        ({e}), contexts, cont_vec, block, ({tm}) = previous
        previous, (grid, ({fm}), pairs) = entries[unknown][tok]
        if unknown is not prev_unknown:
            # A known word next to an unseen one: the unknown-word tables
            # answer the continuation.
            _, contexts, cont_vec, _, _ = entries[True][prev_tok][0]
            pairs = entries[True][tok][1][2]
        # prev's row of log floor terms, with the mixture sum over each
        # class that counted tok.
        if pairs:
            cont_vec = list(cont_vec)
            for j, p_u in pairs:
                events, c_w, k1, k2, floor_term = contexts[j]
                count = events.get(tok)
                total = k1 * (count / c_w) if count else 0.0
                total += k2 * p_u
                cont_vec[j] = log(total + floor_term)
        {c} = cont_vec
{bscore}
        bscore = {b}
        # The best BOUNDARY predecessor (the lowest class among ties), its
        # columns of the block and the grid, and the runner-up's bscore,
        # which bounds every other one.
        ranked = sorted(bscore)
        b_top = ranked[-1]
        b_next = ranked[-2]
        top = bscore.index(b_top)
        {tt}, _ = block[top]
        {ft} = grid[top]
{classes}
        append(({p}))
        prev_unknown = unknown
        prev_tok = tok
    return ({s}), backptrs, previous
"""

# Class j's step: CONTINUE, then the best predecessor's candidate, then
# the runner-up's bound, which decides the scan.
_CLASS = """\
        s{j} += c{j}
        cand = b_top + tt{j} + ft{j}
        if cand > s{j}:
            s{j} = cand
            p{j} = top
        else:
            p{j} = -1
        if b_next + tm{j} + fm{j} >= s{j}:
            s{j}, p{j} = _scan(bscore, block, grid, {j}, tm{j}, fm{j}, s{j}, p{j})"""

_RECURRENCE_FILE = "<namefinder.decoder recurrence>"


def _scan(bscore, block, grid, j, tm, fm, best, best_i):
    """Class j's incumbent (best, best_i) after visiting the previous
    classes in descending bscore, until a bound falls below it.

    best_i is -1 for CONTINUE.  CONTINUE wins at equal score, then the
    lowest BOUNDARY class, whatever the visit order.
    """
    for i in sorted(range(_K), key=bscore.__getitem__, reverse=True):
        b = bscore[i]
        if b + tm + fm < best:
            break
        cand = b + block[i][j] + grid[i][j]
        if cand > best or (cand == best and best_i > i):
            best = cand
            best_i = i
    return best, best_i


def _compile_recurrence():
    """``_STEP`` written out for the ``_K`` classes, compiled, and its
    source kept in ``linecache`` so that tracebacks and ``inspect`` read
    it.

    The function returns (the final score of each class, one tuple of
    backpointers per token after the first, the last token's entry as a
    previous token).
    """
    def each(template, sep="\n"):
        return sep.join(template.format(j=j) for j in range(_K))

    source = _STEP.format(
        k=_K,
        start=each("    s{j} = start_row[{j}] + opens[{j}]"),
        bscore=each("        b{j} = s{j} + e{j}"),
        classes=each(_CLASS),
        **{name: each(name + "{j}", ", ")
           for name in ("e", "c", "tm", "fm", "tt", "ft", "b", "p", "s")})
    linecache.cache[_RECURRENCE_FILE] = (
        len(source), None, source.splitlines(True), _RECURRENCE_FILE)
    namespace = {"__name__": __name__, "log": math.log, "_scan": _scan}
    exec(compile(source, _RECURRENCE_FILE, "exec"), namespace)
    return namespace["_recurrence"]


_recurrence = _compile_recurrence()


class Decoder:
    """Reusable decoder over one trained model.

    The entry stores are indexed by the route flag: main tables, then
    unknown-word tables.  They and the start row are the model's views';
    the decoder holds references only.
    """

    def __init__(self, model: TrainedModel):
        self.model = model
        self.config = model.feature_config
        views = model.table_views
        self._entries = tuple(view.entries for view in views)
        self._start_row = views[False].start_row
        self._token_keys = model.token_keys

    def decode_sentence(self, words) -> DecodeResult:
        words = list(words)
        if not words:
            raise ValueError("cannot decode an empty sentence")
        keys = self._keys(words)
        scores, backptrs, last = _recurrence(keys, self._start_row, self._entries)
        return self._backtrace(words, scores, backptrs, last)

    def _keys(self, words):
        """Canonical keys: the route flag, and the token with an
        out-of-vocabulary word mapped to UNKNOWN_WORD.  The token table
        answers most words; only the keys of known words are kept."""
        later, first = self._token_keys
        keys = list(map(later.get, words))
        keys[0] = first.get(words[0])
        if None in keys:
            for i, key in enumerate(keys):
                if key is None:
                    w = words[i]
                    feature = compute_feature(w, i == 0, self.config)
                    unknown, word = route(self.model, w)
                    key = keys[i] = unknown, Token(word, feature)
                    if not unknown:
                        self._token_keys[i == 0][w] = key
        return keys

    def _backtrace(self, words, scores, backptrs, last):
        """The result of the best final class, closed at the sentence
        end by the last token's entry as a previous token, and its path
        followed back through the backpointers."""
        end_vec, _, _, block, _ = last
        best_j = 0
        best_final = scores[0] + end_vec[0] + block[0][_K]
        for j in range(1, _K):
            cand = scores[j] + end_vec[j] + block[j][_K]
            if cand > best_final:
                best_final = cand
                best_j = j
        classes = [best_j]
        bounds = []
        j = best_j
        for pointers in reversed(backptrs):
            i = pointers[j]
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
