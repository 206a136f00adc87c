"""Smoothed probability estimation over the trained count tables.

Each of the three distribution families (class transition, first word
of a region, subsequent word) is a back-off chain: the most specific
conditional estimate is mixed with progressively less conditioned ones,
bottoming out at a uniform floor.  The mixing weight for each level
comes from that level's sample size and diversity:

    lambda = (1 - old_c/c) * 1/(1 + unique/c)

where c is the context's sample size at this level, unique the number
of distinct outcomes seen with it, and old_c the sample size at the
previous (more specific) level, 0 at the top.  A level with c = 0 gets
weight 0 and the mass flows past it.  Mixing happens in linear space;
callers take logs afterward.

No lambda depends on the outcome being scored, only on the chain of
contexts.  ``_weights`` therefore turns one chain into a coefficient per
level plus the residual weight of the floor, and every probability is
the sum of coefficient * (count / c) from the most specific level down,
plus residual * floor.  The scalar ``p_*`` queries weight their chain
per call.  A ``TableView`` weights every trained context of its table
set once, when it is built, and gives an untrained context the weights
of an empty one; a row query is then one lookup per context plus the
sum, filling a whole decoder row (every class, or every class pair) for
one word in one pass.  Both use the same arithmetic in the same order,
so they give bit-identical results.  ``TrainedModel.table_views`` holds
the pair of views for its main and unknown-word tables.

Queries route between the main tables and the held-out unknown-word
tables: if any word involved in the conditioning bigram is outside the
training vocabulary, the unknown tables answer, with out-of-vocabulary
words mapped to the ``+unk+`` sentinel for lookup (``route``).

The uniform floors are 1/(number of successor classes) for class
transitions and (1/|V|)(1/14) for both word families.  The word-family
floor is used exactly as written by default even though the augmented
event space (vocabulary plus the unknown sentinel, plus ``+end+`` for
the subsequent-word family) is slightly larger; pass normalized_floor
to renormalize it over the augmented space, which makes each family sum
to exactly 1.
"""

from functools import cache

from .corpus import END_OF_SENTENCE, INTERNAL_CLASSES, START_OF_SENTENCE
from .counts import CountTables, TrainedModel
from .features import NUM_WORD_FEATURES, Token, UNKNOWN_WORD

# Successor space of a class transition: the internal classes plus
# END-OF-SENTENCE.  START-OF-SENTENCE is never a successor.
SUCCESSOR_CLASSES = INTERNAL_CLASSES + (END_OF_SENTENCE,)
NUM_SUCCESSOR_CLASSES = len(SUCCESSOR_CLASSES)

# Classes a region can follow: every internal class, then the sentence start.
PREVIOUS_CLASSES = INTERNAL_CLASSES + (START_OF_SENTENCE,)


def lambda_weight(c_y: int, old_c_y: int, unique_outcomes: int) -> float:
    """Mixing weight of the direct estimate at one back-off level.

    The complement 1 - lambda goes to the rest of the chain.  c_y = 0
    is defined as 0 (skip the level), not an error.
    """
    if c_y == 0:
        return 0.0
    return (1.0 - old_c_y / c_y) / (1.0 + unique_outcomes / c_y)


def _weights(levels):
    """(coefficients, residual) of a chain of (sample_size, unique) levels.

    Levels run most-specific first.  old_c chains: each level's old_c is
    the previous level's sample size, 0 at the top.  A level's
    coefficient is the weight that reaches it times its lambda; whatever
    weight survives the chain is the residual, which lands on the floor.
    """
    coefficients = []
    weight = 1.0
    old_c = 0
    for c_y, unique in levels:
        lam = lambda_weight(c_y, old_c, unique)
        coefficients.append(weight * lam)
        weight *= 1.0 - lam
        old_c = c_y
    return coefficients, weight


def _mix(levels, floor: float) -> float:
    """Fold (count, sample_size, unique_outcomes) levels over the floor."""
    coefficients, residual = _weights([(c_y, unique) for _, c_y, unique in levels])
    total = 0.0
    for coefficient, (count, c_y, _) in zip(coefficients, levels):
        total += coefficient * _ratio(count, c_y)
    return total + residual * floor


def _level(table, context, event):
    """One empirical level: (event count, sample size, unique outcomes)."""
    return table.count(context, event), table.total(context), table.unique(context)


def _ratio(count, c_y):
    """count / c_y, or 0.0 for an unseen event; adding it is then a no-op."""
    return count / c_y if count else 0.0


def _word_floor(vocab_size):
    return 1.0 / (vocab_size * NUM_WORD_FEATURES)


# --- Per-family mixtures against an explicit table set ----------------------

def p_class_transition_from(tables: CountTables, nc: str, nc_prev: str,
                            w_prev: str) -> float:
    """Pr(NC | NC_prev, w_prev) from the given tables; always > 0.

    The floor 1/(successor count) is already a proper distribution.
    """
    levels = [
        _level(tables.class_transitions, (nc_prev, w_prev), nc),
        _level(tables.class_bigrams, (nc_prev,), nc),
        _level(tables.class_marginal, (), nc),
    ]
    return _mix(levels, 1.0 / NUM_SUCCESSOR_CLASSES)


def p_first_word_from(tables: CountTables, token: Token, nc: str, nc_prev: str,
                      vocab_size: int, normalized_floor: bool = False) -> float:
    """Pr(<w,f> as first word of an NC region | NC, NC_prev); always > 0."""
    levels = [
        _level(tables.first_words, (nc, nc_prev), token),
        _level(tables.begin_bigrams, (nc,), token),
        _level(tables.word_unigrams, (nc,), token),
    ]
    if normalized_floor:
        floor = 1.0 / ((vocab_size + 1) * NUM_WORD_FEATURES)
    else:
        floor = _word_floor(vocab_size)
    return _mix(levels, floor)


def p_next_word_from(tables: CountTables, token: Token, prev: Token, nc: str,
                     vocab_size: int, normalized_floor: bool = False) -> float:
    """Pr(<w,f> | previous <w,f>, NC); token may be the +end+ sentinel."""
    levels = [
        _level(tables.word_bigrams, (prev.word, prev.feature, nc), token),
        _level(tables.word_unigrams, (nc,), token),
    ]
    if normalized_floor:
        # +1 for the unknown sentinel, +1 outcome for <+end+, other>.
        floor = 1.0 / ((vocab_size + 1) * NUM_WORD_FEATURES + 1)
    else:
        floor = _word_floor(vocab_size)
    return _mix(levels, floor)


# --- Whole rows against one table set ---------------------------------------

class TableView:
    """One table set with every context weighted once.

    Holds the class-bigram and marginal levels of the transition chain
    and, for every context the tables were trained on, its events, its
    sample size, the coefficient of each level of its chain and its
    residual times the floor: the 72 first-word contexts (class x
    previous class), every class-transition context and every
    word-bigram context.  An untrained transition or word-bigram
    context gets the default of its previous class or class, weighted
    the same way with no events and c = 0.  Each row method returns what
    the scalar ``p_*_from`` functions would, with the default floor, for
    every class at once.
    """

    def __init__(self, tables: CountTables, vocab_size: int):
        self._word_floor = floor = _word_floor(vocab_size)
        self._marginal = self._successors(tables.class_marginal, ())
        self._class_bigrams = {nc_prev: self._successors(tables.class_bigrams, (nc_prev,))
                               for nc_prev in PREVIOUS_CLASSES}
        # Per class: the pooled levels (events, sample size, unique).
        self._begin = [self._stats(tables.begin_bigrams, (nc,)) for nc in INTERNAL_CLASSES]
        self._unigrams = [self._stats(tables.word_unigrams, (nc,))
                          for nc in INTERNAL_CLASSES]
        # Per class, per previous class: (events, sample size, the three
        # level coefficients, residual * floor).
        self._first_contexts = []
        for j, nc in enumerate(INTERNAL_CLASSES):
            row = []
            for nc_prev in PREVIOUS_CLASSES:
                events, c_f, u_f = self._stats(tables.first_words, (nc, nc_prev))
                (k1, k2, k3), residual = _weights(
                    ((c_f, u_f), self._begin[j][1:], self._unigrams[j][1:]))
                row.append((events, c_f, k1, k2, k3, residual * floor))
            self._first_contexts.append(row)
        # The level weights of a context depend on its class and its
        # (sample size, unique), never on its events, so contexts that
        # share those share one _weights call.  A model file does not
        # check context shapes, so contexts no query can reach are skipped.
        transition_weights = cache(self._transition_weights)
        next_weights = cache(self._next_weights)
        # (nc_prev, w_prev) -> (events, sample size, the three level
        # coefficients, residual * floor); an untrained context takes the
        # default of its previous class.
        self._transition_defaults = {nc_prev: ({}, 0, *transition_weights(nc_prev, 0, 0))
                                     for nc_prev in PREVIOUS_CLASSES}
        self._transitions = {}
        transitions = tables.class_transitions
        for context in transitions.contexts():
            if len(context) == 2 and context[0] in self._transition_defaults:
                events, c_t, u_t = self._stats(transitions, context)
                self._transitions[context] = (events, c_t,
                                              *transition_weights(context[0], c_t, u_t))
        # Previous token -> per class (events, sample size, the two level
        # coefficients, residual * floor); an untrained class or token
        # takes the default of the class.
        self._next_defaults = tuple(({}, 0, *next_weights(j, 0, 0))
                                    for j in range(len(INTERNAL_CLASSES)))
        class_index = {nc: j for j, nc in enumerate(INTERNAL_CLASSES)}
        self._next_contexts = {}
        bigrams = tables.word_bigrams
        for context in bigrams.contexts():
            if len(context) == 3 and context[2] in class_index:
                word, feature, nc = context
                j = class_index[nc]
                events, c_w, u_w = self._stats(bigrams, context)
                row = self._next_contexts.setdefault(Token(word, feature),
                                                     list(self._next_defaults))
                row[j] = (events, c_w, *next_weights(j, c_w, u_w))

    @staticmethod
    def _stats(table, context):
        return table.events(context), table.total(context), table.unique(context)

    @staticmethod
    def _successors(table, context):
        """(sample size, unique, [count/c per successor]) of a class level."""
        c_y = table.total(context)
        return c_y, table.unique(context), [_ratio(table.count(context, nc), c_y)
                                            for nc in SUCCESSOR_CLASSES]

    def _transition_weights(self, nc_prev, c_t, u_t):
        """(the three level coefficients, residual * floor) of a transition context."""
        c_b, u_b, _ = self._class_bigrams[nc_prev]
        c_m, u_m, _ = self._marginal
        (k1, k2, k3), residual = _weights(((c_t, u_t), (c_b, u_b), (c_m, u_m)))
        return k1, k2, k3, residual * (1.0 / NUM_SUCCESSOR_CLASSES)

    def _next_weights(self, j, c_w, u_w):
        """(the two level coefficients, residual * floor) of a word-bigram
        context of class j."""
        (k1, k2), residual = _weights(((c_w, u_w), self._unigrams[j][1:]))
        return k1, k2, residual * self._word_floor

    def transitions(self, nc_prev: str, w_prev: str):
        """[Pr(nc | nc_prev, w_prev) for nc in SUCCESSOR_CLASSES]."""
        events, c_t, k1, k2, k3, floor_term = self._transitions.get(
            (nc_prev, w_prev)) or self._transition_defaults[nc_prev]
        bigram = self._class_bigrams[nc_prev][2]
        marginal = self._marginal[2]
        row = []
        for nc, p_b, p_m in zip(SUCCESSOR_CLASSES, bigram, marginal):
            count = events.get(nc)
            total = k1 * (count / c_t) if count else 0.0
            total += k2 * p_b
            total += k3 * p_m
            row.append(total + floor_term)
        return row

    def first_words(self, token: Token):
        """rows[j][i] = Pr(token opens class j | j, PREVIOUS_CLASSES[i])."""
        rows = []
        for contexts, begin, unigrams in zip(self._first_contexts, self._begin,
                                             self._unigrams):
            p_b = _ratio(begin[0].get(token), begin[1])
            p_u = _ratio(unigrams[0].get(token), unigrams[1])
            row = []
            for events, c_f, k1, k2, k3, floor_term in contexts:
                count = events.get(token)
                total = k1 * (count / c_f) if count else 0.0
                total += k2 * p_b
                total += k3 * p_u
                row.append(total + floor_term)
            rows.append(row)
        return rows

    def next_words(self, prev: Token, token: Token):
        """[Pr(token | prev, nc) for nc in INTERNAL_CLASSES]."""
        row = []
        for (events, c_w, k1, k2, floor_term), (events_u, c_u, _) in zip(
                self._next_contexts.get(prev, self._next_defaults), self._unigrams):
            count = events.get(token)
            total = k1 * (count / c_w) if count else 0.0
            total += k2 * _ratio(events_u.get(token), c_u)
            row.append(total + floor_term)
        return row


# --- Routed public queries ---------------------------------------------------

def route(model: TrainedModel, word: str):
    """(unknown, lookup word) for one word.

    unknown is True when the word is outside the training vocabulary:
    the unknown-word tables answer any query it takes part in, and it is
    looked up as the +unk+ sentinel.  Sentinels count as known.
    """
    if model.vocabulary.known(word):
        return False, word
    return True, UNKNOWN_WORD


def _tables(model: TrainedModel, unknown: bool) -> CountTables:
    return model.unknown if unknown else model.main


def p_class_transition(nc: str, nc_prev: str, w_prev: str, model: TrainedModel) -> float:
    """Pr(NC | NC_prev, w_prev), conditioned on the word only, never its
    feature.  w_prev is +end+ exactly when NC_prev is START-OF-SENTENCE."""
    unknown, w_prev = route(model, w_prev)
    return p_class_transition_from(_tables(model, unknown), nc, nc_prev, w_prev)


def p_first_word(token: Token, nc: str, nc_prev: str, model: TrainedModel,
                 normalized_floor: bool = False) -> float:
    """Pr(token opens an NC region | NC, NC_prev)."""
    unknown, word = route(model, token.word)
    return p_first_word_from(_tables(model, unknown), Token(word, token.feature),
                             nc, nc_prev, len(model.vocabulary), normalized_floor)


def p_next_word(token: Token, prev: Token, nc: str, model: TrainedModel,
                normalized_floor: bool = False) -> float:
    """Pr(token | prev token, NC) inside a region; query the +end+ sentinel
    as token to get the region-closing probability."""
    unknown, word = route(model, token.word)
    prev_unknown, prev_word = route(model, prev.word)
    return p_next_word_from(_tables(model, unknown or prev_unknown),
                            Token(word, token.feature), Token(prev_word, prev.feature),
                            nc, len(model.vocabulary), normalized_floor)
