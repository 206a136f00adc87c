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
contexts, and only on their sample sizes and unique counts.  ``weigh``
therefore turns one context and the pooled levels below it into a
coefficient per level plus the residual weight of the floor, and each
family has one sum (``transition_row``, ``first_word_rows``,
``next_word_cell``) that adds coefficient * (count / c) from the most
specific level down, plus residual * floor, for every weighted context
or successor it is given; the next-word sum takes one context at a
time, since a next-word row sums only the classes with evidence (the
decoder's continuation step repeats it inline).  A ``TableView`` weights a
trained context the first time a row reads it and passes whole rows to
the sums; ``TrainedModel.table_views`` holds the pair of views for its
main and unknown-word tables.  The scalar ``p_*_from`` functions weigh
the one context a query needs and read the single cell of the same
sum, so both give bit-identical results.

The decoder works in natural logs, and a ``TableView`` also builds its
rows in logs, from evidence only.  A cell whose token (or successor)
has no count in its context nor in any pooled level below it sums to
0.0 + k * 0.0 + ... + residual * floor, which is exactly residual *
floor, so its log is a constant of the context.  The view computes the
constants of the first-word contexts and of the untrained defaults
once, and a previous token's constants when its entry is built.  A class's word-unigram level sums its first-word
chain, and every event but the closing ``END_TOKEN`` of its next-word
chain (``CountTables``), so a class whose unigram level did not count a
word's token has no count of it at any level of either chain.
A token's entry pairs each class that counted it with the token's
unigram count / c in that class (its unigram pairs); a first-word grid,
and the decoder's continuation row, start as the row of log constants,
and only those classes go through the row sums and ``math.log``, a
continuation cell reading its unigram term from the pair.  A token no
class counted gets the constant row itself, a shared object.  A
region-end row sums every class.

A view keeps its rows in one ``RowStore``, ``entries``: a dict whose
``__missing__`` builds a token's entry and keeps it, the one row memo,
shared by every decoder over the model.  An entry holds what a decoder
step reads of its token in both roles, built together the first time
either is read: as a previous token, its region-end row, Pr(END_TOKEN |
prev, nc) per class, its weighted word-bigram contexts and its
transition columns; as the token read, its first-word grid with its
maxima, and its unigram pairs.  The decoder maps every
out-of-vocabulary word to ``UNKNOWN_WORD`` before it asks, so a view
holds at most (|V| + 1) x 14 entries and needs no eviction.  No row is
keyed by a pair of tokens: the decoder computes each continuation row
as it steps, from the previous token's weighted contexts and the
token's pairs, so the entries hold all the rows it reads.

Queries route between the main tables and the held-out unknown-word
tables: if any word involved in the conditioning bigram is outside the
training vocabulary, the unknown tables answer, with out-of-vocabulary
words mapped to ``UNKNOWN_WORD`` for lookup (``route``).

The uniform floors are 1/(number of successor classes) for class
transitions and (1/|V|)(1/14) for both word families.  The word-family
floor is used exactly as written by default even though the augmented
event space (vocabulary plus ``UNKNOWN_WORD``, plus ``END_TOKEN`` for
the subsequent-word family) is slightly larger; pass normalized_floor
to ``p_first_word_from`` or ``p_next_word_from`` to renormalize it over
the augmented space, which makes each family sum to exactly 1.
"""

import math

from .corpus import END_OF_SENTENCE, INTERNAL_CLASSES, START_OF_SENTENCE
from .counts import CountTables, PREVIOUS_CLASSES, TrainedModel
from .features import END_TOKEN, END_WORD, NUM_WORD_FEATURES, Token, UNKNOWN_WORD

# Successor space of a class transition: the internal classes plus
# END-OF-SENTENCE.  START-OF-SENTENCE is never a successor.
SUCCESSOR_CLASSES = INTERNAL_CLASSES + (END_OF_SENTENCE,)
NUM_SUCCESSOR_CLASSES = len(SUCCESSOR_CLASSES)
_K = len(INTERNAL_CLASSES)

# The class-transition floor: uniform over the successors.
TRANSITION_FLOOR = 1.0 / NUM_SUCCESSOR_CLASSES


def lambda_weight(c_y: int, old_c_y: int, unique_outcomes: int) -> float:
    """Mixing weight of the direct estimate at one back-off level.

    The complement 1 - lambda goes to the rest of the chain.  c_y = 0
    is defined as 0 (skip the level), not an error.
    """
    if c_y == 0:
        return 0.0
    return (1.0 - old_c_y / c_y) / (1.0 + unique_outcomes / c_y)


def weigh(context, pooled, floor: float):
    """(events, sample size, coefficient per level, residual * floor) of
    one context.

    context is the most specific level of a chain as (events, sample
    size, unique); pooled holds the less specific levels below it, each
    (payload, sample size, unique), in back-off order.  Only sample
    sizes and unique counts enter the weights.  old_c chains: each
    level's old_c is the previous level's sample size, 0 at the top.  A
    level's coefficient is the weight that reaches it times its lambda;
    whatever weight survives the chain lands on the floor.
    """
    weighted = [context[0], context[1]]
    weight = 1.0
    old_c = 0
    for _, c_y, unique in (context, *pooled):
        lam = lambda_weight(c_y, old_c, unique)
        weighted.append(weight * lam)
        weight *= 1.0 - lam
        old_c = c_y
    weighted.append(weight * floor)
    return tuple(weighted)


def transition_row(context, successors, bigram, marginal):
    """[Pr(nc | context) for nc in successors].

    context is a weighted class-transition context; bigram and marginal
    are its pooled class levels, each ([count / c per successor], sample
    size, unique) over the same successors.
    """
    events, c_t, k1, k2, k3, floor_term = context
    row = []
    for nc, p_b, p_m in zip(successors, bigram[0], marginal[0]):
        count = events.get(nc)
        total = k1 * (count / c_t) if count else 0.0
        total += k2 * p_b
        total += k3 * p_m
        row.append(total + floor_term)
    return row


def first_word_rows(token: Token, classes):
    """Per class, [Pr(token opens the class | its context) per context].

    classes holds, per class, (weighted first-word contexts, begin-bigram
    level, word-unigram level), each level (events, sample size, unique).
    """
    rows = []
    for contexts, begin, unigrams in classes:
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


def next_word_cell(token: Token, context, unigrams):
    """Pr(token | context) for one weighted word-bigram context and its
    class's word-unigram level."""
    events, c_w, k1, k2, floor_term = context
    count = events.get(token)
    total = k1 * (count / c_w) if count else 0.0
    count = unigrams[0].get(token)
    total += k2 * (count / unigrams[1] if count else 0.0)  # _ratio, inlined
    return total + floor_term


def _stats(table, context):
    """(events, sample size, unique outcomes) of one context."""
    return table.events(context), table.total(context), table.unique(context)


def _class_level(table, context, successors):
    """([count / c per successor], sample size, unique) of a pooled
    class-transition level."""
    events, c_y, unique = _stats(table, context)
    return [_ratio(events.get(nc), c_y) for nc in successors], c_y, unique


def _ratio(count, c_y):
    """count / c_y, or 0.0 for an unseen event; adding it is then a no-op."""
    return count / c_y if count else 0.0


def _word_floor(vocab_size):
    return 1.0 / (vocab_size * NUM_WORD_FEATURES)


# --- Single probabilities against an explicit table set ---------------------

def p_class_transition_from(tables: CountTables, nc: str, nc_prev: str,
                            w_prev: str) -> float:
    """Pr(NC | NC_prev, w_prev) from the given tables; always > 0.

    The floor 1/(successor count) is already a proper distribution.
    """
    bigram = _class_level(tables.class_bigrams, (nc_prev,), (nc,))
    marginal = _class_level(tables.class_marginal, (), (nc,))
    context = weigh(_stats(tables.class_transitions, (nc_prev, w_prev)),
                    (bigram, marginal), TRANSITION_FLOOR)
    return transition_row(context, (nc,), bigram, marginal)[0]


def p_first_word_from(tables: CountTables, token: Token, nc: str, nc_prev: str,
                      vocab_size: int, normalized_floor: bool = False) -> float:
    """Pr(<w,f> as first word of an NC region | NC, NC_prev); always > 0."""
    if normalized_floor:
        floor = 1.0 / ((vocab_size + 1) * NUM_WORD_FEATURES)
    else:
        floor = _word_floor(vocab_size)
    begin = _stats(tables.begin_bigrams, (nc,))
    unigrams = _stats(tables.word_unigrams, (nc,))
    context = weigh(_stats(tables.first_words, (nc, nc_prev)), (begin, unigrams), floor)
    return first_word_rows(token, [([context], begin, unigrams)])[0][0]


def p_next_word_from(tables: CountTables, token: Token, prev: Token, nc: str,
                     vocab_size: int, normalized_floor: bool = False) -> float:
    """Pr(<w,f> | previous <w,f>, NC); token may be END_TOKEN."""
    if normalized_floor:
        # +1 for UNKNOWN_WORD, +1 outcome for END_TOKEN.
        floor = 1.0 / ((vocab_size + 1) * NUM_WORD_FEATURES + 1)
    else:
        floor = _word_floor(vocab_size)
    unigrams = _stats(tables.word_unigrams, (nc,))
    context = weigh(_stats(tables.word_bigrams, (prev.word, prev.feature, nc)),
                    (unigrams,), floor)
    return next_word_cell(token, context, unigrams)


# --- Decoder log rows against one table set ---------------------------------

class RowStore(dict):
    """Rows under their keys.  A missing row is built by ``build(key)``
    and kept, so a hit is a plain subscript and a stored row never
    changes."""

    def __init__(self, build):
        super().__init__()
        self.build = build

    def __missing__(self, key):
        row = self[key] = self.build(key)
        return row


class TableView:
    """One table set, for decoder log rows, weighted as rows are read.

    It weights the pooled levels of each chain, the 72 first-word
    contexts (class x previous class) and, per previous class or class,
    the default of an untrained transition or word-bigram context: the
    weights of a context with no events and c = 0.  A trained
    class-transition or word-bigram context is weighted the first time a
    row reads it; an untrained one costs a lookup and takes its default.
    A row holds, for every class at once, the log of what the scalar
    ``p_*_from`` functions give with the default floor, built from
    evidence only (see the module docstring).  A token's entry,
    ``entries[token]``, is (as_previous, as_token):
      as_previous  (region-end row, weighted next-word contexts, the log
                    row of their floor terms, transition columns, their
                    maxima)
      as_token     (first-word grid, its maxima, unigram pairs)
    Transition columns and grids are stored by previous class i:
      start_row[j]              (nc_j | START-OF-SENTENCE, END_WORD)
      as_previous[0][j]         (END_TOKEN | prev, nc_j)
      as_previous[3][i][j]      (SUCCESSOR_CLASSES[j] | nc_i, prev.word)
      as_token[0][i][j]         (token opens nc_j | nc_j, PREVIOUS_CLASSES[i])
    where nc_j is INTERNAL_CLASSES[j].  An untrained (nc_i, prev.word)
    column is nc_i's shared default column.  The maxima of each
    internal successor or class j over the internal previous classes i
    (the START column left out) bound the decoder's BOUNDARY
    candidates:
      as_previous[4][j]         max_i as_previous[3][i][j]
      as_token[1][j]            max_i as_token[0][i][j]
    The contexts hold the token's weighted word-bigram context of each
    class, and their floor row is the shared next-word row of every
    token no class counted.  The unigram pairs hold a (j, count / c)
    pair for each class j whose word-unigram level counted the token,
    in class order.  The decoder computes each continuation row from
    the previous token's contexts and the token's pairs.  Every decoder
    over the view shares the entries.  Their builder closes over the
    weighted levels, not the view, so no reference cycle keeps a
    discarded view alive.
    """

    def __init__(self, tables: CountTables, vocab_size: int):
        log = math.log
        floor = _word_floor(vocab_size)
        marginal = _class_level(tables.class_marginal, (), SUCCESSOR_CLASSES)
        class_bigrams = {
            nc_prev: _class_level(tables.class_bigrams, (nc_prev,), SUCCESSOR_CLASSES)
            for nc_prev in PREVIOUS_CLASSES}
        unigram_levels = [_stats(tables.word_unigrams, (nc,)) for nc in INTERNAL_CLASSES]
        # Per class: (its context per previous class, begin level, unigram
        # level), and the log row of a token its unigram level did not count.
        first = []
        first_log_floors = []
        for nc, unigrams in zip(INTERNAL_CLASSES, unigram_levels):
            begin = _stats(tables.begin_bigrams, (nc,))
            contexts = [weigh(_stats(tables.first_words, (nc, nc_prev)), (begin, unigrams),
                              floor)
                        for nc_prev in PREVIOUS_CLASSES]
            first.append((contexts, begin, unigrams))
            first_log_floors.append(tuple(log(context[-1]) for context in contexts))

        # The log column of each (nc_prev, w_prev): one row sum over its
        # weighted context, or the previous class's shared default column.
        transition_events = tables.class_transitions.events

        def log_transitions(nc_prev, events):
            context = weigh((events, sum(events.values()), len(events)),
                            (class_bigrams[nc_prev], marginal), TRANSITION_FLOOR)
            return [log(p) for p in transition_row(
                context, SUCCESSOR_CLASSES, class_bigrams[nc_prev], marginal)]

        log_transition_defaults = {nc_prev: log_transitions(nc_prev, {})
                                   for nc_prev in PREVIOUS_CLASSES}

        def transition_column(nc_prev, w_prev):
            events = transition_events((nc_prev, w_prev))
            if not events:
                return log_transition_defaults[nc_prev]
            return log_transitions(nc_prev, events)

        # INTERNAL_CLASSES leads SUCCESSOR_CLASSES; END-OF-SENTENCE is cut.
        self.start_row = transition_column(START_OF_SENTENCE, END_WORD)[:_K]

        # An untrained word-bigram context takes its class's default.
        bigram_events = tables.word_bigrams.events
        next_defaults = [weigh(({}, 0, 0), (unigrams,), floor) for unigrams in unigram_levels]

        def entry(token):
            # As a previous token: its weighted context per class and the
            # log row of their floor terms, and its region-end row, where
            # every class takes the mixture sum: the bigram contexts count
            # END_TOKEN, which only a file's surplus puts in a unigram level.
            contexts = []
            for nc, unigrams, default in zip(INTERNAL_CLASSES, unigram_levels, next_defaults):
                events = bigram_events((token.word, token.feature, nc))
                contexts.append(weigh((events, sum(events.values()), len(events)),
                                      (unigrams,), floor) if events else default)
            end_row = tuple([log(next_word_cell(END_TOKEN, context, unigrams))
                             for context, unigrams in zip(contexts, unigram_levels)])
            # Its transition columns, by previous class so that untrained
            # columns stay shared, with the maxima of each internal
            # successor's cells.
            columns = tuple([transition_column(nc_prev, token.word)
                             for nc_prev in INTERNAL_CLASSES])
            as_previous = (end_row, contexts, tuple(log(context[-1]) for context in contexts),
                           columns, tuple(map(max, zip(*columns)))[:_K])
            # As the token read: a (j, count / c) pair per class j whose
            # unigram level counted it.  Another class's first-word row is
            # the class's shared row of log floors.  The grid is stored by
            # previous class, with the maxima of each class's row.
            pairs = tuple([(j, events[token] / c_u)
                           for j, (events, c_u, _) in enumerate(unigram_levels)
                           if token in events])
            seen = [j for j, _ in pairs]
            rows = list(first_log_floors)
            for j, row in zip(seen, first_word_rows(token, [first[j] for j in seen])):
                rows[j] = [log(p) for p in row]
            return as_previous, (tuple(zip(*rows)), tuple(max(row[:_K]) for row in rows), pairs)

        self.entries = RowStore(entry)


# --- Routed public queries ---------------------------------------------------

def route(model: TrainedModel, word: str):
    """(unknown, lookup word) for one word.

    unknown is True when the word is outside the training vocabulary:
    the unknown-word tables answer any query it takes part in, and it is
    looked up as UNKNOWN_WORD.  END_WORD counts as known.
    """
    if model.vocabulary.known(word):
        return False, word
    return True, UNKNOWN_WORD


def _tables(model: TrainedModel, unknown: bool) -> CountTables:
    return model.unknown if unknown else model.main


def p_class_transition(nc: str, nc_prev: str, w_prev: str, model: TrainedModel) -> float:
    """Pr(NC | NC_prev, w_prev), conditioned on the word only, never its
    feature.  w_prev is END_WORD exactly when NC_prev is START-OF-SENTENCE."""
    unknown, w_prev = route(model, w_prev)
    return p_class_transition_from(_tables(model, unknown), nc, nc_prev, w_prev)


def p_first_word(token: Token, nc: str, nc_prev: str, model: TrainedModel) -> float:
    """Pr(token opens an NC region | NC, NC_prev)."""
    unknown, word = route(model, token.word)
    return p_first_word_from(_tables(model, unknown), Token(word, token.feature),
                             nc, nc_prev, len(model.vocabulary))


def p_next_word(token: Token, prev: Token, nc: str, model: TrainedModel) -> float:
    """Pr(token | prev token, NC) inside a region; query END_TOKEN
    as token to get the region-closing probability."""
    unknown, word = route(model, token.word)
    prev_unknown, prev_word = route(model, prev.word)
    return p_next_word_from(_tables(model, unknown or prev_unknown),
                            Token(word, token.feature), Token(prev_word, prev.feature),
                            nc, len(model.vocabulary))
