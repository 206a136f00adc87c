"""Independent reference implementations used as oracles by the tests.

Nothing here reuses production mixing, feature, counting or search
logic: the mixture is a separate recursive function whose sample sizes
are re-summed from raw event dictionaries, the count oracle walks a
corpus once and counts every back-off level as its own table, the
word-feature classifier is a separate predicate list, the path oracle
enumerates every labeled segmentation of a sentence, and the recurrence
oracle is the Viterbi step that reads every candidate, the corpus
oracles split every chunk alone, match the tag grammar afresh at every
tag and emit one token at a time, and the loading oracle adds a model file's rows one at a time and sums the
pooled levels a context at a time.  Production code is imported only
for type constructors, for the word features the count, path and
recurrence oracles tag tokens with, in the path oracle for the
probability queries the search is defined over, in the recurrence
oracle for the rows a decoder reads, in the tokenizing oracles for the
chunk split, the parser's sentence builder and the tag grammar's
regular expression, and in the loading
oracle for the format's constants and field readers.
"""

import math
import random
import re
from functools import cached_property

from namefinder.counts import CondTable, CountTables, TrainedModel, Vocabulary
from namefinder.corpus import (
    END_OF_SENTENCE,
    INTERNAL_CLASSES,
    NAME_CLASSES,
    NOT_A_NAME,
    START_OF_SENTENCE,
    TERMINALS,
    AnnotatedSentence,
    ParseError,
    Region,
    _SentenceBuilder,
    _TAG_RE,
    _split_chunk,
)
from namefinder.estimator import (
    PREVIOUS_CLASSES,
    SUCCESSOR_CLASSES,
    p_class_transition,
    p_first_word,
    p_next_word,
)
from namefinder.features import (
    END_TOKEN,
    END_WORD,
    FeatureConfig,
    NUM_WORD_FEATURES,
    Token,
    UNKNOWN_WORD,
    WORD_FEATURES,
    compute_feature,
)
from namefinder.model_io import (
    MAGIC,
    SAMPLE_SIZE_LIMIT,
    VERSION,
    ModelFormatError,
    _count,
    _expect,
)

# --- Back-off mixture oracle -------------------------------------------------


def _stats(table, context):
    """Recompute total and unique outcomes from the raw event dict."""
    events = table.events(context)
    return events, sum(events.values()), len(events)


def ref_mixture(levels, floor, old_c=0):
    """Recursive definition of the weighted back-off mixture.

    levels are (probability, sample_size, unique_outcomes), most
    specific first; each recursion step passes its sample size down as
    the next level's old count.
    """
    if not levels:
        return floor
    prob, c_y, unique = levels[0]
    if c_y == 0:
        lam = 0.0
    else:
        lam = (1.0 - old_c / c_y) * (1.0 / (1.0 + unique / c_y))
    return lam * prob + (1.0 - lam) * ref_mixture(levels[1:], floor, c_y)


def _mle(table, context, event):
    events, total, unique = _stats(table, context)
    prob = events.get(event, 0) / total if total else 0.0
    return prob, total, unique


def ref_p_class_transition(tables, nc, nc_prev, w_prev):
    levels = [
        _mle(tables.class_transitions, (nc_prev, w_prev), nc),
        _mle(tables.class_bigrams, (nc_prev,), nc),
        _mle(tables.class_marginal, (), nc),
    ]
    return ref_mixture(levels, 1.0 / (len(INTERNAL_CLASSES) + 1))


def _ref_product(tables, nc, token):
    """Pr(w|NC)*Pr(f|NC), from the word and feature marginals of the
    class's word-unigram events."""
    w_events, f_events = {}, {}
    for (word, feature), n in tables.word_unigrams.events((nc,)).items():
        w_events[word] = w_events.get(word, 0) + n
        f_events[feature] = f_events.get(feature, 0) + n
    w_total = sum(w_events.values())
    if w_total == 0:
        return 0.0, 0, 0
    prob = (w_events.get(token.word, 0) / w_total) * (f_events.get(token.feature, 0) / w_total)
    return prob, w_total, len(w_events)


def ref_p_first_word(tables, token, nc, nc_prev, vocab_size, normalized_floor=False):
    levels = [
        _mle(tables.first_words, (nc, nc_prev), token),
        _mle(tables.begin_bigrams, (nc,), token),
        _mle(tables.word_unigrams, (nc,), token),
        _ref_product(tables, nc, token),
    ]
    if normalized_floor:
        floor = 1.0 / ((vocab_size + 1) * NUM_WORD_FEATURES)
    else:
        floor = 1.0 / (vocab_size * NUM_WORD_FEATURES)
    return ref_mixture(levels, floor)


def ref_p_next_word(tables, token, prev, nc, vocab_size, normalized_floor=False):
    levels = [
        _mle(tables.word_bigrams, (prev.word, prev.feature, nc), token),
        _mle(tables.word_unigrams, (nc,), token),
        _ref_product(tables, nc, token),
    ]
    if normalized_floor:
        floor = 1.0 / ((vocab_size + 1) * NUM_WORD_FEATURES + 1)
    else:
        floor = 1.0 / (vocab_size * NUM_WORD_FEATURES)
    return ref_mixture(levels, floor)


def ref_tables(model, *words):
    """Independent restatement of the routing rule."""
    for word in words:
        if word not in model.vocabulary and word != END_WORD:
            return model.unknown
    return model.main


def ref_lookup(model, token):
    if token.word in model.vocabulary or token.word == END_WORD:
        return token
    return Token(UNKNOWN_WORD, token.feature)


# --- Count-table oracle -----------------------------------------------------

WALK_TABLES = ("class_transitions", "class_bigrams", "class_marginal", "first_words",
               "begin_bigrams", "word_bigrams", "word_unigrams")


def ref_count_walk(sentences, vocab, map_unknown, config=FeatureConfig()):
    """Every table of the back-off chains, by name, each level counted
    directly from one walk of the generative story."""
    t = {name: CondTable() for name in WALK_TABLES}
    for sentence in sentences:
        if not sentence.tokens:
            continue
        tokens = []
        for i, word in enumerate(sentence.tokens):
            feature = compute_feature(word, is_first_word=(i == 0), config=config)
            if map_unknown and word not in vocab and word != END_WORD:
                word = UNKNOWN_WORD
            tokens.append(Token(word, feature))
        segments, pos = [], 0
        for region in sentence.regions:
            if region.start > pos:
                segments.append((NOT_A_NAME, pos, region.start))
            segments.append((region.name_class, region.start, region.end))
            pos = region.end
        if pos < len(tokens):
            segments.append((NOT_A_NAME, pos, len(tokens)))
        nc_prev, w_prev = START_OF_SENTENCE, END_WORD
        for nc, start, end in segments:
            t["class_transitions"].add((nc_prev, w_prev), nc)
            t["class_bigrams"].add((nc_prev,), nc)
            t["class_marginal"].add((), nc)
            first = tokens[start]
            t["first_words"].add((nc, nc_prev), first)
            t["begin_bigrams"].add((nc,), first)
            for j in range(start, end):
                tok = tokens[j]
                t["word_unigrams"].add((nc,), tok)
                if j > start:
                    prev = tokens[j - 1]
                    t["word_bigrams"].add((prev.word, prev.feature, nc), tok)
            last = tokens[end - 1]
            t["word_bigrams"].add((last.word, last.feature, nc), END_TOKEN)
            nc_prev, w_prev = nc, last.word
        t["class_transitions"].add((nc_prev, w_prev), END_OF_SENTENCE)
        t["class_bigrams"].add((nc_prev,), END_OF_SENTENCE)
        t["class_marginal"].add((), END_OF_SENTENCE)
    return t


def ref_train_walks(sentences, config=FeatureConfig()):
    """(main, unknown) walks of a corpus as training defines them: the
    main walk over every sentence, the unknown walk summed over each
    held-out half counted against the other half's words."""
    sentences = [s for s in sentences if s.tokens]
    half = (len(sentences) + 1) // 2
    part_a, part_b = sentences[:half], sentences[half:]

    def words(part):
        return Vocabulary(word for s in part for word in s.tokens)

    main = ref_count_walk(sentences, words(sentences), False, config)
    unknown = ref_count_walk(part_b, words(part_a), True, config)
    for name, table in ref_count_walk(part_a, words(part_b), True, config).items():
        unknown[name].update(table)
    return main, unknown


# --- Model-loading oracle ----------------------------------------------------

class RefCountTables(CountTables):
    """Count tables whose pooled levels are summed a context at a time,
    dropping END_TOKEN from a copy of each word-bigram context that holds
    it."""

    @cached_property
    def _pooled(self):
        class_bigrams, class_marginal = CondTable(), CondTable()
        begin_bigrams, word_unigrams = CondTable(), CondTable()
        transitions, first_words, bigrams = self.tables().values()
        for context in transitions.contexts():
            class_bigrams.add_events(context[:1], transitions.events(context))
        for nc_prev in PREVIOUS_CLASSES:
            class_marginal.add_events((), class_bigrams.events((nc_prev,)))
        for nc in INTERNAL_CLASSES:
            for nc_prev in PREVIOUS_CLASSES:
                begin_bigrams.add_events((nc,), first_words.events((nc, nc_prev)))
            word_unigrams.add_events((nc,), begin_bigrams.events((nc,)))
        ends = {}
        for context in bigrams.contexts():
            events = bigrams.events(context)
            if END_TOKEN in events:
                ends[context[2:]] = ends.get(context[2:], 0) + events[END_TOKEN]
                events = {token: n for token, n in events.items() if token != END_TOKEN}
            word_unigrams.add_events(context[2:], events)
        for context, count in ends.items():
            if count > begin_bigrams.total(context):
                word_unigrams.add(context, END_TOKEN, count - begin_bigrams.total(context))
        return class_bigrams, class_marginal, begin_bigrams, word_unigrams


# Per table: the id space of each context field, then of the event.
_REF_FIELDS = {"class_transitions": (("class", "word"), ("class",)),
               "first_words": (("class", "class"), ("word", "feature")),
               "word_bigrams": (("word", "feature", "class"), ("word", "feature"))}


def _ref_fits(name, context, event):
    """Whether training can count ``event`` under ``context`` in table ``name``."""
    if name == "class_transitions":
        return event in SUCCESSOR_CLASSES and (
            context == (START_OF_SENTENCE, END_WORD)
            or context[0] in INTERNAL_CLASSES and context[1] != END_WORD)
    if name == "first_words":
        return context[0] in INTERNAL_CLASSES and context[1] in PREVIOUS_CLASSES
    return context[0] != END_WORD and context[2] in INTERNAL_CLASSES


def _ref_check_table_set(tables, prefix):
    for name, table in tables.tables().items():
        for context, event, _ in table.items():
            words = context + (event if isinstance(event, Token) else ())
            if not _ref_fits(name, context, event) or (
                    prefix == "main" and UNKNOWN_WORD in words):
                raise ModelFormatError("%r under %r does not fit [%s.%s]"
                                       % (event, context, prefix, name))
    for name in ("class_marginal", "word_unigrams"):
        table = getattr(tables, name)
        for context in table.contexts():
            if table.total(context) >= SAMPLE_SIZE_LIMIT:
                raise ModelFormatError("sample size of %s.%s context %r reaches 2**53"
                                       % (prefix, name, context))


def ref_deserialize_model(text):
    """The loader that decodes every id of every field, adds each event's
    count through ``CondTable.add``, and checks what each table set holds
    once it is read.  It loads contexts and events in any order, summing
    a repeated event's counts; its table sets are ``RefCountTables``."""
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()
    if not lines:
        raise ModelFormatError("empty model file")
    magic = lines[0].split(" ")
    if len(magic) != 2 or magic[0] != MAGIC:
        raise ModelFormatError("not a model file (bad magic line %r)" % (lines[0],))
    if magic[1] != str(VERSION):
        raise ModelFormatError("unsupported model version: expected %d, found %s"
                               % (VERSION, magic[1]))
    swap = _expect(lines, 1, "swap_comma_period")
    if swap not in ("0", "1"):
        raise ModelFormatError("swap_comma_period must be 0 or 1, found %r" % (swap,))
    config = FeatureConfig(swap_comma_period=(swap == "1"))
    classes = tuple(_expect(lines, 2, "classes").split(" "))
    if classes != INTERNAL_CLASSES:
        raise ModelFormatError("unexpected class inventory %r" % (classes,))

    words = {}
    for word in _expect(lines, 3, "words").split(" "):
        if word.split() != [word]:
            raise ModelFormatError("empty word or whitespace in a word at line 4")
        if word in words:
            raise ModelFormatError("repeated vocabulary word at line 4")
        words[word] = None
    ids = {"class": {str(i): nc for i, nc in enumerate(
               INTERNAL_CLASSES + (START_OF_SENTENCE, END_OF_SENTENCE))},
           "feature": {str(i): feature for i, feature in enumerate(WORD_FEATURES)},
           "word": {"-": END_WORD, "0": UNKNOWN_WORD}}
    ids["word"].update((str(i), word) for i, word in enumerate(words, 1))

    def decoded(fields, kinds, line):
        if len(fields) != len(kinds):
            raise ModelFormatError("expected %d ids at line %d" % (len(kinds), line))
        try:
            return tuple(ids[kind][field] for kind, field in zip(kinds, fields))
        except KeyError:
            raise ModelFormatError("unknown id at line %d" % (line,)) from None

    index = 4
    main, unknown = RefCountTables(), RefCountTables()
    for prefix, tables in (("main", main), ("unknown", unknown)):
        for name, table in tables.tables().items():
            header = "[%s.%s]" % (prefix, name)
            if index >= len(lines) or lines[index] != header:
                found = lines[index] if index < len(lines) else "<end of file>"
                raise ModelFormatError("expected section %s at line %d, found %r"
                                       % (header, index + 1, found))
            index += 1
            context_kinds, event_kinds = _REF_FIELDS[name]
            while index < len(lines) and "\t" in lines[index]:
                fields = lines[index].split("\t")
                context = decoded(fields[0].split(" "), context_kinds, index + 1)
                for entry in fields[1:]:
                    *event, count = entry.split(" ")
                    if event == ["-"] and name == "word_bigrams":
                        event = END_TOKEN
                    elif len(event_kinds) == 1:
                        event = decoded(event, event_kinds, index + 1)[0]
                    else:
                        event = Token(*decoded(event, event_kinds, index + 1))
                        if event.word == END_WORD:
                            raise ModelFormatError("end word with a feature at line %d"
                                                   % (index + 1,))
                    table.add(context, event, _count(count, index + 1))
                index += 1
        _ref_check_table_set(tables, prefix)
    if index != len(lines):
        raise ModelFormatError("trailing content at line %d" % (index + 1,))
    return TrainedModel(Vocabulary(words), main, unknown, config)


# --- Word-feature oracle -----------------------------------------------------

_DIGITS = set("0123456789")


def _has(word, chars):
    return any(c in chars for c in word)


def _letters(word):
    return [c for c in word if c.isalpha()]


def ref_feature(word, is_first_word=False, config=FeatureConfig()):
    """Predicate-list restatement of the word-feature classifier.

    Predicates are evaluated strictly in table order; the first match
    wins.  firstWord neutralizes the initial-capital signal only: it
    applies exactly where initCap would, when the word opens a sentence.
    """
    comma_char, period_char = ("," , ".") if not config.swap_comma_period else (".", ",")
    has_digit = _has(word, _DIGITS)
    letters = _letters(word)
    predicates = [
        ("twoDigitNum", len(word) == 2 and all(c in _DIGITS for c in word)),
        ("fourDigitNum", len(word) == 4 and all(c in _DIGITS for c in word)),
        ("containsDigitAndAlpha", has_digit and bool(letters)),
        ("containsDigitAndDash", has_digit and "-" in word and not letters),
        ("containsDigitAndSlash", has_digit and "/" in word and not letters),
        ("containsDigitAndComma", has_digit and comma_char in word and not letters),
        ("containsDigitAndPeriod", has_digit and period_char in word and not letters),
        ("otherNum", all(c in _DIGITS for c in word)),
        ("allCaps", bool(letters) and all(c.isupper() for c in letters)
         and not has_digit and not (len(word) == 2 and word[1] == ".")),
        ("capPeriod", len(word) == 2 and word[0].isalpha() and word[0].isupper()
         and word[1] == "."),
        ("firstWord", is_first_word and word[0].isalpha() and word[0].isupper()
         and any(c.islower() for c in word)),
        ("initCap", word[0].isalpha() and word[0].isupper()
         and any(c.islower() for c in word)),
        ("lowerCase", word[0].isalpha() and word[0].islower()),
        ("other", True),
    ]
    for name, matched in predicates:
        if matched:
            return name
    raise AssertionError("unreachable")


# --- Exhaustive path oracle --------------------------------------------------


def ref_best_path(words, model):
    """Enumerate all class sequences and boundary placements.

    Returns (log_score, path_classes, path_boundaries) of the maximum,
    breaking exact ties the way the decoder's documented rule does:
    final class earliest in the inventory, then CONTINUE before
    BOUNDARY (and earlier boundary predecessors first) resolved from
    the last step backward.
    """
    config = model.feature_config
    tokens = [Token(w, compute_feature(w, i == 0, config))
              for i, w in enumerate(words)]
    n = len(tokens)
    log = math.log
    classes_list = INTERNAL_CLASSES
    best = None  # (score, tie_key, classes, boundaries)

    # The log factors depend only on (position, adjacent classes), so
    # evaluate each once up front; the search then only adds floats, in
    # the same order as before.
    cont_f = [{nc: log(p_next_word(tokens[t], tokens[t - 1], nc, model))
               for nc in classes_list} for t in range(1, n)]
    end_f = [{nc: log(p_next_word(END_TOKEN, tokens[t], nc, model))
              for nc in classes_list} for t in range(n)]
    trans_f = [{prev: {nc: log(p_class_transition(nc, prev, tokens[t].word,
                                                  model))
                       for nc in classes_list} for prev in classes_list}
               for t in range(n - 1)]
    first_f = [{prev: {nc: log(p_first_word(tokens[t], nc, prev, model))
                       for nc in classes_list} for prev in classes_list}
               for t in range(1, n)]
    trans_end = {nc: log(p_class_transition(END_OF_SENTENCE, nc,
                                            tokens[-1].word, model))
                 for nc in classes_list}

    def finish(score, classes, boundaries, ranks):
        nonlocal best
        nc = classes[-1]
        total = score + end_f[n - 1][nc]
        total = total + trans_end[nc]
        key = (classes_list.index(nc), tuple(reversed(ranks)))
        if best is None or total > best[0] or (total == best[0] and key < best[1]):
            best = (total, key, tuple(classes), tuple(boundaries))

    def extend(t, score, classes, boundaries, ranks):
        if t == n:
            finish(score, classes, boundaries, ranks)
            return
        prev_nc = classes[-1]
        cont = score + cont_f[t - 1][prev_nc]
        extend(t + 1, cont, classes + [prev_nc], boundaries + [False], ranks + [0])
        closed = score + end_f[t - 1][prev_nc]
        for rank, nc in enumerate(classes_list, start=1):
            opened = closed + trans_f[t - 1][prev_nc][nc]
            opened = opened + first_f[t - 1][prev_nc][nc]
            extend(t + 1, opened, classes + [nc], boundaries + [True], ranks + [rank])

    for nc in classes_list:
        score = log(p_class_transition(nc, START_OF_SENTENCE, END_WORD, model))
        score = score + log(p_first_word(tokens[0], nc, START_OF_SENTENCE, model))
        extend(1, score, [nc], [True], [])
    return best[0], best[2], best[3]


# --- Plain recurrence oracle -------------------------------------------------


def ref_next_log_row(contexts, ratios, prev, token):
    """[log Pr(token | prev, nc) for nc in INTERNAL_CLASSES] from one
    route flag's next-context and unigram-ratio stores.

    The row is prev's row of log floor terms with the mixture sum
    written over each class that counted the token, and that row itself
    when none did.  Each sum is ``next_word_cell``'s, in its order, with
    the unigram term read from the token's (class, count / c) pairs.
    """
    weighted, log_floors = contexts[prev]
    pairs = ratios[token]
    if not pairs:
        return log_floors
    row = list(log_floors)
    for j, p_u in pairs:
        events, c_w, k1, k2, floor_term = weighted[j]
        count = events.get(token)
        total = k1 * (count / c_w) if count else 0.0
        total += k2 * p_u
        row[j] = math.log(total + floor_term)
    return row


def ref_viterbi(decoder, words):
    """(log_score, path_classes, path_boundaries) of the plain recurrence
    over a decoder's row stores.

    Every class reads its CONTINUE candidate and all 8 BOUNDARY
    candidates at every token: CONTINUE first, then BOUNDARY in class
    order, and only a strictly greater score replaces the incumbent.
    The keys are restated here (route flag, and the token with an
    out-of-vocabulary word as UNKNOWN_WORD); the rows are read from the
    decoder's own stores, each continuation row through
    ``ref_next_log_row``, so this checks the search alone.  It reads the
    rows of each (rows, maxima) entry and never the maxima.
    """
    model = decoder.model
    k = len(INTERNAL_CLASSES)
    keys = []
    for i, word in enumerate(words):
        unknown = word not in model.vocabulary
        feature = compute_feature(word, i == 0, model.feature_config)
        keys.append((unknown, Token(UNKNOWN_WORD if unknown else word, feature)))
    blocks, grids, ends = decoder._blocks, decoder._grids, decoder._ends
    contexts, ratios = decoder._contexts, decoder._ratios

    unknown, tok = keys[0]
    fw = grids[unknown][tok][0]
    scores = [decoder._start_row[j] + fw[j][k] for j in range(k)]
    backptrs = []
    for t in range(1, len(keys)):
        prev_unknown, prev_tok = keys[t - 1]
        unknown, tok = keys[t]
        end_vec = ends[prev_unknown][prev_tok]
        r = prev_unknown or unknown
        cont_vec = ref_next_log_row(contexts[r], ratios[r], prev_tok, tok)
        by_target = blocks[prev_unknown][prev_tok.word][0]
        fw = grids[unknown][tok][0]
        bscore = [scores[i] + end_vec[i] for i in range(k)]
        new_scores, pointers = [], []
        for j in range(k):
            best, best_ptr = scores[j] + cont_vec[j], (j, False)
            for i in range(k):
                cand = bscore[i] + by_target[j][i] + fw[j][i]
                if cand > best:
                    best, best_ptr = cand, (i, True)
            new_scores.append(best)
            pointers.append(best_ptr)
        scores = new_scores
        backptrs.append(pointers)

    last_unknown, last = keys[-1]
    end_vec = ends[last_unknown][last]
    to_end = blocks[last_unknown][last.word][0][k]
    best_j, best_final = 0, scores[0] + end_vec[0] + to_end[0]
    for j in range(1, k):
        cand = scores[j] + end_vec[j] + to_end[j]
        if cand > best_final:
            best_j, best_final = j, cand
    classes, bounds, j = [best_j], [], best_j
    for pointers in reversed(backptrs):
        j, is_boundary = pointers[j]
        classes.append(j)
        bounds.append(is_boundary)
    return (best_final, tuple(INTERNAL_CLASSES[c] for c in reversed(classes)),
            (True, *reversed(bounds)))


# --- Tokenizing and emit oracles ---------------------------------------------


def ref_tokenize(text):
    """Sentences of text, each chunk split on its own, breaking after
    every chunk whose last token is a terminal."""
    sentences, current = [], []
    for chunk in text.split():
        tokens = _split_chunk(chunk)
        current.extend(tokens)
        if tokens and tokens[-1] in TERMINALS:
            sentences.append(current)
            current = []
    if current:
        sentences.append(current)
    return sentences


class RefSentenceBuilder(_SentenceBuilder):
    """The parser's sentence builder, adding text one chunk at a time
    and breaking after a terminal chunk while no region is open."""

    def add_text(self, text):
        for chunk in text.split():
            tokens = _split_chunk(chunk)
            self.tokens.extend(tokens)
            if tokens and tokens[-1] in TERMINALS and self.open_class is None:
                self.flush()


_REF_ELEMENTS = {"PERSON": "ENAMEX", "ORGANIZATION": "ENAMEX", "LOCATION": "ENAMEX",
                 "DATE": "TIMEX", "TIME": "TIMEX", "MONEY": "NUMEX", "PERCENT": "NUMEX"}


def _ref_position(text, offset):
    """1-based (line, column) of an offset."""
    before = text[:offset].split("\n")
    return len(before), len(before[-1]) + 1


def _ref_unescape(text, raw, raw_offset):
    """Entities replaced, or ParseError at a bare '&' or '>'."""
    bare = re.search(r"&(?!(?:amp|lt|gt);)|>", text)
    if bare:
        use = "&amp;" if bare.group() == "&" else "&gt;"
        raise ParseError("bare '%s' (use %s)" % (bare.group(), use),
                         *_ref_position(raw, raw_offset + bare.start()))
    return re.sub(r"&(amp|lt|gt);", lambda m: {"amp": "&", "lt": "<", "gt": ">"}[m.group(1)],
                  text)


def _ref_tag_problem(m, builder):
    """Why the tag matched (or not) at this point is malformed or out of
    place, or None."""
    if not m:
        return "malformed tag"
    if m.group("close"):
        if builder.open_class is None:
            return "closing tag without an open region"
        element = _REF_ELEMENTS[builder.open_class]
        if m.group("close") != element:
            return "closing tag %s does not match open %s" % (m.group("close"), element)
        if builder.open_start == len(builder.tokens):
            return "empty region"
        return None
    if builder.open_class is not None:
        return "nested tags are not allowed"
    if _REF_ELEMENTS.get(m.group("type")) != m.group("element"):
        return "unknown TYPE %r for %s" % (m.group("type"), m.group("element"))
    return None


def ref_parse_annotated(text):
    """Sentences of annotated text, matching the tag grammar afresh at
    every '<' and adding text one chunk at a time.  A word memo makes
    the builder's sentences AnnotatedSentences, as the parser's are."""
    builder = RefSentenceBuilder(words={})
    pos = 0
    while pos < len(text):
        lt = text.find("<", pos)
        end = len(text) if lt == -1 else lt
        if end > pos:
            builder.add_text(_ref_unescape(text[pos:end], text, pos))
        if lt == -1:
            break
        m = _TAG_RE.match(text, lt)
        problem = _ref_tag_problem(m, builder)
        if problem:
            raise ParseError(problem, *_ref_position(text, lt))
        if m.group("close"):
            builder.close_region()
        else:
            builder.open_region(m.group("type"))
        pos = m.end()
    if builder.open_class is not None:
        raise ParseError("unclosed tag at end of document", *_ref_position(text, len(text)))
    builder.flush()
    return builder.sentences


def _ref_escape(token):
    return "".join({"&": "&amp;", "<": "&lt;", ">": "&gt;"}.get(ch, ch) for ch in token)


def ref_emit_annotated(sentences):
    """Inline markup, one line per non-empty sentence, escaped one token
    at a time: a region's open tag prefixes its first token and its
    close tag suffixes its last."""
    lines = []
    for sentence in sentences:
        if not sentence.tokens:
            continue
        starts = {r.start: r for r in sentence.regions}
        ends = {r.end: r for r in sentence.regions}
        parts = []
        for i, token in enumerate(sentence.tokens):
            if i in ends:
                parts[-1] += "</%s>" % _REF_ELEMENTS[ends[i].name_class]
            if i in starts:
                region = starts[i]
                parts.append('<%s TYPE="%s">%s' % (_REF_ELEMENTS[region.name_class],
                                                   region.name_class, _ref_escape(token)))
            else:
                parts.append(_ref_escape(token))
        n = len(sentence.tokens)
        if n in ends:
            parts[-1] += "</%s>" % _REF_ELEMENTS[ends[n].name_class]
        lines.append(" ".join(parts))
    return "\n".join(lines) + ("\n" if lines else "")


# --- Random corpora for property tests ---------------------------------------

WORD_POOL = ["the", "cat", "ran", "Blue", "Ridge", "Acme", "90", "1.00",
             "11/9/89", ","]
OOV_POOL = ["Zebra", "unseen", "47", "X9"]


def random_sentence(rng: random.Random, pool=WORD_POOL, max_len=6):
    n = rng.randint(1, max_len)
    tokens = [rng.choice(pool) for _ in range(n)]
    regions = []
    pos = 0
    while pos < n:
        if rng.random() < 0.4:
            end = rng.randint(pos + 1, n)
            regions.append(Region(pos, end, rng.choice(NAME_CLASSES)))
            pos = end
        else:
            pos += 1
    return AnnotatedSentence(tokens, regions)


def random_corpus(rng: random.Random, n_sentences, pool=WORD_POOL, max_len=6):
    return [random_sentence(rng, pool, max_len) for _ in range(n_sentences)]
