"""Model persistence: canonical text format, byte-stable round trips."""

import bisect
import math
import os
import statistics

import pytest
from hypothesis import given, settings, strategies as st

from namefinder import (
    AnnotatedSentence,
    CountTables,
    END_OF_SENTENCE,
    FeatureConfig,
    INTERNAL_CLASSES,
    ModelFormatError,
    NAME_CLASSES,
    NOT_A_NAME,
    PERSON,
    START_OF_SENTENCE,
    Decoder,
    END_TOKEN,
    Region,
    Token,
    TrainedModel,
    TrainingError,
    UNKNOWN_WORD,
    Vocabulary,
    WORD_FEATURES,
    deserialize_model,
    generate_corpus,
    p_class_transition,
    p_first_word,
    p_next_word,
    parse_annotated,
    read_model,
    serialize_model,
    train,
    write_model,
)
from namefinder import model_io
from conftest import ANNOTATED_FIXTURE
from reference import RefCountTables, random_corpus, ref_deserialize_model
from timing import pair_ratios

POOLED = ("class_bigrams", "class_marginal", "begin_bigrams", "word_unigrams")
CLASS_IDS = INTERNAL_CLASSES + (START_OF_SENTENCE, END_OF_SENTENCE)


def reserialize(model):
    return serialize_model(deserialize_model(serialize_model(model)))


def vocabulary_rows(text):
    """The words of a model text's ``words`` line, as written."""
    return text.split("\n")[3].split(" ")[1:]


def spelled(text, names):
    """The ids of the space-separated ``names`` as the model text writes
    them: a class or a word feature by its index, a word of the text by
    its position, ``unknown\\sword`` (``UNKNOWN_WORD``, whose space would
    split the name) as 0 and the empty word as -.  Any other name is
    kept, so a lookup misses it."""
    ids = {word: str(i) for i, word in enumerate(vocabulary_rows(text), 1)}
    ids.update({"unknown\\sword": "0", "": "-"})
    ids.update((name, str(i)) for i, name in enumerate(CLASS_IDS))
    ids.update((name, str(i)) for i, name in enumerate(WORD_FEATURES))
    return " ".join(ids.get(name, name) for name in names.split(" "))


def section_lines(lines, section):
    """(first, end) line indices of a section's context lines."""
    start = end = lines.index("[%s]" % section) + 1
    while "\t" in lines[end]:  # the last line of a text is empty
        end += 1
    return start, end


def with_entry(text, section, context, entry):
    """The model text with ``entry`` (``event count``, in ids) added under
    ``context`` in ``section``: into the context's line at the event's
    sorted place, after any equal event, or on a new line at the
    context's sorted place."""
    lines = text.split("\n")
    start, end = section_lines(lines, section)
    contexts = [line.split("\t", 1)[0] for line in lines[start:end]]
    if context in contexts:
        i = start + contexts.index(context)
        fields = lines[i].split("\t")
        events = [field.rpartition(" ")[0] for field in fields[1:]]
        fields.insert(1 + bisect.bisect_right(events, entry.rpartition(" ")[0]), entry)
        lines[i] = "\t".join(fields)
    else:
        lines.insert(bisect.bisect_right(contexts, context) + start, "%s\t%s" % (context, entry))
    return "\n".join(lines)


def with_row(text, section, row):
    """The model text with ``row``, an ``event<TAB>context<TAB>count`` of
    names (``spelled``; the event `` other`` is the end token), added to
    ``section`` by ``with_entry``."""
    event, context, count = row.split("\t")
    event = "-" if event == " other" else spelled(text, event)
    return with_entry(text, section, spelled(text, context), "%s %s" % (event, count))


def line_of(text, section, context):
    """The line number of the line of ``context`` (ids, or names for
    ``spelled``) in ``section``."""
    lines = text.split("\n")
    start, end = section_lines(lines, section)
    contexts = [line.split("\t", 1)[0] for line in lines[start:end]]
    if context not in contexts:
        context = spelled(text, context)
    return start + contexts.index(context) + 1


def with_words(text, words):
    """The model text with ``words`` as its ``words`` line's words."""
    lines = text.split("\n")
    lines[3] = " ".join(["words"] + words)
    return "\n".join(lines)


# Characters that frame rows and fields, that str.splitlines breaks at,
# that a universal-newline read translates, or that start a section
# header; plus backslashes and non-ASCII text.
_AWKWARD = ("\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
            "\\ \t\n[]" "aé日")
_words = st.text(alphabet=_AWKWARD, max_size=4)
_sentences = st.lists(_words, min_size=1, max_size=4).map(
    lambda tokens: AnnotatedSentence(tokens=tokens, regions=[]))
_corpora = st.lists(_sentences, min_size=2, max_size=4)

# Words with backslashes, words shaped like a sentinel, and UNKNOWN_WORD,
# which only a hand-built sentence can hold and training refuses, in and
# out of name regions.
_escaped_words = st.one_of(
    st.sampled_from(["\\", "a\\s", "\\\\n", "+end+", "+unk+", UNKNOWN_WORD, "+end+\\",
                     "Smith", "said", "1,00", "."]),
    st.text(alphabet="\\ +aAeknu1.,", min_size=1, max_size=5))


def trainable(corpus, config=FeatureConfig()):
    """The corpus with each token that is empty or holds whitespace made
    a word: its whitespace runs become ``+``.  Where there is such a
    token, ``train`` must refuse the corpus, naming the first one."""
    refused = [word for sentence in corpus for word in sentence.tokens
               if word.split() != [word]]
    if refused:
        with pytest.raises(TrainingError) as info:
            train(corpus, config)
        assert str(info.value) == "token %r is empty or holds whitespace" % (refused[0],)
    return [AnnotatedSentence(["+".join(word.split()) or "+" for word in sentence.tokens],
                              sentence.regions) for sentence in corpus]


@st.composite
def _annotated_sentences(draw):
    tokens = draw(st.lists(_escaped_words, min_size=1, max_size=6))
    regions, start = [], 0
    while start < len(tokens):
        end = draw(st.integers(min_value=start + 1, max_value=len(tokens)))
        if draw(st.booleans()):
            regions.append(Region(start, end, draw(st.sampled_from(NAME_CLASSES))))
        start = end
    return AnnotatedSentence(tokens=tokens, regions=regions)


class TestRoundTrip:
    def test_serialization_is_byte_stable(self, tiny_model):
        text = serialize_model(tiny_model)
        assert reserialize(tiny_model) == text
        assert text.startswith("namefinder-model 6\nswap_comma_period 0\nclasses ")
        assert text.split("\n")[3].startswith("words Mr. John Smith ")
        assert text.endswith("\n")

    def test_random_model_round_trips(self, rng):
        model = train(random_corpus(rng, 50))
        text = serialize_model(model)
        assert serialize_model(deserialize_model(text)) == text

    def test_reloaded_model_answers_identically(self, tiny_model, rng):
        reloaded = deserialize_model(serialize_model(tiny_model))
        assert len(reloaded.vocabulary) == len(tiny_model.vocabulary)
        words = tiny_model.vocabulary.words() + ["zzz"]
        for _ in range(200):
            w = rng.choice(words)
            prev = rng.choice(words)
            token = Token(w, "initCap")
            prev_token = Token(prev, "lowerCase")
            assert p_class_transition(PERSON, NOT_A_NAME, prev, reloaded) == \
                p_class_transition(PERSON, NOT_A_NAME, prev, tiny_model)
            assert p_first_word(token, PERSON, START_OF_SENTENCE, reloaded) == \
                p_first_word(token, PERSON, START_OF_SENTENCE, tiny_model)
            assert p_next_word(token, prev_token, NOT_A_NAME, reloaded) == \
                p_next_word(token, prev_token, NOT_A_NAME, tiny_model)

    def test_vocabulary_ids_survive(self, tiny_model):
        # A word's id is its position on the words line.  "Mr." (id 1,
        # firstWord) is the one-word NOT-A-NAME region that opens the
        # first sentence, so the end token follows it once.
        text = serialize_model(tiny_model)
        reloaded = deserialize_model(text)
        assert reloaded.vocabulary.words() == tiny_model.vocabulary.words()
        assert vocabulary_rows(text) == tiny_model.vocabulary.words()
        assert spelled(text, "Mr. firstWord NOT-A-NAME") == "1 10 7"
        assert "\n1 10 7\t- 1\n" in text
        assert reloaded.main.word_bigrams.events(("Mr.", "firstWord", NOT_A_NAME)) == \
            {END_TOKEN: 1}

    def test_file_round_trip(self, tiny_model, tmp_path):
        path = tmp_path / "model.nf"
        write_model(tiny_model, path)
        reloaded = read_model(path)
        assert serialize_model(reloaded) == serialize_model(tiny_model)

    def test_feature_config_persists(self):
        corpus = [
            AnnotatedSentence(tokens=["1,00", "x"], regions=[]),
            AnnotatedSentence(tokens=["2,50", "y"], regions=[]),
        ]
        model = train(corpus, FeatureConfig(swap_comma_period=True))
        reloaded = deserialize_model(serialize_model(model))
        assert reloaded.feature_config.swap_comma_period is True
        assert "swap_comma_period 1" in serialize_model(model)

    def test_awkward_token_text_round_trips(self):
        # Backslashes, escape-like text and non-ASCII words are written as
        # they are, and words shaped like a section header stay words.
        # Spaces, tabs and newlines cannot be inside a word.
        corpus = [
            AnnotatedSentence(tokens=["a\\b", "two\\swords", "café"],
                              regions=[]),
            AnnotatedSentence(tokens=["tab\\t", "line\\nbreak", "a\\b"],
                              regions=[]),
            AnnotatedSentence(tokens=["[", "[main.first_words]"], regions=[]),
        ]
        model = train(corpus)
        text = serialize_model(model)
        reloaded = deserialize_model(text)
        assert serialize_model(reloaded) == text
        assert reloaded.vocabulary.words() == model.vocabulary.words()
        assert reloaded.main.word_unigrams.count(
            (NOT_A_NAME,), Token("line\\nbreak", "lowerCase")) == 1
        assert text.split("\n")[3] == "words " + " ".join(model.vocabulary.words())
        assert vocabulary_rows(text)[:4] == ["a\\b", "two\\swords", "café", "tab\\t"]
        for word in ("two words", "tab\there", "line\nbreak"):
            with pytest.raises(TrainingError) as info:
                train(corpus + [AnnotatedSentence(["x", word], [])])
            assert str(info.value) == "token %r is empty or holds whitespace" % (word,)

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(corpus=_corpora)
    def test_every_token_round_trips(self, corpus, tmp_path_factory):
        # A token that is empty or holds whitespace is refused; as a word,
        # every other character of the alphabet round-trips.
        text = serialize_model(train(trainable(corpus)))
        assert serialize_model(deserialize_model(text)) == text
        path = tmp_path_factory.mktemp("model") / "model.nf"
        write_model(deserialize_model(text), path)
        assert serialize_model(read_model(path)) == text

    @settings(derandomize=True, deadline=None, max_examples=80)
    @given(corpus=st.lists(_annotated_sentences(), min_size=2, max_size=6),
           swap=st.booleans())
    def test_trained_model_round_trips(self, corpus, swap):
        config = FeatureConfig(swap_comma_period=swap)
        model = train(trainable(corpus, config), config)
        text = serialize_model(model)
        loaded = deserialize_model(text)
        assert serialize_model(loaded) == text
        assert loaded == model

    def test_loaded_events_are_shared_within_a_section(self, rng):
        loaded = deserialize_model(serialize_model(train(random_corpus(rng, 60))))
        for tables in (loaded.main, loaded.unknown):
            for name, table in tables.tables().items():
                first = {}
                for _, event, _ in table.items():
                    assert first.setdefault(event, event) is event, (name, event)
                assert len(first) < len(table), name  # some event repeats

    def test_reloaded_model_compares_equal(self, tiny_model, rng):
        for model in (tiny_model, train(random_corpus(rng, 30))):
            loaded = deserialize_model(serialize_model(model))
            assert loaded == model and model == loaded

    def test_vocabularies_compare_by_word_order(self):
        assert Vocabulary(["a", "b"]) == Vocabulary(["a", "b"])
        assert Vocabulary(["a", "b"]) != Vocabulary(["b", "a"])
        assert Vocabulary(["a"]) != Vocabulary(["a", "b"])
        assert Vocabulary(["a"]) != ["a"]

    def test_crlf_file_loads(self, tiny_model, tmp_path):
        path = tmp_path / "model.nf"
        path.write_bytes(serialize_model(tiny_model).replace("\n", "\r\n")
                         .encode("utf-8"))
        assert serialize_model(read_model(path)) == serialize_model(tiny_model)


class TestFormatErrors:
    def test_version_mismatch_names_both_versions(self, tiny_model):
        text = serialize_model(tiny_model).replace(
            "namefinder-model 6", "namefinder-model 5", 1)
        with pytest.raises(ModelFormatError) as info:
            deserialize_model(text)
        assert str(info.value) == "unsupported model version: expected 6, found 5"

    def test_swap_comma_period_is_0_or_1(self, tiny_model):
        text = serialize_model(tiny_model).replace(
            "swap_comma_period 0\n", "swap_comma_period 2\n", 1)
        with pytest.raises(ModelFormatError) as info:
            deserialize_model(text)
        assert str(info.value) == "swap_comma_period must be 0 or 1, found '2'"

    def test_class_inventory_is_the_packages(self, tiny_model):
        # The decoder breaks ties by inventory order, so a reordered
        # inventory is refused, not remapped.
        reordered = INTERNAL_CLASSES[1::-1] + INTERNAL_CLASSES[2:]
        text = serialize_model(tiny_model).replace(
            "classes %s\n" % " ".join(INTERNAL_CLASSES),
            "classes %s\n" % " ".join(reordered), 1)
        with pytest.raises(ModelFormatError) as info:
            deserialize_model(text)
        assert str(info.value) == "unexpected class inventory %r" % (reordered,)

    def test_words_line_lists_a_word(self, tiny_model):
        # Tables that name no word load with one word on the words line;
        # with none, the decoder's word floor would divide by zero.
        lines = serialize_model(tiny_model).split("\n")[:3] + ["words x"] + [
            "[%s.%s]" % (side, name) for side in ("main", "unknown")
            for name in tiny_model.main.NAMES]
        text = "\n".join(lines) + "\n"
        assert len(deserialize_model(text).vocabulary) == 1
        bare = text.replace("\nwords x\n", "\nwords\n")
        for load in (deserialize_model, ref_deserialize_model):
            with pytest.raises(ModelFormatError) as info:
                load(bare)
            assert str(info.value) == "expected 'words ...' at line 4, found 'words'"

    def test_bad_magic(self):
        with pytest.raises(ModelFormatError):
            deserialize_model("something-else 1\n")

    def test_empty_input(self):
        with pytest.raises(ModelFormatError):
            deserialize_model("")

    def test_truncated_file(self, tiny_model):
        text = serialize_model(tiny_model)
        truncated = "\n".join(text.splitlines()[:8]) + "\n"
        with pytest.raises(ModelFormatError):
            deserialize_model(truncated)

    def test_nonpositive_count_rejected(self, tiny_model):
        lines = serialize_model(tiny_model).split("\n")
        i = lines.index("[main.class_transitions]") + 1
        lines[i] = lines[i].rsplit(" ", 1)[0] + " 0"
        with pytest.raises(ModelFormatError, match="non-positive count at line %d" % (i + 1)):
            deserialize_model("\n".join(lines))

    def test_backslashes_are_literal_words(self, tiny_model):
        # Nothing on the words line is an escape: a backslash is part of
        # its word, and the file reserializes to itself.
        text = serialize_model(tiny_model)
        for word in ("a\\s", "\\", "PERSON\\q"):
            literal = with_words(text, vocabulary_rows(text) + [word])
            loaded = deserialize_model(literal)
            assert loaded.vocabulary.words()[-1] == word
            assert serialize_model(loaded) == literal

    def test_noncontiguous_vocabulary_ids_rejected(self, tiny_model):
        # Ids are positions, written in one form: the id after the last
        # word names no word, and a leading zero no word either.
        text = serialize_model(tiny_model)
        size = len(tiny_model.vocabulary)
        for word_id in (str(size + 1), "01"):
            bad = with_entry(text, "main.word_bigrams", spelled(text, "said lowerCase NOT-A-NAME"),
                             "%s 12 1" % word_id)
            assert refused_at(bad, "bad event '%s 12'" % word_id) == \
                line_of(bad, "main.word_bigrams", "said lowerCase NOT-A-NAME")
        assert deserialize_model(with_entry(text, "main.word_bigrams",
                                            spelled(text, "said lowerCase NOT-A-NAME"),
                                            "%d 12 1" % size))

    def test_non_integer_vocabulary_id_rejected(self, tiny_model):
        lines = serialize_model(tiny_model).split("\n")
        i = lines.index("[main.word_bigrams]") + 1
        lines[i] = "one" + lines[i][lines[i].index(" "):]
        assert refused_at("\n".join(lines), "bad context 'one ") == i + 1

    def test_repeated_vocabulary_word_rejected(self, tiny_model):
        text = serialize_model(tiny_model)
        words = vocabulary_rows(text)
        text = with_words(text, words[:1] + words[:1] + words[2:])
        assert refused_at(text, "repeated vocabulary word 'Mr.'") == 4

    def test_non_utf8_file_rejected(self, tiny_model, tmp_path):
        path = tmp_path / "model.nf"
        path.write_bytes(serialize_model(tiny_model).encode("utf-8") + b"\xff\n")
        with pytest.raises(ModelFormatError, match="not UTF-8"):
            read_model(path)

    def test_trailing_garbage_rejected(self, tiny_model):
        text = serialize_model(tiny_model) + "unexpected\n"
        with pytest.raises(ModelFormatError):
            deserialize_model(text)

    def test_unreadable_rows_rejected(self, tiny_model):
        text = serialize_model(tiny_model)
        head, _, rest = text.partition("[main.class_transitions]\n")
        broken = head + "[main.class_transitions]\nnot a row\n" + rest.split("\n", 1)[1]
        with pytest.raises(ModelFormatError, match="expected section"):
            deserialize_model(broken)


def refused_at(text, match):
    """The line number that the refusal of ``text`` names."""
    with pytest.raises(ModelFormatError, match=match) as info:
        deserialize_model(text)
    return int(str(info.value).rsplit(" ", 1)[1])


class TestRowChecks:
    """Each context line is checked on its own, against the lookups of
    its own section, so the first bad line is named."""

    def test_event_accepted_in_one_section_is_checked_in_the_next(self, tiny_model):
        # PERSON (0) is a class-transition event, not a first word.
        text = with_row(serialize_model(tiny_model), "main.class_transitions",
                        "PERSON\tNOT-A-NAME said\t1")
        deserialize_model(text)
        text = with_row(text, "main.first_words", "PERSON\tPERSON NOT-A-NAME\t1")
        assert refused_at(text, "bad event '0' in \\[main.first_words\\]") == \
            line_of(text, "main.first_words", "PERSON NOT-A-NAME")

    def test_two_identical_bad_rows_name_the_first(self, tiny_model):
        lines = serialize_model(tiny_model).split("\n")
        start = lines.index("[main.word_bigrams]") + 1
        row = "4 12 BOGUS\t5 12 1"
        lines[start:start] = [row, row]
        assert refused_at("\n".join(lines), "bad context '4 12 BOGUS'") == start + 1

    def test_a_context_is_checked_where_it_is_first_seen(self, tiny_model):
        # An unknown-word context loads in its own section and is refused
        # on its line in the main one.
        text = serialize_model(tiny_model)
        row = "said lowerCase\tunknown\\sword lowerCase NOT-A-NAME\t1"
        deserialize_model(with_row(text, "unknown.word_bigrams", row))
        text = with_row(text, "main.word_bigrams", row)
        assert refused_at(text, r"bad context '0 12 7' in \[main.word_bigrams\]") == \
            line_of(text, "main.word_bigrams", "0 12 7")

    @pytest.mark.parametrize("count, match", [("0", "non-positive count"),
                                              ("-3", "non-positive count"),
                                              ("x", "bad count"),
                                              ("07", "bad count")])
    def test_every_row_checks_its_count(self, tiny_model, count, match):
        # The event and context are those of the first main word-bigram
        # line, so both texts have been read before.
        text = serialize_model(tiny_model)
        lines = text.split("\n")
        context, entry = lines[lines.index("[main.word_bigrams]") + 1].split("\t")[:2]
        text = with_entry(text, "unknown.word_bigrams", context,
                          "%s %s" % (entry.rpartition(" ")[0], count))
        assert refused_at(text, match) == line_of(text, "unknown.word_bigrams", context)


class TestUnusableModels:
    """Files that parse but that the estimator cannot use are refused."""

    @pytest.mark.parametrize("section, row", [
        ("main.class_transitions", "NOT-A-CLASS\tSTART-OF-SENTENCE \t3"),
        ("unknown.class_transitions", "NOT-A-CLASS\tPERSON said\t1"),
        ("unknown.class_transitions", "START-OF-SENTENCE\tPERSON unknown\\sword\t1"),
        ("main.class_transitions", "START-OF-SENTENCE\tPERSON said\t1"),
    ])
    def test_class_events_outside_the_inventory(self, tiny_model, section, row):
        text = with_row(serialize_model(tiny_model), section, row)
        with pytest.raises(ModelFormatError, match="bad event"):
            deserialize_model(text)

    @pytest.mark.parametrize("section, row", [
        ("main.class_transitions", "PERSON\tBOGUS said\t1"),
        ("main.class_transitions", "PERSON\tEND-OF-SENTENCE said\t1"),
        ("main.first_words", "said lowerCase\tBOGUS PERSON\t1"),
        ("unknown.first_words", "said lowerCase\tPERSON END-OF-SENTENCE\t1"),
        ("main.first_words", "said lowerCase\tSTART-OF-SENTENCE PERSON\t1"),
        ("main.word_bigrams", "hello lowerCase\tsaid lowerCase BOGUS\t1"),
        ("unknown.word_bigrams", "hello lowerCase\tsaid lowerCase START-OF-SENTENCE\t1"),
    ])
    def test_class_names_in_contexts_outside_the_inventory(self, tiny_model, section, row):
        text = with_row(serialize_model(tiny_model), section, row)
        with pytest.raises(ModelFormatError, match="bad context"):
            deserialize_model(text)

    @pytest.mark.parametrize("section, row", [
        ("main.class_transitions", "PERSON\tsaid\t1"),
        ("main.class_transitions", "PERSON\tPERSON said more\t1"),
        ("main.class_transitions", "PERSON\t\t1"),
        ("unknown.class_transitions", "PERSON\tPERSON\t1"),
        ("main.first_words", "said lowerCase\tPERSON\t1"),
        ("main.first_words", "said lowerCase\tPERSON PERSON said\t1"),
        ("main.word_bigrams", "hello lowerCase\tsaid lowerCase\t1"),
        ("unknown.word_bigrams", "hello lowerCase\t\t1"),
    ])
    def test_contexts_of_the_wrong_shape(self, tiny_model, section, row):
        text = with_row(serialize_model(tiny_model), section, row)
        with pytest.raises(ModelFormatError, match="bad context"):
            deserialize_model(text)

    @pytest.mark.parametrize("section, row, match", [
        ("main.word_bigrams", "hello shouting\tsaid lowerCase PERSON\t1", "bad event"),
        ("unknown.first_words", "unknown\\sword \tPERSON NOT-A-NAME\t1", "bad event"),
        ("main.word_bigrams", "hello lowerCase\tsaid shouting PERSON\t1", "bad context"),
    ])
    def test_features_outside_the_word_features(self, tiny_model, section, row, match):
        text = with_row(serialize_model(tiny_model), section, row)
        with pytest.raises(ModelFormatError, match=match):
            deserialize_model(text)

    @pytest.mark.parametrize("section", ["main.class_transitions", "main.word_bigrams",
                                         "unknown.first_words"])
    @pytest.mark.parametrize("count", ["same", "other"])
    def test_a_repeated_row(self, tiny_model, section, count):
        # The reference loader adds the two counts, and the model then
        # does not reserialize to the file.  The repeated event is no
        # greater than the one before it, so it is out of order.
        text = serialize_model(tiny_model)
        lines = text.split("\n")
        first = lines.index("[%s]" % section) + 1
        context, entry = lines[first].split("\t")[:2]
        event, _, written = entry.rpartition(" ")
        text = with_entry(text, section, context, "%s %s" % (
            event, written if count == "same" else int(written) + 1))
        loaded = ref_deserialize_model(text)
        assert serialize_model(loaded) != serialize_model(tiny_model)
        assert refused_at(text, "event out of order") == first + 1

    def test_rows_out_of_order(self, tiny_model):
        # The reference loader reads the swapped lines or events as the
        # sorted ones, so the file loads to the trained model but is not
        # its text.
        text = serialize_model(tiny_model)
        lines = text.split("\n")
        for section in ("main.class_transitions", "unknown.word_bigrams"):
            first = lines.index("[%s]" % section) + 1
            swapped = list(lines)
            swapped[first], swapped[first + 1] = lines[first + 1], lines[first]
            swapped = "\n".join(swapped)
            assert serialize_model(ref_deserialize_model(swapped)) == text
            assert refused_at(swapped, "context out of order") == first + 2
        i = next(i for i, line in enumerate(lines) if line.count("\t") > 1)
        context, first, second, *rest = lines[i].split("\t")
        swapped = lines[:i] + ["\t".join([context, second, first] + rest)] + lines[i + 1:]
        swapped = "\n".join(swapped)
        assert serialize_model(ref_deserialize_model(swapped)) == text
        assert refused_at(swapped, "event out of order") == i + 1

    def test_an_empty_vocabulary_word(self, tiny_model):
        # The empty word is END_WORD, which no text holds; a trailing or
        # a doubled space writes one.
        text = serialize_model(tiny_model)
        words = vocabulary_rows(text)
        for listed in (words + [""], [""] + words, words[:1] + [""] + words[1:]):
            assert refused_at(with_words(text, listed),
                              "^empty vocabulary word or whitespace in a word at line 4$") == 4

    def test_the_end_token_opens_no_region(self, tiny_corpus, tiny_model):
        # Loaded, END_TOKEN as a first word would outweigh the class's
        # unigram level, whose pooled END_TOKEN are only the closings
        # beyond the region count.  No first word has the end token's
        # id, so no file holds it.
        model = train(tiny_corpus)
        model.main.first_words.add((PERSON, START_OF_SENTENCE), END_TOKEN, 100000)
        assert model.main.begin_bigrams.total((PERSON,)) > \
            model.main.word_unigrams.total((PERSON,))
        with pytest.raises(ModelFormatError, match=r"\[main.first_words\] holds a value"):
            serialize_model(model)
        row = " other\tPERSON START-OF-SENTENCE\t100000"
        text = with_row(serialize_model(tiny_model), "main.first_words", row)
        assert refused_at(text, r"bad event '-' in \[main.first_words\]") == \
            line_of(text, "main.first_words", "PERSON START-OF-SENTENCE")

    def test_a_literal_carriage_return(self, tiny_model):
        # A carriage return in a word is whitespace, but the whole text is
        # checked for one first, and the refusal names its line.
        text = serialize_model(tiny_model)
        literal = with_words(text, vocabulary_rows(text) + ["a\rb"])
        assert refused_at(literal, "carriage return") == 4  # the words line
        # Any carriage return, a CRLF line end too: read_model reads with
        # universal newlines, so only text handed over directly holds one.
        assert refused_at(text.replace("\n", "\r\n"), "carriage return") == 1

    def test_a_literal_tab_in_a_word(self, tiny_model):
        # A tab and every other whitespace character: no word holds one,
        # so no writer writes one, and both loaders refuse the words line.
        text = serialize_model(tiny_model)
        for space in ("\t", "\x0b", "\x0c", "\x1c", "\x85", "\u00a0", "\u2028", "\u3000"):
            literal = with_words(text, vocabulary_rows(text) + ["a%sb" % space])
            assert refused_at(literal, "^empty vocabulary word or whitespace in a word "
                                       "at line 4$") == 4
            with pytest.raises(ModelFormatError, match="at line 4"):
                ref_deserialize_model(literal)

    @pytest.mark.parametrize("section, row", [
        ("main.class_transitions", "PERCENT\tTIME Zzzz\t1"),
        ("main.first_words", "Zzzz initCap\tPERSON NOT-A-NAME\t1"),
        ("main.word_bigrams", "Zzzz initCap\tsaid lowerCase NOT-A-NAME\t5"),
        ("main.word_bigrams", "said lowerCase\tZzzz initCap PERSON\t1"),
        ("unknown.class_transitions", "PERCENT\tTIME Zzzz\t1"),
        ("unknown.first_words", "Zzzz allCaps\tPERSON NOT-A-NAME\t1"),
        ("unknown.word_bigrams", "Zzzz allCaps\tunknown\\sword initCap PERSON\t1"),
        ("unknown.word_bigrams", "unknown\\sword allCaps\tZzzz initCap PERSON\t1"),
    ], ids=["transition-context", "first-word-event", "bigram-event", "bigram-context",
            "unknown-transition-context", "unknown-first-word-event",
            "unknown-bigram-event", "unknown-bigram-context"])
    def test_words_outside_the_vocabulary(self, tiny_model, section, row):
        # Where a word goes, UNKNOWN_WORD (0) loads in the unknown-word
        # tables only, and END_WORD (-) in none of these places.
        base = serialize_model(tiny_model)
        event, context, _ = row.split("\t")
        for word, loads in (("Zzzz", False), ("unknown\\sword", section.startswith("unknown")),
                            ("", False)):
            text = with_row(base, section, row.replace("Zzzz", word))
            if loads:
                deserialize_model(text)
            else:
                refusal = "bad context" if "Zzzz" in context else "bad event"
                assert refused_at(text, refusal) == \
                    line_of(text, section, context.replace("Zzzz", word))

    # int() reads each of these as a positive count, but serialize_model
    # never writes one, so a loaded file would not reserialize to itself.
    @pytest.mark.parametrize("count", ["1_0", " 7 ", "7 ", "\u0663", "07", "+3",
                                       pytest.param("1" * 5000, id="5000-digits")])
    def test_counts_not_in_the_written_form(self, tiny_model, count):
        row = "hello lowerCase\tsaid lowerCase PERSON\t%s" % count
        text = with_row(serialize_model(tiny_model), "main.word_bigrams", row)
        with pytest.raises(ModelFormatError, match="bad count|bad event"):
            deserialize_model(text)
        deserialize_model(with_row(serialize_model(tiny_model), "main.word_bigrams",
                                   row.rsplit("\t", 1)[0] + "\t3"))

    def test_sample_size_limit_on_both_sides_of_its_edge(self, tiny_model):
        # The class marginal sums every class-transition count, and a
        # class's word unigrams sum its first-word counts and more.
        text = serialize_model(tiny_model)
        for section, level in (("main.class_transitions", "class_marginal"),
                               ("unknown.first_words", "word_unigrams")):
            lines = text.split("\n")
            start = lines.index("[%s]" % section) + 1
            context, first, *rest = lines[start].split("\t")
            event, _, count = first.rpartition(" ")
            table_set, _ = section.split(".")
            pooled = () if level == "class_marginal" else (CLASS_IDS[int(context.split(" ")[0])],)
            others = getattr(getattr(tiny_model, table_set), level).total(pooled) - int(count)

            def with_total(total):
                lines[start] = "\t".join([context, "%s %d" % (event, total - others)] + rest)
                return "\n".join(lines)

            model = deserialize_model(with_total(2 ** 53 - 1))
            assert getattr(getattr(model, table_set), level).total(pooled) == 2 ** 53 - 1
            for result in Decoder(model).decode_document("Mr. John Smith said hello .\nZqx ."):
                assert -1e9 < result.log_score < 0
            for total in (2 ** 53, 10 ** 400):
                with pytest.raises(ModelFormatError, match=r"reaches 2\*\*53"):
                    deserialize_model(with_total(total))

    def test_every_count_row_at_an_extreme_loads_usable_or_is_refused(self, tiny_model):
        # Region-final contexts are read, and an out-of-vocabulary line
        # reads the unknown-word tables.
        text = "Smith John Smith said . Boston Boston .\nZqx Smith Qwv said ."
        lines = serialize_model(tiny_model).split("\n")
        entries = [(i, j) for i, line in enumerate(lines) for j in range(1, line.count("\t") + 1)]
        assert len(entries) > 100
        for i, j in entries:
            fields = lines[i].split("\t")
            for count in (7, 10 ** 6, 10 ** 12):
                fields[j] = "%s %d" % (fields[j].rpartition(" ")[0], count)
                mutated = lines[:i] + ["\t".join(fields)] + lines[i + 1:]
                try:
                    model = deserialize_model("\n".join(mutated))
                except ModelFormatError:
                    continue
                for result in Decoder(model).decode_document(text):
                    assert math.isfinite(result.log_score) and result.log_score < 0


@pytest.mark.parametrize("section, row, refusal", [
    ("main.word_bigrams", "said lowerCase\tunknown\\sword lowerCase NOT-A-NAME\t1",
     "bad context '0 12 7'"),
    ("main.word_bigrams", "unknown\\sword lowerCase\tsaid lowerCase NOT-A-NAME\t1",
     "bad event '0 12'"),
    ("main.first_words", "unknown\\sword initCap\tPERSON NOT-A-NAME\t1", "bad event '0 11'"),
    ("main.class_transitions", "PERSON\tNOT-A-NAME unknown\\sword\t1", "bad context '7 0'"),
    ("main.class_transitions", "PERSON\tNOT-A-NAME \t1", "bad context '7 -'"),
    ("unknown.class_transitions", "PERSON\tSTART-OF-SENTENCE said\t1", "bad context '8 4'"),
    ("main.word_bigrams", " allCaps\tsaid lowerCase PERSON\t1", "bad event '- 8'"),
], ids=["unknown-word-in-a-main-context", "unknown-word-in-a-main-event",
        "unknown-word-as-a-main-first-word", "unknown-word-in-a-main-transition",
        "end-word-after-a-class", "real-word-after-the-sentence-start",
        "end-token-with-a-feature"])
def test_rows_no_training_writes(tiny_model, section, row, refusal):
    """Rows that no training counts: UNKNOWN_WORD in a main table, the
    end word after a class other than START-OF-SENTENCE or a real word
    after it, and an end token with a feature.  Each has no id where it
    stands, so its line is refused, and none enters the pooled levels."""
    text = with_row(serialize_model(tiny_model), section, row)
    context = row.split("\t")[1]
    assert refused_at(text, refusal) == line_of(text, section, context)


def _mutations(lines):
    """One mutation of the lines of a model file."""
    rows = [i for i, line in enumerate(lines) if "\t" in line]
    line = st.integers(min_value=0, max_value=len(lines) - 1)
    chars = st.sampled_from("\t \\\r[]01ab+-:XZsnté")

    def with_count(i, count):
        return lines[:i] + ["%s %s" % (lines[i].rpartition(" ")[0], count)] + lines[i + 1:]

    def with_entry_repeated(i, j):
        fields = lines[i].split("\t")
        j = 1 + j % (len(fields) - 1)
        return lines[:i] + ["\t".join(fields[:j + 1] + fields[j:])] + lines[i + 1:]

    def with_char(i, at, char, replace):
        at = min(at, len(lines[i]))
        text = lines[i][:at] + char + lines[i][at + replace:]
        return lines[:i] + [text] + lines[i + 1:]

    def swapped(i, j):
        mutated = list(lines)
        mutated[i], mutated[j] = lines[j], lines[i]
        return mutated

    return st.one_of(
        line.map(lambda i: lines[:i] + lines[i + 1:]),
        st.tuples(line, line).map(lambda ij: lines[:ij[0]] + [lines[ij[1]]] + lines[ij[0]:]),
        st.tuples(line, line).map(lambda ij: swapped(*ij)),
        st.tuples(st.sampled_from(rows),
                  st.sampled_from(["0", "1", "2", "7", "07", "x", str(2 ** 53)])).map(
            lambda ic: with_count(*ic)),
        st.tuples(st.sampled_from(rows), st.integers(min_value=0, max_value=9)).map(
            lambda ij: with_entry_repeated(*ij)),
        st.tuples(line, st.integers(min_value=0, max_value=40), chars, st.booleans()).map(
            lambda args: with_char(*args)))


class TestAgainstTheReferenceLoader:
    """The loader against ``reference.ref_deserialize_model``, which adds
    each event through ``CondTable.add`` and sums the pooled levels a
    context at a time."""

    @settings(derandomize=True, deadline=None, max_examples=400)
    @given(data=st.data())
    def test_mutated_files_load_alike_or_are_refused(self, tiny_model, data):
        lines = serialize_model(tiny_model).split("\n")
        text = "\n".join(data.draw(_mutations(lines)))
        try:
            reference = ref_deserialize_model(text)
        except ModelFormatError:
            reference = None
        try:
            loaded = deserialize_model(text)
        except ModelFormatError as exc:
            # Only the checks the reference lacks may refuse what it loads.
            assert reference is None or any(
                refusal in str(exc) for refusal in (
                    "out of order", "carriage return", "no newline")), str(exc)
            return
        assert reference is not None
        assert loaded.vocabulary == reference.vocabulary
        assert loaded.feature_config == reference.feature_config
        for side in ("main", "unknown"):
            tables, expected = getattr(loaded, side), getattr(reference, side)
            for name in tables.NAMES + POOLED:
                assert getattr(tables, name) == getattr(expected, name), (side, name)

    @settings(derandomize=True, deadline=None, max_examples=400)
    @given(data=st.data())
    def test_a_mutated_file_is_refused_or_the_writers_form(self, tiny_model, data):
        # One text per model: whatever loads reserializes to itself.
        lines = serialize_model(tiny_model).split("\n")
        text = "\n".join(data.draw(_mutations(lines)))
        try:
            loaded = deserialize_model(text)
        except ModelFormatError:
            return
        assert serialize_model(loaded) == text

    def test_pooled_levels_of_a_file_no_training_writes(self):
        # One END_TOKEN closes each region, so a trained class's closing
        # END_TOKEN are its region count and its word unigrams hold none.
        # A file can hold more, which the unigram level keeps, so that no
        # word-bigram context holds more samples, or fewer: with John's
        # first-word count raised to 40, PERSON's 41 regions exceed its
        # closing END_TOKEN.
        corpus = parse_annotated(ANNOTATED_FIXTURE)
        text = serialize_model(train(corpus))
        for section, context, event, surplus in (
                ("main.word_bigrams", "Smith initCap PERSON", "", 39),
                ("main.first_words", "PERSON NOT-A-NAME", "John initCap", 0)):
            lines = text.split("\n")
            i = line_of(text, section, context) - 1
            ids = spelled(text, event) if event else "-"
            fields = lines[i].split("\t")
            fields[fields.index(ids + " 1")] = ids + " 40"
            lines[i] = "\t".join(fields)
            loaded = deserialize_model("\n".join(lines))
            expected = RefCountTables(*loaded.main.tables().values())
            for name in POOLED:
                assert getattr(loaded.main, name) == getattr(expected, name), name
            unigrams = loaded.main.word_unigrams
            assert unigrams.count((PERSON,), END_TOKEN) == surplus
            bigrams = loaded.main.word_bigrams
            assert max(bigrams.total(context) for context in bigrams.contexts()
                       if context[2] == PERSON) <= unigrams.total((PERSON,))


def test_load_time_is_linear(tmp_path):
    """``read_model``'s time per table event grows at most 1.5-fold from
    a model's file to the file of a model with four times its events.

    The larger model is trained on the smaller one's corpus with each
    sentence followed by three copies of it, every word renamed, so its
    file holds four times the events, bar the few that the copies share;
    more synthetic sentences would not do, because the synthetic
    vocabulary saturates.  Each event is one tab of a file.  A loader
    that scans the file's lines once per new context reads about 3.0
    here, and a linear one about 1.0.  n is chosen so that one load of
    the smaller file takes about 15 ms or more.  Sizes alternate, and
    the gate takes the median of the per-pair ratios, as
    ``test_decode_time_is_linear`` does.
    """
    corpus = generate_corpus(1000, seed=31)
    copies = [AnnotatedSentence([word + "~%d" % copy for word in sentence.tokens],
                                sentence.regions) for sentence in corpus for copy in (1, 2, 3)]
    small, large = tmp_path / "small.nf", tmp_path / "large.nf"
    write_model(train(corpus), small)
    write_model(train([sentence for i, original in enumerate(corpus)
                       for sentence in [original] + copies[3 * i:3 * i + 3]]), large)
    events = [path.read_text(encoding="utf-8").count("\t") for path in (small, large)]
    assert 3.99 < events[1] / events[0] <= 4
    ratios = [ratio * events[0] / events[1] for ratio in pair_ratios(read_model, small, large)]
    assert statistics.median(ratios) <= 1.5, ratios


class TestWriteModel:
    """A model file is replaced whole or not at all."""

    @pytest.fixture
    def old_file(self, tmp_path):
        path = tmp_path / "model.nf"
        path.write_bytes(b"the previous model\n")
        return path

    def test_failed_serialization_keeps_the_old_file(self, tiny_model, old_file,
                                                     monkeypatch):
        def broken(model):
            raise RuntimeError("serialization failed")

        monkeypatch.setattr(model_io, "serialize_model", broken)
        with pytest.raises(RuntimeError, match="serialization failed"):
            write_model(tiny_model, old_file)
        assert old_file.read_bytes() == b"the previous model\n"
        assert os.listdir(old_file.parent) == ["model.nf"]

    def test_failed_write_keeps_the_old_file(self, tiny_model, old_file, monkeypatch):
        def broken(source, target):
            raise OSError("rename failed")

        monkeypatch.setattr(os, "replace", broken)
        with pytest.raises(OSError, match="rename failed"):
            write_model(tiny_model, old_file)
        assert old_file.read_bytes() == b"the previous model\n"
        assert os.listdir(old_file.parent) == ["model.nf"]

    @pytest.mark.parametrize("word", ["two words", "a\tb", UNKNOWN_WORD, ""])
    def test_a_word_no_tokenizer_makes_is_written_nowhere(self, tiny_model, old_file, word):
        # Training refuses such a word, so only a hand-built model holds
        # one, and it is refused before anything is written.
        model = TrainedModel(Vocabulary(tiny_model.vocabulary.words() + [word]),
                             tiny_model.main, tiny_model.unknown, tiny_model.feature_config)
        with pytest.raises(ModelFormatError) as info:
            serialize_model(model)
        assert str(info.value) == "vocabulary word %r is empty or holds whitespace" % (word,)
        with pytest.raises(ModelFormatError):
            write_model(model, old_file)
        assert old_file.read_bytes() == b"the previous model\n"
        assert os.listdir(old_file.parent) == ["model.nf"]

    def test_an_empty_vocabulary_is_written_nowhere(self, old_file):
        # Training refuses a corpus too small to hold a word, so only a
        # hand-built model has no words; no loader reads its file.
        model = TrainedModel(Vocabulary(), CountTables(), CountTables(), FeatureConfig())
        with pytest.raises(ModelFormatError, match="^the vocabulary is empty$"):
            serialize_model(model)
        with pytest.raises(ModelFormatError):
            write_model(model, old_file)
        assert old_file.read_bytes() == b"the previous model\n"
        assert os.listdir(old_file.parent) == ["model.nf"]

    def test_new_file_replaces_the_old_with_the_umask_mode(self, tiny_model, old_file):
        old_file.chmod(0o600)
        umask = os.umask(0o027)
        try:
            write_model(tiny_model, old_file)
        finally:
            os.umask(umask)
        assert old_file.read_text(encoding="utf-8") == serialize_model(tiny_model)
        assert old_file.stat().st_mode & 0o777 == 0o640
        assert os.listdir(old_file.parent) == ["model.nf"]

    def test_a_link_to_the_model_stays_a_link(self, tiny_model, old_file):
        link = old_file.parent / "current.nf"
        link.symlink_to(old_file.name)
        write_model(tiny_model, link)
        assert link.is_symlink()
        assert old_file.read_text(encoding="utf-8") == serialize_model(tiny_model)
        assert sorted(os.listdir(old_file.parent)) == ["current.nf", "model.nf"]
