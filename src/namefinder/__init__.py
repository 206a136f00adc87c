"""Trainable statistical name-finder.

A hidden Markov model whose states are name classes (person,
organization, location, time, date, percent, money, or none), each
generating its words with a class-specific bigram language model over
(word, word-feature) pairs.  Probabilities are smoothed by weighted
back-off through progressively less-conditioned estimates; a held-out
unknown-word model covers out-of-vocabulary words.  Decoding is exact
Viterbi search, linear in sentence length.

Typical use:

    from namefinder import train, parse_annotated, Decoder, score

    model = train(parse_annotated(open("train.txt").read()))
    results = Decoder(model).decode_document(open("input.txt").read())
"""

from .corpus import (
    AnnotatedSentence,
    DATE,
    END_OF_SENTENCE,
    INTERNAL_CLASSES,
    LOCATION,
    MONEY,
    NAME_CLASSES,
    NOT_A_NAME,
    ORGANIZATION,
    PERCENT,
    PERSON,
    ParseError,
    Region,
    START_OF_SENTENCE,
    TIME,
    emit_annotated,
    parse_annotated,
    tokenize,
)
from .counts import (
    CondTable,
    CountTables,
    TrainedModel,
    TrainingError,
    Vocabulary,
    collect_counts,
    segment_classes,
    train,
)
from .decoder import (
    DecodeResult,
    Decoder,
    regions_from_path,
    score_path,
)
from .estimator import (
    NUM_SUCCESSOR_CLASSES,
    lambda_weight,
    p_class_transition,
    p_class_transition_from,
    p_first_word,
    p_first_word_from,
    p_next_word,
    p_next_word_from,
)
from .features import (
    ALL_CAPS,
    CAP_PERIOD,
    CONTAINS_DIGIT_AND_ALPHA,
    CONTAINS_DIGIT_AND_COMMA,
    CONTAINS_DIGIT_AND_DASH,
    CONTAINS_DIGIT_AND_PERIOD,
    CONTAINS_DIGIT_AND_SLASH,
    END_TOKEN,
    END_WORD,
    FIRST_WORD,
    FOUR_DIGIT_NUM,
    FeatureConfig,
    INIT_CAP,
    LOWER_CASE,
    NUM_WORD_FEATURES,
    OTHER,
    OTHER_NUM,
    TWO_DIGIT_NUM,
    Token,
    UNKNOWN_WORD,
    WORD_FEATURES,
    compute_feature,
)
from .model_io import (
    ModelFormatError,
    deserialize_model,
    read_model,
    serialize_model,
    write_model,
)
from .scorer import (
    AlignmentError,
    ScoreReport,
    Tally,
    error_rate,
    format_report,
    score,
)
from .synthetic import generate_corpus, generate_sentence

__version__ = "1.0.0"
