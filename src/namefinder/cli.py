"""Command-line surface: train, decode, score, learning-curve.

Exit codes: 0 success, 1 usage (from ``_Parser``), 2 parse or format
problem (corpus, model file, alignment, unusable corpus, a file that is
not UTF-8), 3 I/O failure.  A command raises every other failure it
expects as ``_Failure(code, message)``; ``main`` alone prints it as
``namefinder: <message>`` to stderr and returns the code.
"""

import argparse
import sys
import time
from fractions import Fraction

from .corpus import NAME_CLASSES, ParseError, emit_annotated, parse_annotated
from .counts import TrainingError, train
from .decoder import Decoder
from .features import FeatureConfig
from .model_io import ModelFormatError, read_model, serialize_model, write_whole
from .scorer import AlignmentError, check_beta, format_report, score

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_FORMAT = 2
EXIT_IO = 3


class _Failure(Exception):
    """An expected failure, raised with its exit code and message."""


def _read_text(path, role):
    """The text of the ``role`` file at ``path``."""
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except UnicodeDecodeError as exc:
        raise _Failure(EXIT_FORMAT, "%s is not UTF-8: %s" % (role, exc)) from None
    except OSError as exc:
        raise _Failure(EXIT_IO, "cannot read %s: %s" % (role, exc)) from None


def _parsed(path, role):
    """The annotated sentences of the ``role`` file at ``path``."""
    try:
        return parse_annotated(_read_text(path, role))
    except ParseError as exc:
        raise _Failure(EXIT_FORMAT, "%s parse failed: %s" % (role, exc)) from None


def _write(path, text, role):
    """Replace the ``role`` file at ``path`` with ``text``, whole or not at all."""
    try:
        write_whole(path, text)
    except OSError as exc:
        raise _Failure(EXIT_IO, "cannot write %s: %s" % (role, exc)) from None


def cmd_train(corpus_path, model_path, feature_config: FeatureConfig) -> int:
    sentences = _parsed(corpus_path, "corpus")
    try:
        model = train(sentences, feature_config)
    except TrainingError as exc:
        raise _Failure(EXIT_FORMAT, str(exc)) from None
    _write(model_path, serialize_model(model), "model")
    print("vocabulary size: %d" % len(model.vocabulary))
    print("total words: %d" % sum(len(s.tokens) for s in sentences))
    for nc in NAME_CLASSES:
        count = sum(1 for s in sentences for r in s.regions if r.name_class == nc)
        print("%s regions: %d" % (nc, count))
    return EXIT_OK


def cmd_decode(model_path, input_path, output_path=None) -> int:
    try:
        model = read_model(model_path)
    except ModelFormatError as exc:
        raise _Failure(EXIT_FORMAT, "bad model file: %s" % exc) from None
    except OSError as exc:
        raise _Failure(EXIT_IO, "cannot read model: %s" % exc) from None
    text = _read_text(input_path, "input")
    started = time.perf_counter()
    results = Decoder(model).decode_document(text)
    elapsed = max(time.perf_counter() - started, 1e-9)
    output = emit_annotated([r.sentence for r in results])
    if output_path is None:
        sys.stdout.write(output)
    else:
        _write(output_path, output, "output")
    megabytes = len(text.encode("utf-8")) / 1e6
    print("throughput: %.1f MB/hr" % (megabytes / (elapsed / 3600.0)),
          file=sys.stderr)
    return EXIT_OK


def cmd_score(key_path, response_path, beta: float = 1.0) -> int:
    key, response = _parsed(key_path, "key"), _parsed(response_path, "response")
    try:
        report = score(key, response, beta)
    except AlignmentError as exc:
        raise _Failure(EXIT_FORMAT, "key/response mismatch: %s" % exc) from None
    print(format_report(report))
    return EXIT_OK


def cmd_learning_curve(corpus_path, test_path, fractions, beta: float,
                       feature_config: FeatureConfig) -> int:
    """fractions are sorted descending in (0, 1]."""
    training, test = _parsed(corpus_path, "corpus"), _parsed(test_path, "test corpus")
    print("fraction words F")
    for fraction in fractions:
        k = int(fraction * len(training) + Fraction(1, 2))
        prefix = training[:k]
        try:  # a prefix too small to form held-out halves
            model = train(prefix, feature_config)
        except TrainingError as exc:
            raise _Failure(EXIT_FORMAT, "fraction %s failed: %s" % (fraction, exc)) from None
        decoder = Decoder(model)
        response = [decoder.decode_sentence(s.tokens).sentence for s in test]
        report = score(test, response, beta)
        words = sum(len(s.tokens) for s in prefix)
        print("%s %d %.4f" % (fraction, words, report.overall.f_measure))
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; this surface reserves 2 for
    format problems, so remap usage errors to exit 1.  Options must be
    spelled in full: with prefix matching, adding or removing a flag
    could change what an existing abbreviated command line means.
    ``add_parser`` builds the subcommand parsers as this class too."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, "%s: error: %s\n" % (self.prog, message))


def _parse_fractions(parser, text):
    try:
        fractions = [Fraction(part) for part in text.split(",")]
    except (ValueError, ZeroDivisionError):
        parser.error("cannot parse fractions: %r" % text)
    for fraction in fractions:
        if not 0 < fraction <= 1:
            parser.error("fractions must be in (0, 1], got %s" % fraction)
    return tuple(sorted(fractions, reverse=True))


def _build_parser():
    parser = _Parser(prog="namefinder",
                     description="Trainable statistical name-finder.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a model on an annotated corpus")
    p.add_argument("corpus")
    p.add_argument("--model", required=True, help="model file to write")
    p.add_argument("--spanish-numbers", action="store_true",
                   help="treat comma as the decimal separator")

    p = sub.add_parser("decode", help="annotate plain text with a trained model")
    p.add_argument("input")
    p.add_argument("--model", required=True, help="model file to read")
    p.add_argument("--output", help="annotated output file (default stdout)")

    p = sub.add_parser("score", help="score a response file against a key file")
    p.add_argument("key")
    p.add_argument("response")
    p.add_argument("--beta", type=float, default=1.0,
                   help="recall weight in the F-measure (default 1)")

    p = sub.add_parser("learning-curve",
                       help="train on shrinking fractions and score each")
    p.add_argument("corpus")
    p.add_argument("test")
    p.add_argument("--fractions", default="1,1/2,1/4,1/8",
                   help="comma-separated training fractions")
    p.add_argument("--beta", type=float, default=1.0)
    p.add_argument("--spanish-numbers", action="store_true")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        check_beta(getattr(args, "beta", 1.0))
    except ValueError as exc:
        parser.error("--beta: %s" % exc)
    feature_config = FeatureConfig(
        swap_comma_period=getattr(args, "spanish_numbers", False))
    try:
        if args.command == "train":
            return cmd_train(args.corpus, args.model, feature_config)
        if args.command == "decode":
            return cmd_decode(args.model, args.input, args.output)
        if args.command == "score":
            return cmd_score(args.key, args.response, args.beta)
        return cmd_learning_curve(args.corpus, args.test,
                                  _parse_fractions(parser, args.fractions),
                                  args.beta, feature_config)
    except _Failure as failure:
        code, message = failure.args
        print("namefinder: %s" % message, file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
