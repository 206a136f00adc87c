"""In-process A/B timing of two checkouts' write rounds, stage by stage.

    python3 tools/ab_write.py PARENT CHANGE --out ab.json

PARENT and CHANGE are two checkouts of this repository, each loaded
under its own package name by ``ab_decode.load_package``, so both run
in one process and the speed drift between processes stays out of the
ratios.  Both read one annotated text, ``emit_annotated(generate_corpus(
4000, seed=1))``, the size of the benchmark's ``train`` corpus.  Each
round runs the write round once on each side, the side that goes first
alternating from round to round, and times each stage:
``parse_annotated`` of the text, ``train`` of its sentences,
``serialize_model`` of the model and ``deserialize_model`` of that text.

Every round's parsed sentences (tokens and regions) and model text are
compared between the sides; at the first that differs, the tool names
the round and exits 1.  Otherwise it writes both checkouts' commits
(``ab_decode.describe``), each side's median milliseconds per stage and
per round, and the median of the per-round change/parent time ratios
with their quartiles (``ratio``).  Only the standard library is used.
"""

import argparse
import json
import os
import statistics
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from ab_decode import describe, load_package, quartiles

SIDES = ("parent", "change")
STAGES = ("parse", "train", "serialize", "deserialize")
TRAIN_SENTENCES = 4000
ROUNDS = 60


def write_round(package, text):
    """(seconds per stage, (parsed sentences as plain tuples, model text))."""
    seconds = []
    values = [text]  # each stage's input, then its output
    for stage in (package.parse_annotated, package.train, package.serialize_model,
                  package.deserialize_model):
        started = time.perf_counter()
        values.append(stage(values[-1]))
        seconds.append(time.perf_counter() - started)
    _, sentences, _, model_text, _ = values
    parsed = [(sentence.tokens, [(region.start, region.end, region.name_class)
                                 for region in sentence.regions])
              for sentence in sentences]
    return seconds, (parsed, model_text)


def compare(checkouts):
    """The output record, or (round, what differs) at the first round
    whose outputs differ."""
    packages = []
    for side, checkout in zip(SIDES, checkouts):
        package, synthetic = load_package(checkout, "namefinder_ab_" + side)
        packages.append(package)
        if side == "parent":
            text = package.emit_annotated(synthetic.generate_corpus(TRAIN_SENTENCES, seed=1))
    ratios = []
    times = {side: [] for side in SIDES}
    for round_index in range(ROUNDS):
        order = (0, 1) if round_index % 2 == 0 else (1, 0)
        seconds = [None, None]
        outputs = [None, None]
        for s in order:
            seconds[s], outputs[s] = write_round(packages[s], text)
        for what, parent, change in zip(("parsed sentences", "model texts"), *outputs):
            if parent != change:
                return round_index, what
        ratios.append(sum(seconds[1]) / sum(seconds[0]))
        for side, stages in zip(SIDES, seconds):
            times[side].append(stages)

    def median_ms(side):
        stages = {stage: 1000 * statistics.median(column)
                  for stage, column in zip(STAGES, zip(*times[side]))}
        stages["round"] = 1000 * statistics.median(map(sum, times[side]))
        return stages

    return {
        "rounds": ROUNDS,
        "train_sentences": TRAIN_SENTENCES,
        "ratio": quartiles(ratios),
        "ms_median": {side: median_ms(side) for side in SIDES},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--out", required=True, help="JSON file to write")
    args = parser.parse_args(argv)
    checkouts = (args.parent, args.change)
    result = compare(checkouts)
    if isinstance(result, tuple):
        print("round %d: the %s differ" % result, file=sys.stderr)
        return 1
    output = {side: describe(checkout) for side, checkout in zip(SIDES, checkouts)}
    output.update(result)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(output, handle, indent=1, sort_keys=True)
        handle.write("\n")
    ratio = result["ratio"]
    print("change/parent per round: median %.3f (quartiles %.3f-%.3f) over %d rounds; %s"
          % (ratio["median"], ratio["q1"], ratio["q3"], ROUNDS,
             ", ".join("%s %.1f -> %.1f ms" % (stage, result["ms_median"]["parent"][stage],
                                               result["ms_median"]["change"][stage])
                       for stage in STAGES + ("round",))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
