"""In-process A/B timing of two checkouts' decoders, document by document.

    python3 tools/ab_decode.py PARENT CHANGE --out ab.json

PARENT and CHANGE are two checkouts of this repository.  Each one's
``src/namefinder`` is loaded under its own package name, so both run in
one process and the speed drift between processes stays out of the
ratios.  Each side trains its own model on ``generate_corpus(4000,
seed=5)``, and both decode one test text: the 400 documents of 25
sentences in ``generate_corpus(10000, seed=77)``, each document's
sentences joined by spaces.  Four passes each decode every document
with both sides, the side that goes first alternating from document to
document, and time each document's decode plus emit
(``Decoder.decode_document`` and ``emit_annotated``).  The first pass is
cold: each side's decoder reads freshly built rows, so row-building
cost lands there.  The three warm passes that follow give 1,200
alternations in all.

Every document's output, its emitted text and each sentence's log
score, is compared between the sides; at the first that differs, the
tool names the document and exits 1.  Otherwise it writes both
checkouts' commits (``null`` outside a git work tree, with whether the
tracked files match it) and the median of the per-document
change/parent time ratios with their quartiles, over the warm passes
(``ratio``) and over the cold pass (``cold_ratio``).  Only the standard
library is used.
"""

import argparse
import importlib.util
import json
import os
import statistics
import subprocess
import sys
import time

SIDES = ("parent", "change")
TRAIN_SENTENCES = 4000
DOCUMENTS = 400
SENTENCES_PER_DOCUMENT = 25
ROUNDS = 3  # timed passes over the documents after the warm one


def load_package(checkout, name):
    """The checkout's ``src/namefinder`` imported as package ``name``,
    and its ``synthetic`` module.  Modules left under that name by an
    earlier load are dropped first, so the package is read afresh."""
    for module in [m for m in sys.modules if m == name or m.startswith(name + ".")]:
        del sys.modules[module]
    package_dir = os.path.join(checkout, "src", "namefinder")
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(package_dir, "__init__.py"),
        submodule_search_locations=[package_dir])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return package, importlib.import_module(name + ".synthetic")


def describe(checkout):
    """The checkout's path, HEAD commit and whether its tracked files
    match that commit; the commit is None outside a git work tree."""
    def git(*args):
        return subprocess.run(["git", "-C", checkout, *args], capture_output=True, text=True)

    head = git("rev-parse", "HEAD")
    if head.returncode != 0:
        return {"checkout": os.path.abspath(checkout), "commit": None, "clean": None}
    status = git("status", "--porcelain", "--untracked-files=no")
    return {"checkout": os.path.abspath(checkout), "commit": head.stdout.strip(),
            "clean": status.returncode == 0 and not status.stdout.strip()}


def documents(synthetic):
    corpus = synthetic.generate_corpus(DOCUMENTS * SENTENCES_PER_DOCUMENT, seed=77)
    return [" ".join(" ".join(sentence.tokens)
                     for sentence in corpus[i:i + SENTENCES_PER_DOCUMENT])
            for i in range(0, len(corpus), SENTENCES_PER_DOCUMENT)]


def decode_timed(package, decoder, text):
    """(seconds for decode plus emit, (emitted text, log scores))."""
    started = time.perf_counter()
    results = decoder.decode_document(text)
    emitted = package.emit_annotated([result.sentence for result in results])
    elapsed = time.perf_counter() - started
    return elapsed, (emitted, [result.log_score for result in results])


def quartiles(ratios):
    q1, median, q3 = statistics.quantiles(ratios, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def compare(checkouts):
    """The output record, or the index of the first document whose
    outputs differ."""
    sides = []
    for side, checkout in zip(SIDES, checkouts):
        package, synthetic = load_package(checkout, "namefinder_ab_" + side)
        model = package.train(synthetic.generate_corpus(TRAIN_SENTENCES, seed=5))
        sides.append((package, package.Decoder(model)))
        if side == "parent":
            texts = documents(synthetic)
    cold_ratios = []
    ratios = []
    times = {side: [] for side in SIDES}
    for round_index in range(ROUNDS + 1):
        for i, text in enumerate(texts):
            order = (0, 1) if (i + round_index) % 2 == 0 else (1, 0)
            outputs = [None, None]
            elapsed = [0.0, 0.0]
            for s in order:
                elapsed[s], outputs[s] = decode_timed(*sides[s], text)
            if outputs[0] != outputs[1]:
                return i
            if not round_index:  # the first pass warms both sides
                cold_ratios.append(elapsed[1] / elapsed[0])
                continue
            ratios.append(elapsed[1] / elapsed[0])
            for side, seconds in zip(SIDES, elapsed):
                times[side].append(seconds)
    return {
        "documents": len(texts),
        "rounds": ROUNDS,
        "alternations": len(ratios),
        "train_sentences": TRAIN_SENTENCES,
        "ratio": quartiles(ratios),
        "cold_ratio": quartiles(cold_ratios),
        "doc_ms_median": {side: 1000 * statistics.median(times[side]) for side in SIDES},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--out", required=True, help="JSON file to write")
    args = parser.parse_args(argv)
    checkouts = (args.parent, args.change)
    result = compare(checkouts)
    if isinstance(result, int):
        print("document %d: the outputs differ" % result, file=sys.stderr)
        return 1
    output = {side: describe(checkout) for side, checkout in zip(SIDES, checkouts)}
    output.update(result)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(output, handle, indent=1, sort_keys=True)
        handle.write("\n")
    ratio, cold = result["ratio"], result["cold_ratio"]
    print("change/parent per document: median %.3f (quartiles %.3f-%.3f) over %d; "
          "cold pass %.3f (quartiles %.3f-%.3f)"
          % (ratio["median"], ratio["q1"], ratio["q3"], result["alternations"],
             cold["median"], cold["q1"], cold["q3"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
