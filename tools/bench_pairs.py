"""Alternating benchmark pairs of two checkouts, gathered in one JSON file.

    python3 tools/bench_pairs.py PARENT CHANGE --pairs 10 --first-seed 9301 \\
        --out pairs.json

PARENT and CHANGE are two clean git checkouts of this repository.  For
each workload in CHANGE's BENCHMARK.json and each pair i, it runs

    python3 bench/run.py --workload W --seed FIRST_SEED+i --seconds S --trace 0

with S the file's ``run_seconds``, once in each checkout, the parent
first in even pairs and the change first in odd ones, and reads each
run's last JSON line, its printed paths digest, and the log-score
digest of the full record it names.  Only the standard library is
used, and ``bench/`` runs as it is.

A checkout that is not a git work tree, or whose tracked files differ
from its HEAD commit, is refused, so the output names the trees it
measured.  The output holds the two checkouts' commits, every run's
values, and per workload:
  - per end-to-end metric of BENCHMARK.json, the parent's and the
    change's median and quartiles, the pairs the change won by the
    metric's ``better`` direction (a tie wins for neither), and a
    verdict against the metric's ``bound`` and the parent's spread
    (``verdict``);
  - per pair, ``failed`` on each side and whether the paths and
    log-score digests matched.
At the top, ``any_failed`` says whether any run failed an operation,
and ``any_digest_differed`` whether any pair's digests differed.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

PAIR_SIDES = ("parent", "change")


def parse_run(stdout, checkout):
    """The record of one ``bench/run.py`` run from its output: the last
    line's JSON (correct, attempted, failed, metric values), the printed
    paths digest and the log-score digest of its full record."""
    lines = stdout.strip().splitlines()
    last = json.loads(lines[-1])
    record = {key: last[key] for key in ("correct", "attempted", "failed")}
    record["metrics"] = {name: metric["value"] for name, metric in last["metrics"].items()}
    for line in lines:
        text = line.strip()
        if text.startswith("decoded paths sha256 "):
            record["paths_sha256"] = text.rsplit(" ", 1)[1]
        elif text.startswith("full record: "):
            path = os.path.join(checkout, text[len("full record: "):])
            with open(path, encoding="utf-8") as handle:
                record["log_scores_sha256"] = json.load(handle)["log_scores_sha256"]
    return record


def run_bench(checkout, workload, seed, seconds):
    """One ``bench/run.py`` run in ``checkout``, parsed by ``parse_run``."""
    command = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
    result = subprocess.run(command, cwd=checkout, capture_output=True, text=True,
                            check=True)
    return parse_run(result.stdout, checkout)


def spread(values):
    """{"median", "q1", "q3"} of the values; the quartiles are
    ``statistics.quantiles``' (exclusive method), or the value itself
    for a single value."""
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3}


def verdict(parent, change, better, bound):
    """The change's runs against the parent's on one metric, with
    ``bound`` a share of the parent's median and ``parent[i]`` paired
    with ``change[i]``:

      "worse"        the change's median is worse than the parent's by
                     more than the bound;
      "improved"     the change won at least 9 of every 10 pairs, and
                     its median beats the parent's by more than the
                     parent's interquartile range;
      "unresolved"   the parent's interquartile range is wider than the
                     bound, and not every change run beats every parent
                     run;
      "within_bound" any other case.
    """
    sign = 1 if better == "higher" else -1
    base = spread(parent)
    gain = sign * (spread(change)["median"] - base["median"])
    limit = bound * abs(base["median"])
    if -gain > limit:
        return "worse"
    won = sum(sign * (new - old) > 0 for old, new in zip(parent, change))
    if 10 * won >= 9 * len(parent) and gain > base["q3"] - base["q1"]:
        return "improved"
    beats_all = min(sign * value for value in change) > max(sign * value for value in parent)
    if base["q3"] - base["q1"] > limit and not beats_all:
        return "unresolved"
    return "within_bound"


def aggregate(pairs, declared):
    """The summary of one workload's pairs.

    ``pairs`` holds one {"seed", "first", "parent", "change"} per pair,
    each side a run record; ``declared`` is the ``end_to_end`` list of
    BENCHMARK.json, each metric's "name", "better" ("lower" or
    "higher") and "bound".  A metric that a run lacks is left out of
    that run's pair.
    """
    metrics = {}
    for metric in declared:
        name, direction = metric["name"], metric["better"]
        both = [(pair["parent"]["metrics"][name], pair["change"]["metrics"][name])
                for pair in pairs
                if name in pair["parent"]["metrics"] and name in pair["change"]["metrics"]]
        if not both:
            continue
        sign = 1 if direction == "higher" else -1
        parent_values = [parent for parent, _ in both]
        change_values = [change for _, change in both]
        metrics[name] = {
            "better": direction,
            "bound": metric["bound"],
            "parent": spread(parent_values),
            "change": spread(change_values),
            "pairs_won": sum(sign * (change - parent) > 0 for parent, change in both),
            "pairs": len(both),
            "verdict": verdict(parent_values, change_values, direction, metric["bound"]),
        }
    checks = [{
        "seed": pair["seed"],
        "first": pair["first"],
        "parent_failed": pair["parent"]["failed"],
        "change_failed": pair["change"]["failed"],
        "paths_match": pair["parent"].get("paths_sha256") == pair["change"].get("paths_sha256"),
        "log_scores_match": (pair["parent"].get("log_scores_sha256")
                             == pair["change"].get("log_scores_sha256")),
    } for pair in pairs]
    return {"metrics": metrics, "pairs": checks}


def flags(workloads):
    """{"any_failed", "any_digest_differed"} over every pair of the
    workload summaries that ``aggregate`` gives."""
    checks = [check for summary in workloads.values() for check in summary["pairs"]]
    return {
        "any_failed": any(check["parent_failed"] or check["change_failed"] for check in checks),
        "any_digest_differed": not all(check["paths_match"] and check["log_scores_match"]
                                       for check in checks),
    }


def commit_of(checkout):
    """The HEAD commit of ``checkout``; SystemExit if it has none or its
    tracked files differ from it."""
    head = subprocess.run(["git", "rev-parse", "--verify", "HEAD"], cwd=checkout,
                          capture_output=True, text=True)
    if head.returncode != 0:
        raise SystemExit("%s: not a git checkout with a commit" % (checkout,))
    if subprocess.run(["git", "diff", "--quiet", "HEAD"], cwd=checkout).returncode != 0:
        raise SystemExit("%s: tracked files differ from HEAD %s"
                         % (checkout, head.stdout.strip()))
    return head.stdout.strip()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    with open(os.path.join(args.change, "BENCHMARK.json"), encoding="utf-8") as handle:
        declared = json.load(handle)
    seconds = declared["run_seconds"]
    checkouts = {"parent": args.parent, "change": args.change}
    output = {"commits": {side: commit_of(checkouts[side]) for side in PAIR_SIDES},
              "seconds": seconds, "workloads": {}}
    for workload in (workload["name"] for workload in declared["workloads"]):
        pairs = []
        for i in range(args.pairs):
            seed = args.first_seed + i
            order = PAIR_SIDES if i % 2 == 0 else PAIR_SIDES[::-1]
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                pair[side] = run_bench(checkouts[side], workload, seed, seconds)
            pairs.append(pair)
            print("%s seed %d: %s" % (workload, seed, " ".join(
                "%s failed %d" % (side, pair[side]["failed"]) for side in PAIR_SIDES)),
                file=sys.stderr)
        summary = aggregate(pairs, declared["end_to_end"])
        summary["runs"] = pairs
        output["workloads"][workload] = summary
    output.update(flags(output["workloads"]))
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(output, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
