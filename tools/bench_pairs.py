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
  - per pair, ``failed`` and the exit code on each side, and whether
    the paths and log-score digests matched.
A run that exits non-zero is kept in its pair with its exit code and
the tail of its stderr, and lacks every metric; its pair's digests are
not compared (``null``), and the pairs go on.  At the top,
``any_failed`` says whether any run failed an operation or exited
non-zero, and ``any_digest_differed`` whether any compared pair's
digests differed.  The output is written in either case, and the exit
status is 1 if any run exited non-zero.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

PAIR_SIDES = ("parent", "change")
STDERR_TAIL_LINES = 20


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
    """One ``bench/run.py`` run in ``checkout``: its ``parse_run``
    record with ``exit_code`` 0, or, if it exited non-zero, its exit
    code, the last lines of its stderr and no metrics."""
    command = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
    result = subprocess.run(command, cwd=checkout, capture_output=True, text=True)
    if result.returncode != 0:
        return {"exit_code": result.returncode,
                "stderr_tail": result.stderr.splitlines()[-STDERR_TAIL_LINES:],
                "metrics": {}}
    return dict(parse_run(result.stdout, checkout), exit_code=0)


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
    that run's pair.  A run without an ``exit_code`` exited 0; one
    that exited non-zero has no ``failed`` count, and its pair's
    digest matches are None.
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
    checks = []
    for pair in pairs:
        check = {"seed": pair["seed"], "first": pair["first"]}
        for side in PAIR_SIDES:
            check[side + "_failed"] = pair[side].get("failed")
            check[side + "_exit_code"] = pair[side].get("exit_code", 0)
        compared = not (check["parent_exit_code"] or check["change_exit_code"])
        for digest, key in (("paths_sha256", "paths_match"),
                            ("log_scores_sha256", "log_scores_match")):
            check[key] = (pair["parent"].get(digest) == pair["change"].get(digest)
                          if compared else None)
        checks.append(check)
    return {"metrics": metrics, "pairs": checks}


def flags(workloads):
    """{"any_failed", "any_digest_differed"} over every pair of the
    workload summaries that ``aggregate`` gives."""
    checks = [check for summary in workloads.values() for check in summary["pairs"]]
    return {
        "any_failed": any(check[side + key] for check in checks for side in PAIR_SIDES
                          for key in ("_failed", "_exit_code")),
        "any_digest_differed": any(check[key] is False for check in checks
                                   for key in ("paths_match", "log_scores_match")),
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
                "%s exit %d" % (side, pair[side]["exit_code"]) if pair[side]["exit_code"]
                else "%s failed %d" % (side, pair[side]["failed"]) for side in PAIR_SIDES)),
                file=sys.stderr)
        summary = aggregate(pairs, declared["end_to_end"])
        summary["runs"] = pairs
        output["workloads"][workload] = summary
    output.update(flags(output["workloads"]))
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(output, handle, indent=1, sort_keys=True)
        handle.write("\n")
    crashed = any(pair[side]["exit_code"] for summary in output["workloads"].values()
                  for pair in summary["runs"] for side in PAIR_SIDES)
    return 1 if crashed else 0


if __name__ == "__main__":
    sys.exit(main())
