"""namefinder benchmark entry point.

    python3 bench/run.py --workload stream --seed 1 --seconds 15 --trace 0

Run from the repository root.  It imports the library from ``src/``,
runs one workload in this process (set-up builds the model in one child
process), prints every metric by name and unit, and prints as its last
line one JSON object with the keys correct, attempted, failed and
metrics.  ``--trace 0`` gives the end-to-end metrics, ``--trace 1`` the
per-layer ones.  The full record (digests, checks, and with --trace 1
the spans) goes to ``bench/out/``.  See bench/README.md.
"""

import argparse
import json
import os
import signal
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SRC_DIR = os.path.join(os.path.dirname(BENCH_DIR), "src")

EXIT_LIBRARY_MISSING = 2
EXIT_INPUTS_CHANGED = 3


def _parse_args(argv):
    parser = argparse.ArgumentParser(description="namefinder benchmark")
    parser.add_argument("--workload", required=True, choices=("stream", "docs", "train"))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


def _exit_on_sigterm(signum, frame):
    # An exception unwinds the run, so set-up's model-build child is
    # killed and reaped and temporary files are removed.
    sys.exit(128 + signum)


def main(argv=None):
    args = _parse_args(argv)
    signal.signal(signal.SIGTERM, _exit_on_sigterm)
    if not os.path.isfile(os.path.join(SRC_DIR, "namefinder", "__init__.py")):
        print("bench: no namefinder sources under %s; run from a full checkout"
              % SRC_DIR, file=sys.stderr)
        return EXIT_LIBRARY_MISSING
    sys.path.insert(0, SRC_DIR)
    import workloads

    try:
        record = workloads.run_workload(args.workload, args.seed, args.seconds,
                                        bool(args.trace))
    except workloads.InputsChanged as exc:
        print("bench: %s" % exc, file=sys.stderr)
        return EXIT_INPUTS_CHANGED

    print("workload %s  seed %d  trace %d  ops %d  failed %d  correct %s"
          % (args.workload, args.seed, args.trace, record["attempted"],
             record["failed"], record["correct"]))
    for failure in record["failures"]:
        print("  failure: %s" % failure)
    for name, ok in record["checks"].items():
        print("  check %s: %s" % (name, "ok" if ok else "FAILED"))
    print("  latency samples %d, operations timed %.2f s (%.2f s at nominal speed)"
          % (record["latency_samples"], record["timed_s_measured"],
             record["timed_s_at_nominal_speed"]))
    print("  decoded paths sha256 %s" % record["paths_sha256"])
    print("  inputs sha256 (default seed) %s" % record["inputs_sha256_default_seed"])
    for name, metric in record["metrics"].items():
        print("  %-36s %14.6g %s" % (name, metric["value"], metric["unit"]))
    print("  full record: %s" % os.path.relpath(record["result_file"]))
    print(json.dumps({key: record[key]
                      for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
