"""The aggregation of ``tools/bench_pairs.py`` on hand-made run records."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

_GIT = ["git", "-c", "user.name=t", "-c", "user.email=t@t", "-c", "commit.gpgsign=false"]


def record(failed=0, paths="p", scores="s", **metrics):
    return {"correct": failed == 0, "attempted": 10, "failed": failed, "metrics": metrics,
            "paths_sha256": paths, "log_scores_sha256": scores}


def declared(**better):
    """End-to-end metrics as BENCHMARK.json declares them, each with a
    bound of 0.15."""
    return [{"name": name, "better": direction, "bound": 0.15}
            for name, direction in better.items()]


def pair(seed, parent, change):
    return {"seed": seed, "first": "parent" if seed % 2 == 0 else "change",
            "parent": parent, "change": change}


def test_medians_quartiles_and_pairs_won_follow_the_better_direction():
    pairs = [pair(seed, record(doc_ms_p50=parent, f_full=0.99),
                  record(doc_ms_p50=change, f_full=0.99))
             for seed, parent, change in ((0, 3.0, 2.0), (1, 4.0, 4.5), (2, 5.0, 4.0),
                                          (3, 6.0, 5.0), (4, 7.0, 7.0))]
    summary = bench_pairs.aggregate(pairs, declared(doc_ms_p50="lower", f_full="higher",
                                                    train_tok_per_s="higher"))
    latency = summary["metrics"]["doc_ms_p50"]
    assert latency["parent"] == {"median": 5.0, "q1": 3.5, "q3": 6.5}
    assert latency["change"] == {"median": 4.5, "q1": 3.0, "q3": 6.0}
    # Lower wins; the raised pair and the tied pair win for neither.
    assert (latency["pairs_won"], latency["pairs"], latency["better"]) == (3, 5, "lower")
    assert summary["metrics"]["f_full"]["pairs_won"] == 0
    # A metric that no run reports is left out.
    assert "train_tok_per_s" not in summary["metrics"]


def test_higher_is_better_counts_increases():
    pairs = [pair(0, record(train_tok_per_s=100.0), record(train_tok_per_s=120.0)),
             pair(1, record(train_tok_per_s=100.0), record(train_tok_per_s=90.0))]
    metric = bench_pairs.aggregate(pairs, declared(train_tok_per_s="higher"))["metrics"][
        "train_tok_per_s"]
    assert metric["pairs_won"] == 1
    assert metric["parent"] == {"median": 100.0, "q1": 100.0, "q3": 100.0}


def test_each_pair_reports_failures_and_digest_matches():
    pairs = [pair(0, record(), record()),
             pair(1, record(), record(failed=2, paths="q")),
             pair(2, record(scores="t"), record())]
    checks = bench_pairs.aggregate(pairs, [])["pairs"]
    assert [(c["seed"], c["first"], c["parent_failed"], c["change_failed"]) for c in checks] == \
        [(0, "parent", 0, 0), (1, "change", 0, 2), (2, "parent", 0, 0)]
    assert [(c["paths_match"], c["log_scores_match"]) for c in checks] == \
        [(True, True), (False, True), (True, False)]


@pytest.mark.parametrize("parent, change, better, expected", [
    # Medians 10 and 11.6: worse by 16% against a bound of 15%.
    ([9.0, 10.0, 10.0, 10.0, 11.0], [11.0, 11.6, 11.6, 11.6, 12.0], "lower", "worse"),
    # The same 16% on a higher-is-better metric is a gain: every pair
    # won, and the medians 1.6 apart against parent quartiles 9.5 and 10.5.
    ([9.0, 10.0, 10.0, 10.0, 11.0], [11.0, 11.6, 11.6, 11.6, 12.0], "higher", "improved"),
    # Medians 11.6 and 9.5: 18% lower on a higher-is-better metric.
    ([11.0, 11.6, 11.6, 11.6, 12.0], [9.0, 9.5, 9.5, 9.5, 11.0], "higher", "worse"),
    # Parent quartiles 8 and 12, 40% of the median, wider than the bound.
    ([7.0, 9.0, 10.0, 11.0, 13.0], [9.5, 10.0, 10.5, 10.0, 10.0], "lower", "unresolved"),
    # As wide, but every change run beats every parent run.
    ([7.0, 9.0, 10.0, 11.0, 13.0], [6.0, 6.5, 6.0, 6.9, 6.0], "lower", "within_bound"),
    ([7.0, 9.0, 10.0, 11.0, 13.0], [13.5, 14.0, 14.0, 13.1, 14.0], "higher", "within_bound"),
    # Narrow parent spread, median 5% worse.
    ([9.9, 10.0, 10.0, 10.0, 10.1], [10.5, 10.5, 10.4, 10.6, 10.5], "lower", "within_bound"),
    # 9 of 10 pairs won, medians 2.0 apart against parent quartiles 9.75
    # and 10.25: improved, on either direction.
    ([10.0] * 4 + [9.5, 10.5] * 3, [8.0] * 9 + [11.0], "lower", "improved"),
    ([10.0] * 4 + [9.5, 10.5] * 3, [12.0] * 9 + [9.0], "higher", "improved"),
    # 8 of 10 pairs won: a gain as large, not claimed.
    ([10.0] * 4 + [9.5, 10.5] * 3, [8.0] * 8 + [11.0] * 2, "lower", "within_bound"),
    # Every pair won, but the medians 0.4 apart inside quartiles 9.5 and 10.5.
    ([9.0, 10.0, 10.0, 10.0, 11.0], [9.5, 10.4, 10.4, 10.4, 11.5], "higher", "within_bound"),
    # 9 of 10 pairs won, but the one lost drags the median from 10 to 6.
    ([0.0] * 4 + [10.0] * 5 + [100.0], [1.0] * 4 + [11.0] * 5 + [0.0], "higher", "worse"),
])
def test_each_verdict_is_reached(parent, change, better, expected):
    assert bench_pairs.verdict(parent, change, better, 0.15) == expected
    pairs = [pair(seed, record(doc_ms_p50=p), record(doc_ms_p50=c))
             for seed, (p, c) in enumerate(zip(parent, change))]
    metric = bench_pairs.aggregate(
        pairs, [{"name": "doc_ms_p50", "better": better, "bound": 0.15}])["metrics"]["doc_ms_p50"]
    assert (metric["verdict"], metric["bound"]) == (expected, 0.15)


def test_flags_over_every_workload():
    clean = bench_pairs.aggregate([pair(0, record(), record())], [])
    failed = bench_pairs.aggregate([pair(1, record(failed=1), record())], [])
    differed = bench_pairs.aggregate([pair(2, record(), record(scores="t"))], [])
    assert bench_pairs.flags({"stream": clean, "docs": clean}) == \
        {"any_failed": False, "any_digest_differed": False}
    assert bench_pairs.flags({"stream": clean, "docs": failed}) == \
        {"any_failed": True, "any_digest_differed": False}
    assert bench_pairs.flags({"train": differed}) == \
        {"any_failed": False, "any_digest_differed": True}


def test_spread_of_one_value():
    assert bench_pairs.spread([2.5]) == {"median": 2.5, "q1": 2.5, "q3": 2.5}


def test_a_run_is_read_from_its_output_and_its_full_record(tmp_path):
    (tmp_path / "bench" / "out").mkdir(parents=True)
    (tmp_path / "bench" / "out" / "docs.json").write_text(
        json.dumps({"log_scores_sha256": "abc"}), encoding="utf-8")
    stdout = "\n".join([
        "workload docs  seed 3  trace 0  ops 100  failed 0  correct True",
        "  decoded paths sha256 0123",
        "  full record: bench/out/docs.json",
        json.dumps({"correct": True, "attempted": 100, "failed": 0,
                    "metrics": {"setup_s": {"value": 0.04, "unit": "s"}}}),
    ]) + "\n"
    assert bench_pairs.parse_run(stdout, str(tmp_path)) == {
        "correct": True, "attempted": 100, "failed": 0, "metrics": {"setup_s": 0.04},
        "paths_sha256": "0123", "log_scores_sha256": "abc"}


def test_only_a_clean_git_checkout_is_measured(tmp_path):
    with pytest.raises(SystemExit, match="not a git checkout"):
        bench_pairs.commit_of(str(tmp_path))
    subprocess.run(_GIT + ["init", "-q"], cwd=tmp_path, check=True)
    (tmp_path / "a.txt").write_text("1\n", encoding="utf-8")
    subprocess.run(_GIT + ["add", "a.txt"], cwd=tmp_path, check=True)
    subprocess.run(_GIT + ["commit", "-q", "-m", "a"], cwd=tmp_path, check=True)
    head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=tmp_path, check=True,
                          capture_output=True, text=True).stdout.strip()
    assert bench_pairs.commit_of(str(tmp_path)) == head
    (tmp_path / "a.txt").write_text("2\n", encoding="utf-8")
    with pytest.raises(SystemExit, match="differ from HEAD"):
        bench_pairs.commit_of(str(tmp_path))

_RUN_OK = '''import json, os, sys
os.makedirs("bench/out", exist_ok=True)
with open("bench/out/w.json", "w") as handle:
    json.dump({"log_scores_sha256": "abc"}, handle)
print("  decoded paths sha256 0123")
print("  full record: bench/out/w.json")
print(json.dumps({"correct": True, "attempted": 10, "failed": 0,
                  "metrics": {"doc_ms_p50": {"value": 2.0, "unit": "ms"}}}))
'''

_RUN_CRASHES = '''import sys
print("Traceback (most recent call last):", file=sys.stderr)
print("RuntimeError: the stub run failed", file=sys.stderr)
sys.exit(1)
'''


def _checkout(path, run_py):
    """A clean git checkout at ``path`` whose ``bench/run.py`` is ``run_py``."""
    (path / "bench").mkdir(parents=True)
    (path / "bench" / "run.py").write_text(run_py, encoding="utf-8")
    (path / "BENCHMARK.json").write_text(json.dumps({
        "run_seconds": 1, "workloads": [{"name": "w"}],
        "end_to_end": [{"name": "doc_ms_p50", "better": "lower", "bound": 0.15}]}),
        encoding="utf-8")
    subprocess.run(_GIT + ["init", "-q"], cwd=path, check=True)
    subprocess.run(_GIT + ["add", "bench/run.py", "BENCHMARK.json"], cwd=path, check=True)
    subprocess.run(_GIT + ["commit", "-q", "-m", "stub"], cwd=path, check=True)
    return str(path)


def test_a_run_that_exits_non_zero_is_recorded_and_the_pairs_go_on(tmp_path):
    parent = _checkout(tmp_path / "parent", _RUN_OK)
    change = _checkout(tmp_path / "change", _RUN_CRASHES)
    out = tmp_path / "pairs.json"
    status = bench_pairs.main([parent, change, "--pairs", "2", "--first-seed", "7",
                               "--out", str(out)])
    assert status == 1
    output = json.loads(out.read_text(encoding="utf-8"))
    assert (output["any_failed"], output["any_digest_differed"]) == (True, False)
    summary = output["workloads"]["w"]
    assert [run["seed"] for run in summary["runs"]] == [7, 8]
    for run in summary["runs"]:
        assert run["parent"]["exit_code"] == 0 and run["parent"]["failed"] == 0
        assert run["change"] == {
            "exit_code": 1, "metrics": {},
            "stderr_tail": ["Traceback (most recent call last):",
                            "RuntimeError: the stub run failed"]}
    assert [(check["parent_exit_code"], check["change_exit_code"], check["change_failed"],
             check["paths_match"], check["log_scores_match"])
            for check in summary["pairs"]] == [(0, 1, None, None, None)] * 2
    # No pair has the metric on both sides.
    assert summary["metrics"] == {}
