"""Smoke tests of the benchmark at tiny sizes.

Run from the repository root:  python -m pytest -q bench/tests
"""

import json
import math
import os
import shutil
import subprocess
import sys
import types

import pytest

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REPO_DIR = os.path.dirname(BENCH_DIR)
sys.path.insert(0, os.path.join(REPO_DIR, "src"))
sys.path.insert(0, BENCH_DIR)

import tracer  # noqa: E402
import workloads  # noqa: E402


def _declared(kind):
    with open(os.path.join(REPO_DIR, "BENCHMARK.json"), encoding="utf-8") as handle:
        return {m["name"]: m["unit"] for m in json.load(handle)[kind]}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_declared_metric_appears_with_its_unit(workload, trace, tmp_path):
    record = workloads.run_workload(workload, seed=3, seconds=0.01, trace=bool(trace),
                                    sizes=workloads.TINY_SIZES, out_dir=str(tmp_path))
    declared = _declared("per_layer" if trace else "end_to_end")
    assert {n: m["unit"] for n, m in record["metrics"].items()} == declared
    for metric in record["metrics"].values():
        assert isinstance(metric["value"], (int, float))
        assert math.isfinite(metric["value"])
    assert record["correct"], (record["checks"], record["failures"])
    assert record["attempted"] >= workloads.MIN_OPS
    assert record["failed"] == 0
    with open(record["result_file"], encoding="utf-8") as handle:
        written = json.load(handle)
    if trace:
        assert written["spans"] and written["result"]["metrics"] == record["metrics"]


def test_recorded_input_digests_match_the_generator():
    for sizes in (workloads.DEFAULT_SIZES, workloads.TINY_SIZES):
        workloads.check_inputs(sizes)


def test_changed_inputs_fail_loudly(tmp_path, monkeypatch):
    digest_file = tmp_path / "input_digests.json"
    digest_file.write_text(json.dumps({"seed": 1, "sha256": {"tiny": "0" * 64}}))
    monkeypatch.setattr(workloads, "DIGEST_FILE", str(digest_file))
    with pytest.raises(workloads.InputsChanged):
        workloads.check_inputs(workloads.TINY_SIZES)


def test_tracer_self_time_and_missing_targets(monkeypatch):
    module = types.ModuleType("bench_probe_module")

    def leaf():
        return sum(range(1000))

    def outer():
        return module.leaf() + module.leaf()

    module.leaf, module.outer = leaf, outer
    monkeypatch.setitem(sys.modules, module.__name__, module)
    t = tracer.Tracer(span_cap=2)
    t.install([(module.__name__, "leaf", "leaf"), (module.__name__, "outer", "outer"),
               (module.__name__, "gone", "gone")])
    assert module.outer() == 2 * leaf()
    t.uninstall()
    assert module.leaf is leaf and module.outer is outer
    assert t.missing == ["bench_probe_module.gone"]
    assert t.calls["gone"] == 0
    assert (t.calls["leaf"], t.calls["outer"]) == (2, 1)
    # outer is charged its children's whole intervals, so the tracer's
    # bookkeeping around them is in neither outer's nor leaf's self time.
    assert t.bookkeeping_s > 0
    assert t.self_s["outer"] == pytest.approx(
        t.total_s["outer"] - t.total_s["leaf"] - t.bookkeeping_s)
    assert t.self_s["leaf"] == t.total_s["leaf"]
    # Spans are kept as they close: both leaves, children of outer (id 0),
    # fill the cap and outer itself is dropped.
    assert [(s[0], s[1], s[4]) for s in t.spans] == [(1, "leaf", 0), (2, "leaf", 0)]
    assert t.dropped == 1


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(REPO_DIR, "BENCHMARK.json"), tmp_path)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "docs", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
