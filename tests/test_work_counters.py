"""The CI gate on the benchmark's exact work counters.

``scripts/work_counters.py`` compares the exact metrics of
``benchmarks/suite/run.py`` reports -- the paper's two ratios and every
count and byte total -- with the committed
``benchmarks/baseline/work_counters.json``.  These tests run no
benchmark: they pin the baseline's shape and check that the gate passes
a report equal to it and fails one whose values moved either way or are
missing on either side.
"""

import importlib.util
import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GATE = os.path.join(ROOT, "scripts", "work_counters.py")
BASELINE = os.path.join(ROOT, "benchmarks", "baseline", "work_counters.json")

_spec = importlib.util.spec_from_file_location(
    "suite_compare", os.path.join(ROOT, "benchmarks", "suite", "compare.py")
)
compare = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare)


def _load(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


BENCH = _load(compare.BENCHMARK)
EXACT = {m["name"] for m in BENCH["end_to_end"] + BENCH["per_layer"] if compare.is_exact(m)}


def test_baseline_holds_every_exact_metric_of_every_workload_at_seed_0():
    doc = _load(BASELINE)
    assert len(EXACT) == 14
    assert sorted(doc["workloads"]) == sorted(w["name"] for w in BENCH["workloads"])
    for name, run in doc["workloads"].items():
        assert run["workload"] == name and run["seed"] == 0
        assert set(run["metrics"]) == EXACT


def test_compare_reads_the_baseline():
    runs = compare.load_runs([BASELINE])
    assert len(runs) == 4 * 14
    assert all(seeded == [(0, seeded[0][1])] for seeded in runs.values())


def _reports():
    """The baseline's values split the way CI's two runs report them,
    each run with a metric the gate must not read."""
    base = _load(BASELINE)["workloads"]
    ratios = set(compare.PAPER_RATIOS)
    out = []
    for trace, keep, extra in ((0, ratios, "throughput_ops_s"), (1, EXACT - ratios, "kcursor.us_per_req")):
        runs = {}
        for name, run in base.items():
            metrics = {k: dict(m) for k, m in run["metrics"].items() if k in keep}
            metrics[extra] = {"value": 1.0, "unit": "x"}
            runs[name] = {"workload": name, "seed": 0, "correct": True, "metrics": metrics}
        out.append({"seed": 0, "trace": trace, "workloads": runs})
    return out


def _gate(tmp_path, reports, baseline=BASELINE):
    """The gate's exit status, its output and the fresh values it wrote."""
    paths = []
    for k, doc in enumerate(reports):
        paths.append(str(tmp_path / f"report{k}.json"))
        with open(paths[-1], "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
    fresh = str(tmp_path / "fresh.json")
    proc = subprocess.run(
        [sys.executable, GATE, baseline, fresh, *paths], capture_output=True, text=True
    )
    return proc.returncode, proc.stdout, _load(fresh)


def test_gate_passes_a_run_equal_to_the_baseline(tmp_path):
    rc, out, fresh = _gate(tmp_path, _reports())
    assert rc == 0, out
    assert "56 of 56 exact values read same" in out
    # The fresh values are a ready baseline: refreshing is a copy.
    assert fresh == _load(BASELINE)


@pytest.mark.parametrize("change,verdict", [(1, "worse"), (-1, "improved")])
def test_gate_fails_a_counter_that_moved_either_way(tmp_path, change, verdict):
    reports = _reports()
    reports[1]["workloads"]["churn"]["metrics"]["kcursor.slots_moved_per_req"]["value"] += change
    rc, out, _ = _gate(tmp_path, reports)
    assert rc == 1
    line = next(l for l in out.splitlines() if "churn" in l and "slots_moved" in l)
    assert line.endswith(verdict)
    assert "55 of 56" in out


def test_gate_fails_a_metric_the_baseline_lacks(tmp_path):
    base = _load(BASELINE)
    del base["workloads"]["evict"]["metrics"]["snapshot.bytes"]
    path = str(tmp_path / "baseline.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(base, fh)
    rc, out, _ = _gate(tmp_path, _reports(), baseline=path)
    assert rc == 1
    line = next(l for l in out.splitlines() if "evict" in l and "snapshot.bytes" in l)
    assert line.endswith("unpaired")


def test_gate_fails_a_workload_that_reported_nothing(tmp_path):
    reports = _reports()
    reports[0]["workloads"]["replicated"] = {"workload": "replicated", "correct": False, "error": 3}
    rc, out, fresh = _gate(tmp_path, reports)
    assert rc == 1
    assert set(fresh["workloads"]["replicated"]["metrics"]) == EXACT - set(compare.PAPER_RATIOS)
    assert "54 of 56" in out
