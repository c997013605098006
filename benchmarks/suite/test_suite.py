"""Self-tests of the benchmark (not of the program it measures).

    python -m pytest benchmarks/suite

Every workload runs at ``--scale 0.02`` in both modes, so the whole
file takes well under a minute.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
for _p in (HERE, os.path.join(ROOT, "src")):
    if _p not in sys.path:
        sys.path.insert(0, _p)

import gen  # noqa: E402
import run  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCH = json.load(_fh)

#: The seed-0 inputs the benchmark measures (``run_seconds``, scale 1).
#: A change here is a change of the benchmark's inputs.
PINNED = {
    "planner": "faaa9e0cb27a88b570810284ab79edb0b552aabc6349370fabafd917779bff9f",
    "churn": "5a311245f6ba0202e0433d0309dddb65d076b9f48cf46db0d1e65970fa543cf8",
    "evict": "f7a7036431d6b747225a53322972a7eb10a7587a833abe0f1f4de52b519cdca3",
    "replicated": "078e5e948182fd7702a24f5b4fc93848ff035b34e3c67e4351ae25987c7e70f1",
}

OUT = os.path.join(run.RUNS, "selftest")

#: Every (workload, trace) run at ``--scale 0.02``, longest first.
RUNS = sorted(
    ((w, t) for w in gen.WORKLOADS for t in (0, 1)),
    key=lambda wt: (wt[0] != "evict", wt[0] != "replicated", -wt[1]),
)


@pytest.fixture(scope="module")
def out_dir():
    shutil.rmtree(OUT, ignore_errors=True)
    os.makedirs(OUT)
    yield OUT
    shutil.rmtree(OUT, ignore_errors=True)


@pytest.fixture(scope="module")
def finished(out_dir):
    """Run every (workload, trace) pair, two at a time; returns
    ``(workload, trace) -> (exit status, stdout, stderr)``."""
    pending = list(RUNS)
    running: dict = {}
    done: dict = {}
    deadline = time.monotonic() + 300
    while pending or running:
        while pending and len(running) < 2:
            workload, trace = pending.pop(0)
            logs = os.path.join(out_dir, f"{workload}-{trace}")
            with open(logs + ".out", "w") as out, open(logs + ".err", "w") as err:
                running[(workload, trace)] = (logs, subprocess.Popen(
                    [
                        sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                        "--seed", "0", "--scale", "0.02", "--trace", str(trace),
                        "--trace-dir", os.path.join(out_dir, f"trace-{workload}"),
                    ],
                    stdout=out, stderr=err,
                ))
        for key, (logs, proc) in list(running.items()):
            if proc.poll() is not None:
                with open(logs + ".out") as out, open(logs + ".err") as err:
                    done[key] = (proc.returncode, out.read(), err.read())
                del running[key]
        if time.monotonic() > deadline:
            for _, proc in running.values():
                proc.kill()
                proc.wait()
            pytest.fail(f"benchmark runs still going after 300 s: {sorted(running)}")
        time.sleep(0.05)
    return done


def test_benchmark_json_matches_the_runner():
    assert [w["name"] for w in BENCH["workloads"]] == list(gen.WORKLOADS)
    assert any(m["name"] == "setup_s" and m["unit"] == "s" for m in BENCH["end_to_end"])
    assert all(0 < m["bound"] <= 0.25 for m in BENCH["end_to_end"])


@pytest.mark.parametrize("workload,trace", RUNS)
def test_every_metric_is_emitted_with_its_unit(finished, workload, trace):
    status, out, err = finished[(workload, trace)]
    assert status == 0, err
    last = json.loads(out.splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1
    spec = BENCH["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in last["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec
    }
    values = {k: v["value"] for k, v in last["metrics"].items()}
    assert all(isinstance(v, float) and math.isfinite(v) for v in values.values())
    if not trace:
        # A tiny run may reallocate nothing; everything else is positive.
        assert all(v > 0 for k, v in values.items() if k != "realloc_ratio")


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_stream_hashes_are_pinned_per_seed(workload):
    seconds = BENCH["run_seconds"]
    assert gen.run_digest(gen.build_run(workload, 0, seconds)) == PINNED[workload]
    small = gen.run_digest(gen.build_run(workload, 0, seconds, scale=0.02))
    assert small == gen.run_digest(gen.build_run(workload, 0, seconds, scale=0.02))
    assert small != gen.run_digest(gen.build_run(workload, 1, seconds, scale=0.02))


def test_gate_fails_when_the_reference_is_corrupted(out_dir):
    import loadgen

    stream = gen.build("churn", 0, BENCH["run_seconds"], scale=0.02)
    p = loadgen.service_pass([stream], os.path.join(out_dir, "gate"))
    assert run.verify(p).count == 0
    # The reference believes the first prefill insert had another size.
    first = dataclasses.replace(stream.prefill[0], size=stream.prefill[0].size + 1)
    p.rounds[0].stream = dataclasses.replace(stream, prefill=[first] + stream.prefill[1:])
    gate = run.verify(p)
    assert gate.count > 0
    assert any(first.name in m for m in gate.mismatches)


def test_gate_fails_when_the_planner_loses_a_job():
    import loadgen

    stream = gen.build("planner", 0, BENCH["run_seconds"], scale=0.02)
    assert run.verify(loadgen.planner_pass([stream])).count == 0
    # The generator expects one more job than the scheduler will hold.
    final = {"planner": {**stream.final["planner"], "planner.lost": 1}}
    p = loadgen.planner_pass([dataclasses.replace(stream, final=final)])
    assert run.verify(p).count > 0


def test_runner_exits_nonzero_without_the_program(out_dir):
    bare = os.path.join(out_dir, "bare")
    shutil.copytree(HERE, os.path.join(bare, "benchmarks", "suite"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), os.path.join(bare, "BENCHMARK.json"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/suite/run.py", "--workload", "planner",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def scaled_by(runs, f):
    return [(seed, v * f) for seed, v in runs]


def test_compare_verdicts():
    import compare

    a = list(enumerate([100.0, 101.0, 99.0, 100.5, 99.5], 1))
    assert compare.verdict(a, scaled_by(a, 1.05), lower=True, bound=0.1) == "no worse"
    assert compare.verdict(a, scaled_by(a, 1.2), lower=True, bound=0.1) == "regressed"
    assert compare.verdict(a, scaled_by(a, 0.8), lower=True, bound=0.1) == "improved"
    # Pairs are made by seed, not by the order the runs were given in.
    assert compare.paired([(1, 1.0), (2, 2.0)], [(2, 20.0), (3, 30.0), (1, 10.0)]) == [
        (1.0, 10.0), (2.0, 20.0)
    ]


def test_compare_exact_metrics_have_no_tolerance():
    import compare

    meta = {m["name"]: m for m in BENCH["end_to_end"] + BENCH["per_layer"]}
    assert compare.is_exact(meta["realloc_ratio"]) and compare.is_exact(meta["completion_ratio"])
    assert compare.is_exact(meta["kcursor.slots_moved_per_req"])
    assert not compare.is_exact(meta["latency_p50_ms"])
    # Ten distinct seeds, as in a spread sweep: b spreads ~4% between
    # seeds, so a 10% rise on every seed stays inside the 0.15 bound of
    # a median comparison -- but it is a change, so it regresses.
    b = [(seed, 1.0 + 0.01 * seed) for seed in range(1, 11)]
    assert compare.verdict(b, b, lower=True, bound=0.15, exact=True) == "same"
    assert compare.verdict(b, scaled_by(b, 1.1), lower=True, bound=0.15, exact=True) == "regressed"
    assert compare.verdict(b, scaled_by(b, 0.9), lower=True, bound=0.15, exact=True) == "improved"
    # One seed worse outweighs every other seed better.
    mixed = scaled_by(b, 0.9)[:-1] + [(10, 1.2)]
    assert compare.verdict(b, mixed, lower=True, bound=0.15, exact=True) == "regressed"
    assert compare.verdict(b, [(11, 1.0)], lower=True, bound=0.15, exact=True) == "unpaired"
