#!/usr/bin/env python3
"""Gate on the benchmark's exact work counters.

    python benchmarks/suite/run.py --seed 0 --seconds 2 --trace 0 --out .bench_runs/e2e.json
    python benchmarks/suite/run.py --seed 0 --seconds 2 --trace 1 --out .bench_runs/layers.json
    python scripts/work_counters.py benchmarks/baseline/work_counters.json \\
        .bench_runs/work_counters.json .bench_runs/e2e.json .bench_runs/layers.json

Takes the exact metrics out of the ``run.py`` reports -- the paper's two
ratios and every count and byte total, which a seed fixes
(``compare.is_exact``) -- writes them to FRESH in the baseline's shape,
and compares them with BASELINE seed by seed (``compare.verdict``).  The
exit status is 0 only when every value reads ``same``.  A changed value
fails whichever way it moved, and so does a value only one side has
(``unpaired``).  A change that moves a counter on purpose refreshes the
baseline in the same diff::

    cp .bench_runs/work_counters.json benchmarks/baseline/work_counters.json
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Any, Optional

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "benchmarks", "suite"))

import compare  # noqa: E402


def distill(paths: list[str], meta: dict[str, dict[str, Any]]) -> dict[str, Any]:
    """The exact metrics of the reports at ``paths``, as one report."""
    workloads: dict[str, dict[str, Any]] = {}
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        for run in doc["workloads"].values() if "workloads" in doc else [doc]:
            if "metrics" not in run:
                continue  # a failed run: its values go unpaired
            kept = workloads.setdefault(
                run["workload"], {"workload": run["workload"], "seed": run["seed"], "metrics": {}}
            )
            if kept["seed"] != run["seed"]:
                raise SystemExit(f"{path}: {run['workload']} ran seed {run['seed']}, not {kept['seed']}")
            kept["metrics"].update(
                (name, m) for name, m in run["metrics"].items() if compare.is_exact(meta[name])
            )
    return {"workloads": workloads}


def main(argv: Optional[list[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("baseline", help="the committed exact values")
    ap.add_argument("fresh", help="where to write this run's exact values")
    ap.add_argument("reports", nargs="+", help="run.py --out reports")
    a = ap.parse_args(argv)
    with open(compare.BENCHMARK, encoding="utf-8") as fh:
        bench = json.load(fh)
    meta = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    with open(a.fresh, "w", encoding="utf-8") as fh:
        json.dump(distill(a.reports, meta), fh, indent=2, sort_keys=True)
        fh.write("\n")

    old, new = compare.load_runs([a.baseline]), compare.load_runs([a.fresh])
    keys = sorted(old.keys() | new.keys())
    same = 0
    for workload, name in keys:
        was, now = old.get((workload, name), []), new.get((workload, name), [])
        m = meta.get(name, {})
        v = compare.verdict(was, now, m.get("better") != "higher", m.get("bound"), exact=True)
        same += v == "same"
        shown = [str([value for _, value in runs]) for runs in (was, now)]
        print(f"{workload:11s} {name:32s} {shown[0]:>20s} -> {shown[1]:20s} {v}")
    print(f"work counters: {same} of {len(keys)} exact values read same")
    return 0 if keys and same == len(keys) else 1


if __name__ == "__main__":
    raise SystemExit(main())
