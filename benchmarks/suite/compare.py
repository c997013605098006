#!/usr/bin/env python3
"""Compare benchmark runs: spreads, medians and regression verdicts.

    python3 benchmarks/suite/compare.py A1.json A2.json ...
    python3 benchmarks/suite/compare.py A1.json A2.json ... -- B1.json B2.json ...

Each file is a report written by ``run.py --out`` (one workload, or all
four).  With one set, every (workload, metric) gets its median, its
quartiles and its spread -- the distance between the quartiles as a
share of the median -- next to the bound ``BENCHMARK.json`` fixes; the
exit status is 1 when a spread exceeds its bound, or when an exact
metric reads differently in two runs of one seed.  With two sets (A the
parent, B the change) each row also gets a verdict.  Runs are paired by
seed: the k-th run of a seed in A with the k-th run of that seed in B.

``improved``    B won at least 9 of 10 pairs and the medians differ by
                more than A's own quartile distance;
``no worse``    B's median is within the bound of A's;
``regressed``   B's median is worse than A's by more than the bound;
``unresolved``  the spread exceeds the bound, and not every B run beat
                every A run.

A metric is *exact* when a seed always gives the same value: the
paper's two ratios, and every count and byte total.  An exact metric has
no tolerance and is compared seed by seed: ``same`` when every pair
reads the same, ``improved`` when no pair got worse and one got better,
and ``regressed`` otherwise; ``unpaired`` when A and B share no seed.

The exit status is 1 when any end-to-end row is regressed, unresolved or
unpaired.  Per-layer metrics have no bound: they get ``improved``,
``worse`` or ``same`` by the pair rule alone.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from typing import Any, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK = os.path.join(os.path.dirname(os.path.dirname(HERE)), "BENCHMARK.json")

#: The paper's ``b`` and ``a``: fixed by the seed's request stream.
PAPER_RATIOS = ("realloc_ratio", "completion_ratio")
#: Units of work totals, which a seed fixes as well.
EXACT_UNITS = ("count", "bytes")

#: ``[(seed, value), ...]``, one entry per run.
Runs = list[tuple[int, float]]


def load_runs(paths: list[str]) -> dict[tuple[str, str], Runs]:
    """``(workload, metric) -> [(seed, value), ...]`` over every report in ``paths``."""
    out: dict[tuple[str, str], Runs] = {}
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        for run in doc["workloads"].values() if "workloads" in doc else [doc]:
            for name, m in run.get("metrics", {}).items():
                out.setdefault((run["workload"], name), []).append(
                    (run["seed"], float(m["value"]))
                )
    return out


def is_exact(meta: dict[str, Any]) -> bool:
    return meta["name"] in PAPER_RATIOS or meta["unit"] in EXACT_UNITS


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: list[float]) -> float:
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else 0.0


def by_seed(runs: Runs) -> dict[int, list[float]]:
    out: dict[int, list[float]] = {}
    for seed, value in runs:
        out.setdefault(seed, []).append(value)
    return out


def paired(a: Runs, b: Runs) -> list[tuple[float, float]]:
    """``(A value, B value)`` for every seed both sets ran: the k-th run
    of a seed in A with the k-th run of that seed in B."""
    seeds_a, seeds_b = by_seed(a), by_seed(b)
    return [
        pair
        for seed in sorted(seeds_a.keys() & seeds_b.keys())
        for pair in zip(seeds_a[seed], seeds_b[seed])
    ]


def verdict(
    a: Runs, b: Runs, lower: bool, bound: Optional[float], exact: bool = False
) -> str:
    """choosing-metrics sections 6.5 and 8, for one (workload, metric)."""
    def better(x: float, y: float) -> bool:
        return x < y if lower else x > y

    pairs = paired(a, b)
    if exact:
        if not pairs:
            return "unpaired"
        if all(y == x for x, y in pairs):
            return "same"
        if all(y == x or better(y, x) for x, y in pairs):
            return "improved"
        return "worse" if bound is None else "regressed"
    va, vb = [v for _, v in a], [v for _, v in b]
    qa1, ma, qa3 = quartiles(va)
    mb = statistics.median(vb)
    wins = sum(better(y, x) for x, y in pairs)
    gain = (ma - mb) if lower else (mb - ma)
    if pairs and wins >= 0.9 * len(pairs) and gain > qa3 - qa1:
        return "improved"
    if bound is None:
        losses = sum(better(x, y) for x, y in pairs)
        return "worse" if pairs and losses >= 0.9 * len(pairs) and -gain > qa3 - qa1 else "same"
    if all(better(y, x) for x in va for y in vb):
        return "no worse"
    if spread(va) > bound or spread(vb) > bound:
        return "unresolved"
    worse_by = -gain / abs(ma) if ma else 0.0
    return "regressed" if worse_by > bound else "no worse"


def main(argv: Optional[list[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if "--" in argv:
        k = argv.index("--")
        files_a, files_b = argv[:k], argv[k + 1:]
    else:
        files_a, files_b = argv, []
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("runs", nargs="+", help="run.py --out reports")
    files_a = ap.parse_args(files_a).runs
    with open(BENCHMARK, encoding="utf-8") as fh:
        bench = json.load(fh)
    meta: dict[str, dict[str, Any]] = {m["name"]: m for m in bench["end_to_end"]}
    meta.update({m["name"]: m for m in bench["per_layer"]})

    runs_a = load_runs(files_a)
    runs_b = load_runs(files_b) if files_b else {}
    failed = False
    head = f"{'workload':11s} {'metric':32s} {'median A':>12s} {'q1..q3 A':>23s} {'spread':>7s} {'bound':>6s}"
    print(head + ("" if not runs_b else f" {'median B':>12s} {'spread':>7s}  verdict"))
    for (workload, name), seeded in sorted(runs_a.items()):
        a = [v for _, v in seeded]
        m = meta.get(name, {"name": name, "unit": "", "better": "lower"})
        bound = m.get("bound")
        exact = is_exact(m)
        q1, med, q3 = quartiles(a)
        sa = spread(a)
        bound_s = f"{bound:6.3f}" if bound is not None else "     -"
        line = (f"{workload:11s} {name:32s} {med:12.6g} {q1:11.5g}..{q3:<10.5g} "
                f"{sa:7.4f} {bound_s}")
        if runs_b:
            b = runs_b.get((workload, name), [])
            if not b:
                continue
            v = verdict(seeded, b, m["better"] == "lower", bound, exact)
            line += f" {statistics.median(x for _, x in b):12.6g} {spread([x for _, x in b]):7.4f}  {v}"
            failed |= bound is not None and v in ("regressed", "unresolved", "unpaired")
        else:
            if exact and any(len(set(vs)) > 1 for vs in by_seed(seeded).values()):
                line += "  differs between runs of one seed"
                failed = True
            if bound is not None and sa > bound:
                line += "  spread exceeds bound"
                failed = True
        print(line)
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
