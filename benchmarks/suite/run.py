#!/usr/bin/env python3
"""The repository benchmark: planner / churn / evict / replicated.

One workload, the form a single measurement takes:

    python3 benchmarks/suite/run.py --workload churn --seed 0 --seconds 8 --trace 0

All four, each in a fresh interpreter, with a JSON report:

    python3 benchmarks/suite/run.py --seed 0 --out results.json
    python3 benchmarks/suite/run.py --seed 0 --trace 1 --out layers.json

``--trace 0`` measures with tracing off and reports the end-to-end
metrics; ``--trace 1`` additionally reruns the workload with tracing on
and reports the per-layer metrics (span files land in ``--trace-dir``).
Every run checks the program's answers against an in-process reference
and prints, as its last stdout line, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit status
is 0 only when every check passed.  README.md defines each workload
and metric.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import traceback
from typing import Any, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
#: Scratch space for server data dirs, and the default trace directory.
RUNS = os.path.join(ROOT, ".bench_runs")
#: Workloads, metrics (name, unit) and ``run_seconds``.
BENCHMARK = os.path.join(ROOT, "BENCHMARK.json")

import gen  # noqa: E402  (pure; needs nothing from the program)

#: Seconds after which a single-workload run gives up (servers stopped).
WATCHDOG_S = 170

#: An open-loop run whose generator fell this late (p99) is flagged.
LATENESS_FLAG_MS = 2.0


def _percentile(values: list, q: float) -> float:
    from repro.obs.metrics import percentile

    return float(percentile(sorted(values), q))


def _tail_quantile(n: int) -> float:
    """Highest of p99.9/p99/p90 with at least ten samples beyond it."""
    for q in (0.999, 0.99, 0.9):
        if n * (1.0 - q) >= 10:
            return q
    return 0.5


def verify(p: Any) -> Any:
    """The correctness gate for one pass; returns the :class:`layers.Gate`.

    ``planner``'s rounds were checked as they ended; a service round's
    answers are checked against a reference replay of its stream, and
    the last round's sessions (and every recovery cycle's primary and
    replica) against the reference's final state."""
    import layers

    if p.ref is not None:
        return p.gate
    gate = layers.Gate()
    for k, rnd in enumerate(p.rounds, 1):
        stream = rnd.stream
        ref = layers.Reference(stream, gate)
        owed_setup: list = []
        ref.apply(stream.prefill, answers=owed_setup)
        owed: list = []
        ref.apply(stream.requests, answers=owed)
        ref.compare(stream.prefill, owed_setup, rnd.prefill_results, f"round {k} set-up")
        ref.compare(stream.requests, owed, rnd.results, f"round {k}")
        ref.check_generator()
        rnd.terms = layers.paper_terms(ref.scheds)
    ref.check_final(p.observed)
    for k, cycle in enumerate(p.recoveries, 1):
        for role in ("primary", "replica"):
            before = gate.count
            ref.check_final(cycle[role])
            if gate.count > before:
                gate.mismatch(f"recovery cycle {k}: {role} lost acknowledged state")
    return gate


def end_to_end(p: Any) -> dict[str, float]:
    """Medians over the pass's rounds, plus the paper's pooled ratios."""
    import layers

    b, a = layers.paper_ratios([r.terms for r in p.rounds])
    return {
        "throughput_ops_s": p.median(lambda r: r.throughput),
        "latency_p50_ms": p.median(lambda r: _percentile(r.lat, 0.50)) * 1e3,
        "latency_p90_ms": p.median(lambda r: _percentile(r.lat, 0.90)) * 1e3,
        "setup_s": p.median(lambda r: r.setup_s),
        "peak_rss_mb": p.median(lambda r: r.rss_mb),
        "realloc_ratio": b,
        "completion_ratio": a,
    }


def _write_spans(tdir: str, rnd: Any, client_trace: str) -> None:
    """The traced round's spans, kept in memory until now: one
    ``loadgen.round`` root and one ``loadgen.request`` child per request
    (seconds from the round's first send), then the client tracer's."""
    t0 = min(t for t, _ in rnd.times)
    spans = [{"id": 0, "parent": None, "name": "loadgen.round",
              "t_start": 0.0, "t_end": max(t for _, t in rnd.times) - t0}]
    for i, (r, (sent, done), late) in enumerate(zip(rnd.stream.requests, rnd.times, rnd.late)):
        spans.append({
            "id": i + 1, "parent": 0, "name": "loadgen.request",
            "t_start": sent - t0, "t_end": done - t0, "late_s": late,
            "lane": r.lane, "session": r.session, "op": r.op,
        })
    with open(os.path.join(tdir, "loadgen.jsonl"), "w", encoding="utf-8") as fh:
        fh.writelines(json.dumps(span) + "\n" for span in spans)
    if client_trace:
        with open(os.path.join(tdir, "client.jsonl"), "w", encoding="utf-8") as fh:
            fh.write(client_trace)


def per_layer(base: Any, work: str, tdir: str) -> tuple:
    """Rerun the first round traced and time every layer rung on it."""
    import layers
    import loadgen

    stream = base.rounds[0].stream
    n = len(stream.requests)
    if base.ref is not None:
        traced = loadgen.planner_pass([stream], instrument=True)
        counted = traced.ref
        core_us = base.median(lambda r: sum(r.lat) / len(r.lat)) * 1e6
        one = traced.rounds[0]
        unattributed = 1.0 - sum(one.lat) / one.window
        answers: list = []
        aref = layers.Reference(stream)
        aref.apply(stream.prefill)
        aref.apply(stream.requests[: layers.PROTOCOL_RUNG_FRAMES], answers=answers)
    else:
        traced = loadgen.service_pass([stream], os.path.join(work, "traced"), trace_dir=tdir)
        counted = layers.Reference(stream)
        counted.instrument()
        counted.apply(stream.prefill)
        counted.mark()
        counted.apply(stream.requests)
        clean = layers.Reference(stream)
        clean.apply(stream.prefill)
        times: list = [None] * n
        clean.apply(stream.requests, times=times)
        core_us = sum(t1 - t0 for t0, t1 in times) / n * 1e6
        unattributed = traced.diag["trace.unattributed_frac"]
        answers = [r for r in base.rounds[0].results if r is not None]
    gate = verify(traced)
    counts, first_op = counted.measured_counts()
    m = layers.core_counts(counts, n)
    m["kcursor.us_per_req"] = layers.kcursor_rung(stream, counted.table_ops, first_op, n)
    m["core.us_per_req"] = core_us
    m["core.self_us_per_req"] = core_us - m["kcursor.us_per_req"]
    m.update(layers.snapshot_rung(counted.scheds))
    # The fsync policy the workload's servers run with (the default for planner).
    fsync = loadgen.GROUPS.get(stream.workload, {}).get("fsync", "interval")
    m.update(layers.journal_rung(stream, fsync, os.path.join(work, "journal")))
    m.update(layers.protocol_rung(stream.requests, answers))
    lat = [x for r in base.rounds for x in r.lat]
    m["loadgen.lateness_p99_ms"] = _percentile([x for r in base.rounds for x in r.late], 0.99) * 1e3
    m["loadgen.latency_p99_ms"] = _percentile(lat, 0.99) * 1e3
    m["loadgen.latency_tail_ms"] = _percentile(lat, _tail_quantile(len(lat))) * 1e3
    m["loadgen.samples"] = float(len(lat))
    # Latency, not throughput: churn's open loop pins its throughput.
    m["trace.overhead_frac"] = (
        _percentile(traced.rounds[0].lat, 0.50) / base.median(lambda r: _percentile(r.lat, 0.50))
        - 1.0
    )
    m["trace.unattributed_frac"] = unattributed
    _write_spans(tdir, traced.rounds[0], traced.client_trace)
    return m, traced.diag, gate


def run_one(args: argparse.Namespace, bench: dict[str, Any]) -> dict[str, Any]:
    """Measure one workload; returns its full report document, with the
    metrics ``bench`` (``BENCHMARK.json``) lists for the mode."""
    import loadgen

    streams = gen.build_run(args.workload, args.seed, args.seconds, args.scale)
    os.makedirs(RUNS, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=RUNS)
    try:
        if args.workload == "planner":
            base = loadgen.planner_pass(streams)
        else:
            base = loadgen.service_pass(streams, work)
        gate = verify(base)
        mismatches = list(gate.mismatches)
        count = gate.count
        n = sum(len(r.lat) for r in base.rounds)
        late = [x for r in base.rounds for x in r.late]
        diag: dict[str, Any] = {
            "error_frac": base.failed / n,
            "loadgen.lateness_p99_ms": _percentile(late, 0.99) * 1e3,
            "loadgen.tail_quantile": _tail_quantile(n),
            **base.diag,
        }
        if base.recoveries:
            diag["recovery_s"] = statistics.median(c["recovery_s"] for c in base.recoveries)
            diag["recovery.spawn_ms"] = statistics.median(
                c["spawn_s"] for c in base.recoveries) * 1e3
            diag["recovery.durable_lsn_total"] = base.recoveries[-1]["durable_lsn_total"]
        if streams[0].rate > 0 and diag["loadgen.lateness_p99_ms"] > LATENESS_FLAG_MS:
            diag["flag"] = "generator lateness p99 above 2 ms: the open loop fell behind"
        if args.trace:
            tdir = args.trace_dir or os.path.join(RUNS, "trace", args.workload)
            shutil.rmtree(tdir, ignore_errors=True)
            os.makedirs(tdir)
            metrics, traced_diag, tgate = per_layer(base, work, tdir)
            diag.update({f"traced.{k}": v for k, v in traced_diag.items()})
            mismatches += tgate.mismatches
            count += tgate.count
        else:
            metrics = end_to_end(base)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "scale": args.scale,
        "trace": args.trace,
        "stream_sha256": gen.run_digest(streams),
        "correct": count == 0 and base.failed == 0,
        "attempted": n,
        "failed": base.failed,
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
            for m in bench["per_layer" if args.trace else "end_to_end"]
        },
        "diagnostics": diag,
        "rounds": [
            {
                "throughput_ops_s": r.throughput,
                "latency_p50_ms": _percentile(r.lat, 0.50) * 1e3,
                "latency_p90_ms": _percentile(r.lat, 0.90) * 1e3,
                "setup_s": r.setup_s,
            }
            for r in base.rounds
        ],
        "mismatches": mismatches,
        "mismatch_count": count,
    }


def _print_report(doc: dict[str, Any]) -> None:
    print(
        f"# {doc['workload']}: seed {doc['seed']}, {doc['attempted']} requests, "
        f"stream {doc['stream_sha256'][:12]}, trace {doc['trace']}"
    )
    for name, m in doc["metrics"].items():
        print(f"{name:34s} {m['value']:>16.6g} {m['unit']}")
    for name, value in sorted(doc["diagnostics"].items()):
        shown = f"{value:.6g}" if isinstance(value, float) else value
        print(f"  {name} = {shown}")
    for text in doc["mismatches"]:
        print(f"MISMATCH {text}", file=sys.stderr)
    if doc["mismatch_count"] > len(doc["mismatches"]):
        print(f"MISMATCH ... {doc['mismatch_count']} in total", file=sys.stderr)
    print("correctness: " + ("PASS" if doc["correct"] else "FAIL"))


def _on_alarm(signum: int, frame: Any) -> None:
    raise TimeoutError(f"run exceeded {WATCHDOG_S} s")


def run_all(args: argparse.Namespace) -> int:
    """Every workload in its own interpreter; one combined report."""
    docs = {}
    ok = True
    for workload in gen.WORKLOADS:
        fd, out = tempfile.mkstemp(suffix=".json", dir=RUNS)
        os.close(fd)
        cmd = [
            sys.executable, os.path.abspath(__file__), "--workload", workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--scale", str(args.scale), "--trace", str(args.trace), "--out", out,
        ]
        if args.trace_dir:
            cmd += ["--trace-dir", os.path.join(args.trace_dir, workload)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        sys.stdout.write("\n".join(proc.stdout.splitlines()[:-1]) + "\n")
        try:
            with open(out, encoding="utf-8") as fh:
                docs[workload] = json.load(fh)
        except (OSError, json.JSONDecodeError):
            docs[workload] = {"workload": workload, "correct": False, "error": proc.returncode}
        finally:
            os.unlink(out)
        ok = ok and proc.returncode == 0 and docs[workload].get("correct") is True
    report = {"seed": args.seed, "trace": args.trace, "workloads": docs}
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
    print(json.dumps({
        "correct": ok,
        "attempted": sum(d.get("attempted", 0) for d in docs.values()),
        "failed": sum(d.get("failed", 0) for d in docs.values()),
        "workloads": {w: d.get("correct", False) for w, d in docs.items()},
    }))
    return 0 if ok else 1


def main(argv: Optional[list] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=gen.WORKLOADS,
                    help="run one workload (default: all four, each in a fresh interpreter)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=None,
                    help="sizes the fixed request count: seconds x nominal rate "
                         "(default: run_seconds from BENCHMARK.json)")
    ap.add_argument("--scale", type=float, default=1.0,
                    help="multiplies request and prefill counts (self-tests use 0.02)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: also run traced and report the per-layer metrics")
    ap.add_argument("--trace-dir", help="where --trace 1 writes span files "
                                        "(default .bench_runs/trace/WORKLOAD)")
    ap.add_argument("--out", help="write the full report (metrics, diagnostics) as JSON")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"run.py: no program to benchmark under {SRC}", file=sys.stderr)
        return 2
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    with open(BENCHMARK, encoding="utf-8") as fh:
        bench = json.load(fh)
    if args.seconds is None:
        args.seconds = float(bench["run_seconds"])
    # Failpoints stay off: the servers would arm them from the environment.
    os.environ.pop("REPRO_FAULTS", None)
    os.makedirs(RUNS, exist_ok=True)
    if args.workload is None:
        return run_all(args)
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.alarm(WATCHDOG_S)
    try:
        doc = run_one(args, bench)
    except Exception:
        traceback.print_exc()
        return 3
    finally:
        signal.alarm(0)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
    _print_report(doc)
    print(json.dumps({k: doc[k] for k in ("correct", "attempted", "failed", "metrics")}))
    sys.stdout.flush()
    return 0 if doc["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
