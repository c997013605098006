"""Command-line interface: ``python -m repro <command>``.

Commands
--------
run         replay a workload file (or a generated workload) on a scheduler
            and print quality/cost metrics; ``--trace out.jsonl`` records a
            structured event trace, ``--metrics`` prints the registry
report      pretty-print a metrics snapshot from a JSONL trace (replayed)
            or a JSON snapshot file; ``--validate`` checks the schema only;
            ``--journal DIR`` replays a service journal directory instead;
            ``--journal DIR --trace FILE`` joins on-disk journal LSNs back
            to the server trace spans that wrote them (docs/OBSERVABILITY.md)
fsck        offline integrity scan of journal directories / cluster state;
            ``--repair`` applies idempotent, journaled repairs
            (docs/RECOVERY.md)
serve       run the durable scheduler service (TCP/UNIX, WAL + recovery;
            see docs/SERVICE.md)
client      send one request to a running service and print the result
top         refreshing terminal dashboard for a running service (sessions,
            queues, degraded state, latency percentiles)
experiments run experiments from the registry (alias of repro.sim.experiments)
gen         generate a workload trace file
inspect     pretty-print a k-cursor table driven by a trace of district ops
costs       classify a cost-function expression and show its pricing table
lint        run reprolint (RL001..RL006 invariant rules) over the tree;
            ``--mypy`` adds the strict-typing gate (see docs/LINTING.md)

``--log-level {debug,info,warning,error}`` (global) routes ``repro.*``
logging to stderr at the given level.
"""

from __future__ import annotations

import argparse
import sys

from repro.core.costfn import STANDARD_FAMILY


def _build_scheduler(name: str, max_size: int, p: int, delta: float):
    from repro.baselines import (
        AppendOnlyScheduler,
        OptimalRescheduler,
        PMABackedScheduler,
        SimpleGapScheduler,
    )
    from repro.core import ParallelScheduler, SingleServerScheduler

    if name == "ours":
        if p > 1:
            return ParallelScheduler(p, max_size, delta=delta)
        return SingleServerScheduler(max_size, delta=delta)
    if name == "optimal":
        return OptimalRescheduler(p=p)
    if name == "simple-gap":
        return SimpleGapScheduler(max_size)
    if name == "pma":
        return PMABackedScheduler(max_size, delta=delta)
    if name == "append":
        return AppendOnlyScheduler()
    raise SystemExit(f"unknown scheduler {name!r}")


def cmd_run(args: argparse.Namespace) -> int:
    from repro.sim.runner import run_trace
    from repro.workloads import generators
    from repro.workloads.trace import Trace

    if args.input:
        trace = Trace.load(args.input)
    else:
        trace = generators.mixed(
            args.ops, args.max_size, dist=args.dist, seed=args.seed
        )
    sched = _build_scheduler(args.scheduler, trace.max_size, args.p, args.delta)

    registry = tracer = None
    if args.metrics or args.trace:
        from repro.obs import MetricsRegistry, Tracer

        registry = MetricsRegistry()
        if args.trace:
            try:
                tracer = Tracer(args.trace, label=trace.label)
            except OSError as e:
                raise SystemExit(f"cannot write trace to {args.trace}: {e.strerror}")
    try:
        res = run_trace(
            sched,
            trace,
            p=args.p,
            checkpoint_every=max(1, len(trace) // 20),
            registry=registry,
            tracer=tracer,
            lost_slots=args.lost_slots,
        )
    finally:
        if tracer is not None:
            tracer.close()
    print(f"scheduler: {args.scheduler} (p={args.p})  trace: {trace.label} "
          f"({len(trace)} requests, Delta={trace.max_size})")
    print(f"active jobs: {len(sched)}   objective: {sched.sum_completion_times()}")
    print(f"approximation ratio: final {res.final_ratio:.4f}, worst {res.max_ratio:.4f}")
    print(f"jobs reallocated: {sched.ledger.moved_jobs_total()}  "
          f"migrations: {sched.ledger.total_migrations}")
    print("reallocation competitiveness b by cost function:")
    for label, f in STANDARD_FAMILY.items():
        print(f"  {label:<10} {sched.ledger.competitiveness(f):8.3f}")
    print(f"wall time: {res.wall_seconds:.2f}s")
    if tracer is not None:
        print(f"trace: wrote {tracer.records} records to {args.trace}")
    if args.metrics and res.metrics is not None:
        from repro.obs import format_snapshot

        print(format_snapshot(res.metrics, title="metrics:"))
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    import json

    from repro.obs import TraceSchemaError, format_snapshot, read_trace, replay_trace

    if args.journal and args.trace:
        from repro.service.introspect import journal_trace_report

        try:
            rep = journal_trace_report(
                args.journal, args.trace, tolerant=args.tolerant
            )
        except (OSError, TraceSchemaError) as e:
            raise SystemExit(f"cannot join {args.journal} with {args.trace}: {e}")
        for sid, sess in rep["sessions"].items():
            print(f"session {sid}: {sess['records']} journal record(s)")
            for row in sess["rows"]:
                line = (f"  lsn {row['lsn']:>6}  {row['op']:<7} "
                        f"{row['name']:<20}")
                if row["resolved"]:
                    line += f" trace={row['trace']} span={row['server_span']}"
                    if "journal_s" in row:
                        line += f" journal={row['journal_s'] * 1000:.3f}ms"
                    if "fsync_s" in row:
                        line += f" fsync={row['fsync_s'] * 1000:.3f}ms"
                else:
                    line += " (no trace span)"
                print(line)
        print(f"resolved {rep['resolved']}/{rep['records']} journal "
              f"record(s) against {rep['spans']} trace span(s)")
        return 0
    if args.journal:
        from repro.service import JournalCorrupt, replay_journal_dir

        try:
            registry, infos = replay_journal_dir(args.journal)
        except (ValueError, OSError, JournalCorrupt) as e:
            raise SystemExit(f"cannot replay journal {args.journal}: {e}")
        for info in infos:
            if info.get("skipped_moved"):
                print(f"session {info['session']}: skipped "
                      f"(moved to {info['moved_to']})")
                continue
            print(f"session {info['session']}: active={info['active']} "
                  f"objective={info['objective']} "
                  f"replayed={info['replayed']} "
                  f"from_snapshot={info['from_snapshot']}")
        print(format_snapshot(registry.snapshot(),
                              title=f"journal replay: {args.journal}"))
        return 0
    if not args.file:
        raise SystemExit("report: pass a trace/snapshot file or --journal DIR")
    path = args.file
    # A metrics snapshot is one JSON object with a "counters" key; anything
    # else (one record per line) is treated as a JSONL trace.
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as e:
        raise SystemExit(f"cannot read {path}: {e.strerror}")
    except json.JSONDecodeError:
        doc = None
    if isinstance(doc, dict) and "counters" in doc and "type" not in doc:
        print(format_snapshot(doc, title=f"metrics snapshot: {path}"))
        return 0
    try:
        if args.validate:
            n = sum(1 for _ in read_trace(path, validate=True))
            print(f"{path}: {n} records, schema ok")
            return 0
        registry = replay_trace(path)
    except TraceSchemaError as e:
        raise SystemExit(f"{path}: invalid trace: {e}")
    print(format_snapshot(registry.snapshot(), title=f"replayed trace: {path}"))
    return 0


def cmd_fsck(args: argparse.Namespace) -> int:
    import json

    from repro.recovery import run_fsck

    try:
        report = run_fsck(args.dirs, repair=args.repair)
    except (OSError, ValueError) as e:
        raise SystemExit(f"fsck: {e}")
    if args.json:
        print(json.dumps(report.to_doc(), indent=2, sort_keys=True))
    else:
        for line in report.human_lines():
            print(line)
    if report.clean:
        return 0
    # Repaired-everything is success (exit 0): a second run is clean.
    return 0 if args.repair and not report.unrepaired else 1


def cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro import faults
    from repro.obs import MetricsRegistry, Tracer, format_snapshot
    from repro.service import ServiceServer, SessionManager

    try:
        if args.faults:
            faults.activate(
                faults.parse_plan(args.faults, seed=args.faults_seed)
            )
        else:
            faults.activate_from_env()
    except faults.FaultError as e:
        raise SystemExit(f"bad fault spec: {e}")
    registry = MetricsRegistry()
    tracer = None
    if args.trace:
        from repro.service.tracing import fault_observer

        try:
            tracer = Tracer(args.trace, label="service")
        except OSError as e:
            raise SystemExit(f"cannot write trace to {args.trace}: {e.strerror}")
        # Fault firings become span events on the in-flight request trace
        # (even `exit` crashes leave the event behind: it is written and
        # flushed before the behavior runs).
        faults.set_fire_observer(fault_observer(tracer))
    manager = SessionManager(
        args.data,
        fsync=args.fsync,
        fsync_interval=args.fsync_interval,
        max_live=args.max_live,
        queue_depth=args.queue_depth,
        dedup_window=args.dedup_window,
        registry=registry,
        tracer=tracer,
        replica_of=args.replica_of,
        epoch=args.epoch,
    )
    if args.replicate:
        from repro.service.replica import Replicator, parse_targets

        try:
            repl = Replicator(
                parse_targets(args.replicate),
                ack_mode=args.ack_mode,
                registry=registry,
                tracer=tracer,
            )
        except ValueError as e:
            raise SystemExit(f"serve: {e}")
        manager.set_replicator(repl)
    try:
        server = ServiceServer(
            manager,
            host=args.host,
            port=args.port,
            unix_path=args.unix,
            ready_file=args.ready_file,
            trace_sample=args.trace_sample,
            trace_seed=args.trace_sample_seed,
        )
    except ValueError as e:
        raise SystemExit(f"serve: {e}")
    try:
        asyncio.run(server.run())
    except KeyboardInterrupt:
        pass
    finally:
        if tracer is not None:
            tracer.close()
    if args.metrics:
        print(format_snapshot(registry.snapshot(), title="service metrics:"))
    return 0


def cmd_client(args: argparse.Namespace) -> int:
    import json

    from repro.service import ServiceClient, ServiceError

    if (args.port is None) == (args.unix is None):
        raise SystemExit("client: pass exactly one of --port or --unix")
    fields: dict = {}
    if args.session is not None:
        fields["session"] = args.session
    if args.name is not None:
        fields["name"] = args.name
    if args.size is not None:
        fields["size"] = args.size
    if args.jobs:
        fields["jobs"] = True
    if args.config is not None:
        try:
            fields["config"] = json.loads(args.config)
        except json.JSONDecodeError as e:
            raise SystemExit(f"client: --config is not valid JSON: {e.msg}")
    tracer = None
    if args.trace:
        from repro.obs import Tracer

        try:
            tracer = Tracer(args.trace, label="client")
        except OSError as e:
            raise SystemExit(f"cannot write trace to {args.trace}: {e.strerror}")
    try:
        client = ServiceClient(args.host, args.port, unix_path=args.unix,
                               timeout=args.timeout, tracer=tracer)
    except OSError as e:
        raise SystemExit(f"client: cannot connect: {e}")
    try:
        result = client.call(args.op, **fields)
    except ServiceError as e:
        print(json.dumps({"error": e.code.value, "message": e.message},
                         indent=2, sort_keys=True))
        return 1
    finally:
        client.close()
        if tracer is not None:
            tracer.close()
    print(json.dumps(result, indent=2, sort_keys=True))
    return 0


def cmd_top(args: argparse.Namespace) -> int:
    import time

    from repro.service import ServiceClient, ServiceError
    from repro.service.top import render_top

    if (args.port is None) == (args.unix is None):
        raise SystemExit("top: pass exactly one of --port or --unix")
    target = args.unix if args.unix else f"{args.host}:{args.port}"
    frames = 0
    try:
        while True:
            try:
                client = ServiceClient(args.host, args.port,
                                       unix_path=args.unix,
                                       timeout=args.timeout)
            except OSError as e:
                raise SystemExit(f"top: cannot connect to {target}: {e}")
            try:
                stats = client.call("stats")
            except ServiceError as e:
                raise SystemExit(f"top: {e.code.value}: {e.message}")
            finally:
                client.close()
            frames += 1
            if not args.once:
                print("\x1b[2J\x1b[H", end="")
            print(render_top(stats, target=target,
                             max_sessions=args.sessions,
                             watch=args.watch),
                  flush=True)
            if args.once or (args.frames and frames >= args.frames):
                return 0
            time.sleep(args.interval)
    except KeyboardInterrupt:
        return 0


def cmd_cluster_serve(args: argparse.Namespace) -> int:
    import time

    from repro.cluster import ShardGroup

    extra: list[str] = []
    if args.trace_sample != 1.0:
        extra += ["--trace-sample", str(args.trace_sample)]
    group = ShardGroup(
        args.root,
        args.shards,
        host=args.host,
        fsync=args.fsync,
        max_live=args.max_live,
        replicas=args.replicas,
        ack_mode=args.ack_mode,
        extra_args=extra,
    )
    try:
        specs = group.start()
    except (OSError, RuntimeError) as e:
        raise SystemExit(f"cluster serve: {e}")
    for spec in specs:
        print(f"{spec.name}  {spec.host}:{spec.port}  {spec.data}")
    print(f"manifest: {group.manifest_path}", flush=True)
    # Anti-entropy sweep cadence, expressed in poll ticks.
    sweep_every = 0
    if args.reconcile_interval > 0:
        sweep_every = max(1, round(args.reconcile_interval / args.poll))
    ticks = 0
    try:
        while True:
            time.sleep(args.poll)
            ticks += 1
            # Failover before respawn: a dead primary must be fenced
            # and its replica promoted *before* the corpse is revived,
            # so the revival comes back read-only behind the fence.
            if args.replicas > 0:
                try:
                    events = group.check_failover()
                except (OSError, ValueError) as e:
                    print(f"failover check failed: {e}", flush=True)
                    events = []
                for ev in events:
                    print(
                        f"promoted {ev['promoted']} for {ev['shard']} "
                        f"(epoch {ev['epoch']}, {len(ev['sessions'])} "
                        f"session(s))",
                        flush=True,
                    )
            if not args.no_respawn:
                for name in group.respawn_dead():
                    print(f"respawned {name}", flush=True)
            if sweep_every and ticks % sweep_every == 0:
                try:
                    rec = group.reconcile()
                except (OSError, ValueError) as e:
                    print(f"reconcile failed: {e}", flush=True)
                    continue
                if not rec.clean:
                    for line in rec.human_lines()[1:]:
                        print(f"reconcile:{line}", flush=True)
    except KeyboardInterrupt:
        pass
    finally:
        group.stop()
    return 0


def cmd_cluster_reconcile(args: argparse.Namespace) -> int:
    import json
    import os

    from repro.recovery import reconcile_cluster

    root = args.root if os.path.isdir(args.root) else os.path.dirname(args.root)
    try:
        report = reconcile_cluster(
            root, apply=not args.dry_run, timeout=args.timeout
        )
    except (OSError, ValueError) as e:
        raise SystemExit(f"cluster reconcile: {e}")
    if args.json:
        print(json.dumps(report.to_doc(), indent=2, sort_keys=True))
    else:
        for line in report.human_lines():
            print(line)
    if report.errors:
        return 1
    return 0 if (report.clean or not args.dry_run) else 1


def cmd_cluster_status(args: argparse.Namespace) -> int:
    import json

    from repro.cluster import ClusterClient, load_manifest
    from repro.service import ServiceError

    try:
        shards = load_manifest(args.root)
    except (OSError, ValueError) as e:
        raise SystemExit(f"cluster status: {e}")
    out: dict = {}
    totals: dict = {}
    dead = 0
    with ClusterClient(shards, timeout=args.timeout) as cc:
        for spec in shards:
            row: dict = {"addr": f"{spec.host}:{spec.port}"}
            if spec.of is not None:
                row["of"] = spec.of
            try:
                health = cc.shard_client(spec.name).health()
                st = cc.shard_client(spec.name).repl_status()
            except (ServiceError, OSError) as e:
                dead += 1
                msg = e.message if isinstance(e, ServiceError) else str(e)
                out[spec.name] = {**row, "state": "dead", "error": msg}
                continue
            totals[spec.name] = int(st.get("total", 0))
            out[spec.name] = {
                **row,
                "state": "degraded" if health.get("degraded") else "alive",
                "role": health.get("role"),
                "epoch": health.get("epoch"),
                "sessions": health.get("sessions"),
                "durable_lsn": totals[spec.name],
                "fenced": bool(st.get("fenced")),
            }
    # Replica lag is the primary's durable LSN total minus the copy's;
    # computable only when both ends answered.
    for spec in shards:
        if spec.of is not None and spec.name in totals and spec.of in totals:
            out[spec.name]["lag"] = max(0, totals[spec.of] - totals[spec.name])
    print(json.dumps(out, indent=2, sort_keys=True))
    return 1 if dead else 0


def cmd_cluster_rebalance(args: argparse.Namespace) -> int:
    import json
    import os

    from repro.cluster import (
        ClusterClient,
        PlacementMap,
        ReallocationLedger,
        load_manifest,
        migrate_session,
        plan_rebalance,
    )
    from repro.cluster.placement import PLACEMENT_FILE
    from repro.cluster.rebalance import REALLOC_FILE
    from repro.service import ServiceError

    root = args.root if os.path.isdir(args.root) else os.path.dirname(args.root)
    try:
        shards = load_manifest(args.root)
    except (OSError, ValueError) as e:
        raise SystemExit(f"cluster rebalance: {e}")
    replicas = [s.name for s in shards if s.of is not None]
    if replicas:  # checked before any shard is touched (docs/CLUSTER.md)
        raise SystemExit(
            f"cluster rebalance: refusing a replicated cluster ({', '.join(replicas)}): "
            f"migration leaves a session's replicas behind, so a failover "
            f"after the move would serve the stale copy and lose later writes"
        )
    ppath = os.path.join(root, PLACEMENT_FILE)
    try:
        placement = (
            PlacementMap.load(ppath)
            if os.path.exists(ppath)
            else PlacementMap(s.name for s in shards)
        )
    except (OSError, ValueError) as e:
        raise SystemExit(f"cluster rebalance: bad {ppath}: {e}")
    with ClusterClient(shards, placement=placement,
                       timeout=args.timeout) as cc:
        loads: dict = {}
        try:
            for spec in shards:
                per = cc.shard_client(spec.name).stats().get(
                    "per_session"
                ) or []
                weights: dict = {}
                for row in per:
                    sid = row.get("session")
                    if not isinstance(sid, str):
                        continue
                    w = row.get("active")
                    weights[sid] = float(
                        w if w is not None else row.get("ops", 0) or 0
                    )
                loads[spec.name] = weights
        except ServiceError as e:
            raise SystemExit(
                f"cluster rebalance: {e.code.value}: {e.message}"
            )
        moves = plan_rebalance(
            loads, tolerance=args.tolerance,
            max_moves=args.max_moves if args.max_moves > 0 else None,
        )
        plan_doc = [
            {"session": m.session, "from": m.source, "to": m.target,
             "weight": m.weight}
            for m in moves
        ]
        if args.dry_run:
            print(json.dumps({"plan": plan_doc}, indent=2, sort_keys=True))
            return 0
        ledger = ReallocationLedger(os.path.join(root, REALLOC_FILE))
        done = []
        for mv in moves:
            try:
                done.append(migrate_session(
                    cc.shard_client(mv.source),
                    cc.shard_client(mv.target),
                    mv.session,
                    target_name=mv.target,
                    source_name=mv.source,
                    ledger=ledger,
                    epoch=placement.epoch,
                ))
            except ServiceError as e:
                raise SystemExit(
                    f"cluster rebalance: migrating {mv.session}: "
                    f"{e.code.value}: {e.message}"
                )
            placement.assign(mv.session, mv.target)
        placement.save(ppath)
        print(json.dumps(
            {"plan": plan_doc, "migrated": done,
             "ledger": ledger.summary(), "epoch": placement.epoch},
            indent=2, sort_keys=True,
        ))
    return 0


def cmd_gen(args: argparse.Namespace) -> int:
    from repro.workloads import adversary, generators

    if args.kind == "mixed":
        trace = generators.mixed(args.ops, args.max_size, dist=args.dist, seed=args.seed)
    elif args.kind == "churn":
        trace = generators.churn(args.ops, args.working_set, args.max_size, seed=args.seed)
    elif args.kind == "grow-shrink":
        trace = generators.grow_then_shrink(args.ops // 2, args.max_size, seed=args.seed)
    elif args.kind == "cascade":
        trace = adversary.cascade_sawtooth(args.max_size, args.ops)
    elif args.kind == "sorted-front":
        trace = adversary.sorted_front_attack(args.ops, args.max_size)
    else:
        raise SystemExit(f"unknown kind {args.kind!r}")
    trace.save(args.out)
    print(f"wrote {len(trace)} requests to {args.out} "
          f"(peak active {trace.peak_active()})")
    return 0


def cmd_inspect(args: argparse.Namespace) -> int:
    import random

    from repro.kcursor import KCursorSparseTable, Params, check_invariants, render_layout
    from repro.kcursor.debug import max_prefix_density

    params = Params.explicit(args.k, args.factor) if args.factor else None
    t = KCursorSparseTable(args.k, delta=args.delta, params=params)
    rng = random.Random(args.seed)
    for _ in range(args.ops):
        j = rng.randrange(args.k)
        if rng.random() < 0.55 or t.district_len(j) == 0:
            t.insert(j)
        else:
            t.delete(j)
    check_invariants(t)
    print(render_layout(t, width=100))
    print(f"elements: {len(t)}  span: {t.total_span}  "
          f"max prefix density: {max_prefix_density(t):.3f} "
          f"(bound {t.params.density_bound:.3f})")
    print(f"amortized cost: {t.counter.amortized_cost:.2f} slots/op")
    print("rebuilds by level:", dict(sorted(t.counter.rebuilds_by_level.items())))
    print(f"gaps created/consumed: {t.counter.gaps_created}/{t.counter.gaps_consumed}")
    return 0


def cmd_costs(args: argparse.Namespace) -> int:
    from repro.core.costfn import classify, strong_subadditivity_gamma

    for label, f in STANDARD_FAMILY.items():
        gamma = strong_subadditivity_gamma(f, 1024)
        print(f"{label:<10} {f!s:<22} {classify(f):<22} gamma={gamma:.4f}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    parser.add_argument("--log-level", default=None,
                        choices=["debug", "info", "warning", "error"],
                        help="route repro.* logging to stderr at this level")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="replay a workload on a scheduler")
    p_run.add_argument("--scheduler", default="ours",
                       choices=["ours", "optimal", "simple-gap", "pma", "append"])
    p_run.add_argument("--input", "--replay", help="workload trace file (else generate)")
    p_run.add_argument("--ops", type=int, default=2000)
    p_run.add_argument("--max-size", type=int, default=1024)
    p_run.add_argument("--dist", default="uniform")
    p_run.add_argument("--seed", type=int, default=0)
    p_run.add_argument("--p", type=int, default=1)
    p_run.add_argument("--delta", type=float, default=0.5)
    p_run.add_argument("--trace", metavar="OUT.jsonl",
                       help="write a structured JSONL event trace of the run")
    p_run.add_argument("--metrics", action="store_true",
                       help="collect and print the metrics registry snapshot")
    p_run.add_argument("--lost-slots", action="store_true",
                       help="also measure k-cursor lost slots per op (slow)")
    p_run.set_defaults(fn=cmd_run)

    p_rep = sub.add_parser("report", help="pretty-print a metrics snapshot "
                                          "from a trace (.jsonl) or snapshot (.json)")
    p_rep.add_argument("file", nargs="?")
    p_rep.add_argument("--validate", action="store_true",
                       help="only validate records against the trace schema")
    p_rep.add_argument("--journal", metavar="DIR",
                       help="replay a service journal directory (a session "
                            "dir or a server data dir) instead of a trace")
    p_rep.add_argument("--trace", metavar="FILE",
                       help="with --journal: join on-disk LSNs back to the "
                            "server trace spans that wrote them")
    p_rep.add_argument("--tolerant", action="store_true",
                       help="accept a torn final trace line (killed writer)")
    p_rep.set_defaults(fn=cmd_report)

    p_fsck = sub.add_parser("fsck", help="offline integrity scan of journal "
                                         "dirs / cluster state "
                                         "(docs/RECOVERY.md)")
    p_fsck.add_argument("dirs", nargs="+", metavar="DIR",
                        help="session dir, server data dir, or cluster root")
    p_fsck.add_argument("--repair", action="store_true",
                        help="apply idempotent repairs (journaled to "
                             "fsck.log.jsonl; damaged bytes are quarantined "
                             "as *.corrupt, never destroyed)")
    p_fsck.add_argument("--json", action="store_true",
                        help="print the typed findings report as JSON")
    p_fsck.set_defaults(fn=cmd_fsck)

    p_srv = sub.add_parser("serve", help="run the durable scheduler service "
                                         "(docs/SERVICE.md)")
    p_srv.add_argument("data", help="data directory (journals + snapshots)")
    p_srv.add_argument("--host", default="127.0.0.1")
    p_srv.add_argument("--port", type=int, default=0,
                       help="TCP port (0 = ephemeral; see --ready-file)")
    p_srv.add_argument("--unix", metavar="PATH",
                       help="also listen on a UNIX socket at PATH")
    p_srv.add_argument("--fsync", default="interval",
                       choices=["always", "interval", "never"],
                       help="journal durability policy (docs/SERVICE.md)")
    p_srv.add_argument("--fsync-interval", type=int, default=64,
                       help="records between fsyncs for --fsync interval")
    p_srv.add_argument("--max-live", type=int, default=64,
                       help="sessions kept in memory before LRU eviction")
    p_srv.add_argument("--queue-depth", type=int, default=256,
                       help="per-session op queue bound (load shedding)")
    p_srv.add_argument("--dedup-window", type=int, default=1024,
                       help="idempotency keys remembered per session")
    p_srv.add_argument("--replica-of", metavar="NAME",
                       help="run as a replica of primary shard NAME: apply "
                            "its shipped journal, refuse client writes with "
                            "MOVED until promoted (docs/CLUSTER.md)")
    p_srv.add_argument("--replicate", metavar="HOST:PORT[,HOST:PORT...]",
                       help="ship every journaled write to these replicas")
    p_srv.add_argument("--ack-mode", default="quorum",
                       choices=["quorum", "async"],
                       help="with --replicate: gate client acks on majority "
                            "replica durability (quorum) or ship in the "
                            "background (async)")
    p_srv.add_argument("--epoch", type=int, default=0,
                       help="fencing epoch this process serves at (a "
                            "promoted.json at a higher epoch wins)")
    p_srv.add_argument("--faults", metavar="SPEC",
                       help="activate deterministic fault injection, e.g. "
                            "'journal.append.io=error:ENOSPC@p0.05' "
                            "(docs/FAULTS.md; env REPRO_FAULTS)")
    p_srv.add_argument("--faults-seed", type=int, default=0,
                       help="seed for probabilistic fault rules")
    p_srv.add_argument("--ready-file", metavar="PATH",
                       help="write {pid, port, unix} JSON here once listening")
    p_srv.add_argument("--trace", metavar="OUT.jsonl",
                       help="write recovery/request spans to a JSONL trace")
    p_srv.add_argument("--trace-sample", type=float, default=1.0,
                       metavar="RATE",
                       help="fraction of requests that emit trace spans "
                            "(seeded; metrics stay complete; default 1.0)")
    p_srv.add_argument("--trace-sample-seed", type=int, default=0,
                       help="seed for the trace sampling decision stream")
    p_srv.add_argument("--metrics", action="store_true",
                       help="print the metrics registry snapshot on exit")
    p_srv.set_defaults(fn=cmd_serve)

    p_cli = sub.add_parser("client", help="send one request to a running "
                                          "service and print the result")
    p_cli.add_argument("op", choices=["ping", "health", "open", "insert",
                                      "delete", "query", "snapshot", "stats",
                                      "close", "shutdown"])
    p_cli.add_argument("--host", default="127.0.0.1")
    p_cli.add_argument("--port", type=int)
    p_cli.add_argument("--unix", metavar="PATH")
    p_cli.add_argument("--session")
    p_cli.add_argument("--name")
    p_cli.add_argument("--size", type=int)
    p_cli.add_argument("--jobs", action="store_true",
                       help="include the full job placement dump (query)")
    p_cli.add_argument("--config", metavar="JSON",
                       help='session config for open, e.g. \'{"p": 2}\'')
    p_cli.add_argument("--timeout", type=float, default=30.0)
    p_cli.add_argument("--trace", metavar="OUT.jsonl",
                       help="write client-side spans (call/attempt/retry) "
                            "to a JSONL trace joinable with the server's")
    p_cli.set_defaults(fn=cmd_client)

    p_top = sub.add_parser("top", help="refreshing dashboard for a running "
                                       "service (ctrl-C to quit)")
    p_top.add_argument("--host", default="127.0.0.1")
    p_top.add_argument("--port", type=int)
    p_top.add_argument("--unix", metavar="PATH")
    p_top.add_argument("--interval", type=float, default=2.0,
                       help="seconds between refreshes")
    p_top.add_argument("--once", action="store_true",
                       help="print one frame (no screen clearing) and exit")
    p_top.add_argument("--frames", type=int, default=0,
                       help="exit after N frames (0 = run until ctrl-C)")
    p_top.add_argument("--sessions", type=int, default=20,
                       help="max rows in the per-session table")
    p_top.add_argument("--watch", choices=["sessions", "journal"],
                       default="sessions",
                       help="per-session table: op counters (sessions) or "
                            "journal LSN/append/fsync state (journal)")
    p_top.add_argument("--timeout", type=float, default=5.0)
    p_top.set_defaults(fn=cmd_top)

    p_clu = sub.add_parser("cluster", help="shard-group serving and "
                                           "cost-oblivious rebalancing "
                                           "(docs/CLUSTER.md)")
    csub = p_clu.add_subparsers(dest="cluster_command", required=True)

    pc_srv = csub.add_parser("serve", help="launch and supervise N shard "
                                           "processes under one root")
    pc_srv.add_argument("root", help="cluster root (per-shard data dirs + "
                                     "cluster.json manifest)")
    pc_srv.add_argument("--shards", type=int, default=2)
    pc_srv.add_argument("--host", default="127.0.0.1")
    pc_srv.add_argument("--fsync", default="interval",
                        choices=["always", "interval", "never"])
    pc_srv.add_argument("--max-live", type=int, default=64,
                        help="per-shard live-session cap")
    pc_srv.add_argument("--trace-sample", type=float, default=1.0,
                        metavar="RATE",
                        help="per-shard trace sampling rate")
    pc_srv.add_argument("--poll", type=float, default=1.0,
                        help="seconds between liveness checks")
    pc_srv.add_argument("--no-respawn", action="store_true",
                        help="do not relaunch shards that die")
    pc_srv.add_argument("--reconcile-interval", type=float, default=60.0,
                        metavar="SECS",
                        help="seconds between anti-entropy sweeps "
                             "(0 = disable; docs/RECOVERY.md)")
    pc_srv.add_argument("--replicas", type=int, default=0,
                        help="replicas per shard (journal shipping + "
                             "automatic failover; 0 = none)")
    pc_srv.add_argument("--ack-mode", default="quorum",
                        choices=["quorum", "async"],
                        help="with --replicas: client acks wait for "
                             "majority replica durability (quorum) or "
                             "ship in the background (async)")
    pc_srv.set_defaults(fn=cmd_cluster_serve)

    pc_st = csub.add_parser("status", help="health of every shard in a "
                                           "running cluster")
    pc_st.add_argument("root", help="cluster root or cluster.json path")
    pc_st.add_argument("--timeout", type=float, default=5.0)
    pc_st.set_defaults(fn=cmd_cluster_status)

    pc_rb = csub.add_parser("rebalance", help="plan (and run) cost-oblivious "
                                              "session migrations")
    pc_rb.add_argument("root", help="cluster root or cluster.json path")
    pc_rb.add_argument("--tolerance", type=float, default=0.25,
                       help="allowed overload above mean before moving")
    pc_rb.add_argument("--max-moves", type=int, default=0,
                       help="cap planned migrations (0 = no cap)")
    pc_rb.add_argument("--dry-run", action="store_true",
                       help="print the plan without migrating")
    pc_rb.add_argument("--timeout", type=float, default=30.0)
    pc_rb.set_defaults(fn=cmd_cluster_rebalance)

    pc_rc = csub.add_parser("reconcile", help="anti-entropy sweep: resolve "
                                              "half-completed migrations, "
                                              "re-learn placement "
                                              "(docs/RECOVERY.md)")
    pc_rc.add_argument("root", help="cluster root or cluster.json path")
    pc_rc.add_argument("--dry-run", action="store_true",
                       help="report divergences without resolving them")
    pc_rc.add_argument("--json", action="store_true",
                       help="print the resolution report as JSON")
    pc_rc.add_argument("--timeout", type=float, default=10.0)
    pc_rc.set_defaults(fn=cmd_cluster_reconcile)

    p_gen = sub.add_parser("gen", help="generate a workload trace")
    p_gen.add_argument("kind", choices=["mixed", "churn", "grow-shrink", "cascade",
                                        "sorted-front"])
    p_gen.add_argument("out")
    p_gen.add_argument("--ops", type=int, default=2000)
    p_gen.add_argument("--max-size", type=int, default=1024)
    p_gen.add_argument("--working-set", type=int, default=200)
    p_gen.add_argument("--dist", default="uniform")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.set_defaults(fn=cmd_gen)

    p_ins = sub.add_parser("inspect", help="drive and render a k-cursor table")
    p_ins.add_argument("--k", type=int, default=8)
    p_ins.add_argument("--ops", type=int, default=2000)
    p_ins.add_argument("--delta", type=float, default=0.5)
    p_ins.add_argument("--factor", type=int, default=2,
                       help="explicit 1/delta' (0 = paper-derived params)")
    p_ins.add_argument("--seed", type=int, default=0)
    p_ins.set_defaults(fn=cmd_inspect)

    p_costs = sub.add_parser("costs", help="classify the standard cost-function family")
    p_costs.set_defaults(fn=cmd_costs)

    p_lint = sub.add_parser("lint", help="run the reprolint invariant rules "
                                         "(docs/LINTING.md)")
    # The lint options come from repro.lint: build them only when the
    # command line can be `lint`, so other commands never import it.
    if "lint" in (sys.argv[1:] if argv is None else argv):
        from repro.lint.cli import build_parser as build_lint_parser
        from repro.lint.cli import run as run_lint_cmd

        build_lint_parser(p_lint)
        p_lint.set_defaults(fn=run_lint_cmd)

    p_exp = sub.add_parser("experiments", help="run experiments (see repro.sim.experiments)")
    p_exp.add_argument("ids", nargs="*", default=[])
    p_exp.add_argument("--full", action="store_true")
    p_exp.add_argument("--markdown", action="store_true")

    def run_experiments(a):
        from repro.sim.experiments import main as exp_main

        argv2 = list(a.ids)
        if a.full:
            argv2.append("--full")
        if a.markdown:
            argv2.append("--markdown")
        return exp_main(argv2)

    p_exp.set_defaults(fn=run_experiments)

    args = parser.parse_args(argv)
    if args.log_level:
        from repro.obs import configure_logging

        configure_logging(args.log_level)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
