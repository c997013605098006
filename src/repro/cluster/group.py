"""Shard-group runner: N independent ``ServiceServer`` processes.

Each shard is one ``repro serve`` subprocess with its own data
directory (journals + snapshots) under the cluster root, published via
a ready file and recorded in the cluster manifest (``cluster.json``) --
the document clients and the CLI load to find the shards.  Process
isolation is the point: shards share nothing, a SIGKILL'd shard loses
nothing acknowledged (journal recovery), and :meth:`ShardGroup.respawn_dead`
brings it back on the *same* port so clients reconnect transparently.

The ``cluster.shard.spawn`` failpoint guards every spawn (chaos suites
inject launch failures); respawns are counted on ``cluster.shard.respawns``.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, replace
from typing import Any, Mapping, Optional, Sequence

import repro
from repro import faults
from repro.obs.logsetup import get_logger
from repro.obs.metrics import MetricsRegistry
from repro.service.journal import write_json_durable

log = get_logger("cluster")

MANIFEST_FILE = "cluster.json"


@dataclass(frozen=True)
class ShardSpec:
    """One shard's address and data directory, as recorded in the manifest.

    ``role`` distinguishes routable primaries from their copies:
    ``"primary"`` serves clients, ``"replica"`` follows a primary named
    by ``of`` (client mutations answer MOVED toward it), ``"fenced"``
    is a dead primary superseded by a promotion -- kept in the manifest
    so a respawn comes back fenced instead of resurrected as authority.
    """

    name: str
    host: str
    port: int
    data: str
    role: str = "primary"
    of: Optional[str] = None

    def to_doc(self) -> dict[str, Any]:
        doc: dict[str, Any] = {
            "name": self.name,
            "host": self.host,
            "port": self.port,
            "data": self.data,
            "role": self.role,
        }
        if self.of is not None:
            doc["of"] = self.of
        return doc

    @classmethod
    def from_doc(cls, doc: Mapping[str, Any]) -> "ShardSpec":
        name = doc.get("name")
        host = doc.get("host")
        port = doc.get("port")
        data = doc.get("data")
        role = doc.get("role", "primary")
        of = doc.get("of")
        if (
            not isinstance(name, str)
            or not isinstance(host, str)
            or not isinstance(port, int)
            or not isinstance(data, str)
            or role not in ("primary", "replica", "fenced")
            or not (of is None or isinstance(of, str))
        ):
            raise ValueError(f"malformed shard spec: {doc!r}")
        return cls(name=name, host=host, port=port, data=data, role=role, of=of)


def load_manifest(path: str) -> list[ShardSpec]:
    """Read ``cluster.json`` (the path may be the file or its directory)."""
    if os.path.isdir(path):
        path = os.path.join(path, MANIFEST_FILE)
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    shards = doc.get("shards") if isinstance(doc, dict) else None
    if not isinstance(shards, list) or not shards:
        raise ValueError(f"manifest {path!r} lists no shards")
    return [ShardSpec.from_doc(s) for s in shards]


def _src_pythonpath() -> str:
    """PYTHONPATH entry that makes ``repro`` importable in subprocesses."""
    pkg_dir = os.path.dirname(os.path.abspath(repro.__file__))
    return os.path.dirname(pkg_dir)


class ShardGroup:
    """Spawn and supervise N shard processes under one cluster root."""

    def __init__(
        self,
        root: str,
        shards: int = 2,
        *,
        host: str = "127.0.0.1",
        fsync: str = "interval",
        max_live: int = 64,
        replicas: int = 0,
        ack_mode: str = "quorum",
        extra_args: Sequence[str] = (),
        python: str = sys.executable,
        registry: Optional[MetricsRegistry] = None,
        spawn_timeout: float = 30.0,
    ) -> None:
        if shards < 1:
            raise ValueError("shards must be >= 1")
        if replicas < 0:
            raise ValueError("replicas must be >= 0")
        if ack_mode not in ("quorum", "async"):
            raise ValueError("ack_mode must be 'quorum' or 'async'")
        self.root = os.path.abspath(root)
        self.host = host
        self.fsync = fsync
        self.max_live = max_live
        self.replicas = replicas
        self.ack_mode = ack_mode
        self.extra_args = tuple(extra_args)
        self.python = python
        self.registry = registry
        self.spawn_timeout = spawn_timeout
        self.names: tuple[str, ...] = tuple(
            f"shard-{i}" for i in range(shards)
        )
        self.respawns = 0
        self.promotions = 0
        self._procs: dict[str, "subprocess.Popen[bytes]"] = {}
        self._specs: dict[str, ShardSpec] = {}
        #: Per-shard serve args beyond the common ones (``--replica-of``
        #: / ``--replicate`` / ``--ack-mode``), reused on respawn.
        self._shard_args: dict[str, tuple[str, ...]] = {}
        os.makedirs(self.root, exist_ok=True)

    @property
    def manifest_path(self) -> str:
        return os.path.join(self.root, MANIFEST_FILE)

    def specs(self) -> list[ShardSpec]:
        return [self._specs[name] for name in self.names if name in self._specs]

    def all_specs(self) -> list[ShardSpec]:
        """Every spawned process -- primaries then replicas, by name."""
        return [self._specs[name] for name in sorted(self._specs)]

    def replica_names(self, primary: str) -> list[str]:
        return [f"{primary}-r{j}" for j in range(self.replicas)]

    def pid(self, name: str) -> Optional[int]:
        proc = self._procs.get(name)
        return proc.pid if proc is not None else None

    # -- lifecycle -------------------------------------------------------

    def start(self) -> list[ShardSpec]:
        """Spawn every shard, wait for readiness, write the manifest.

        With ``replicas=N``, each primary's N replicas come up first
        (their ports feed the primary's ``--replicate`` list), so by the
        time a primary acknowledges its first write the whole replica
        set is reachable.
        """
        for name in self.names:
            targets: list[str] = []
            for rname in self.replica_names(name):
                self._shard_args[rname] = ("--replica-of", name)
                rspec = self._spawn(name=rname, port=0, role="replica", of=name)
                targets.append(f"{rspec.host}:{rspec.port}")
            if targets:
                self._shard_args[name] = (
                    "--replicate", ",".join(targets),
                    "--ack-mode", self.ack_mode,
                )
            self._spawn(name, port=0)
        self._write_manifest()
        reg = self.registry
        if reg is not None:
            reg.gauge("cluster.shards").set(self.live_count())
        log.info(
            "cluster up: %d shard(s) under %s", len(self.names), self.root
        )
        return self.all_specs()

    def _spawn(
        self,
        name: str,
        port: int,
        *,
        role: str = "primary",
        of: Optional[str] = None,
    ) -> ShardSpec:
        plan = faults.ACTIVE
        if plan is not None:
            plan.hit("cluster.shard.spawn")
        data = os.path.join(self.root, name)
        ready = os.path.join(self.root, f"{name}.ready.json")
        try:
            os.unlink(ready)
        except FileNotFoundError:
            pass
        cmd = [
            self.python, "-m", "repro", "serve", data,
            "--host", self.host,
            "--port", str(port),
            "--fsync", self.fsync,
            "--max-live", str(self.max_live),
            "--ready-file", ready,
            *self._shard_args.get(name, ()),
            *self.extra_args,
        ]
        env = dict(os.environ)
        src = _src_pythonpath()
        env["PYTHONPATH"] = src + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        proc = subprocess.Popen(cmd, env=env)
        info = self._await_ready(name, proc, ready)
        spec = ShardSpec(
            name=name, host=self.host, port=int(info["port"]), data=data,
            role=role, of=of,
        )
        self._procs[name] = proc
        self._specs[name] = spec
        return spec

    def _await_ready(
        self, name: str, proc: "subprocess.Popen[bytes]", ready: str
    ) -> dict[str, Any]:
        deadline = time.perf_counter() + self.spawn_timeout
        while time.perf_counter() < deadline:
            if proc.poll() is not None:
                raise RuntimeError(
                    f"shard {name} exited with {proc.returncode} before ready"
                )
            if os.path.exists(ready):
                try:
                    with open(ready, encoding="utf-8") as fh:
                        info = json.load(fh)
                except (OSError, json.JSONDecodeError):
                    info = None  # half-written; poll again
                if isinstance(info, dict) and isinstance(info.get("port"), int):
                    return info
            time.sleep(0.02)
        proc.kill()
        raise RuntimeError(f"shard {name} not ready within {self.spawn_timeout}s")

    def _write_manifest(self) -> None:
        doc = {
            "version": 1,
            "shards": [s.to_doc() for s in self.all_specs()],
        }
        write_json_durable(self.manifest_path, doc)

    # -- supervision -----------------------------------------------------

    def live_count(self) -> int:
        return sum(1 for p in self._procs.values() if p.poll() is None)

    def dead(self) -> list[str]:
        return [n for n, p in self._procs.items() if p.poll() is not None]

    def respawn_dead(self) -> list[str]:
        """Relaunch dead shards on their original ports (failover).

        Journal recovery makes the restart lossless for acknowledged
        writes; keeping the port means clients simply reconnect.
        """
        revived: list[str] = []
        for name in self.dead():
            spec = self._specs[name]
            log.warning(
                "shard %s (pid %s) died; respawning on port %d",
                name, self._procs[name].pid, spec.port,
            )
            try:
                self._spawn(name, port=spec.port, role=spec.role, of=spec.of)
            except (OSError, RuntimeError) as e:
                log.error("respawn of %s failed: %s", name, e)
                continue
            self.respawns += 1
            revived.append(name)
        if revived:
            reg = self.registry
            if reg is not None:
                reg.inc_all({"cluster.shard.respawns": len(revived)})
                reg.gauge("cluster.shards").set(self.live_count())
        return revived

    def check_failover(self) -> list[dict[str, Any]]:
        """Promote a replica for every dead primary (docs/CLUSTER.md).

        For each dead ``role="primary"`` process with at least one live
        replica: pick the replica with the highest total durable LSN
        (``repl_status``; ties break by name), fence the dead primary's
        data dir at a bumped placement epoch *before* promoting -- a
        respawned stale primary then refuses writes with MOVED -- then
        ``repl_promote`` the winner, reroute its sessions in the
        placement map, and record every rerouted session in the
        reallocation ledger under ``reason="failover"``: promotion is a
        reallocation like any other, priced after the fact, never
        weighed in advance.

        Idempotent per death: the dead primary's spec flips to
        ``role="fenced"`` so later sweeps skip it; ``respawn_dead``
        still revives the process, which comes back fenced.
        """
        # Local imports: recovery-free, but keeps module import cost low
        # and mirrors reconcile()'s lazy style for heavy deps.
        from repro.cluster.placement import PLACEMENT_FILE, PlacementMap
        from repro.cluster.rebalance import (
            REALLOC_FILE,
            Migration,
            ReallocationLedger,
        )
        from repro.service.client import RetryPolicy, ServiceClient
        from repro.service.protocol import ServiceError

        events: list[dict[str, Any]] = []
        for name in self.dead():
            spec = self._specs[name]
            if spec.role != "primary":
                continue
            plan = faults.ACTIVE
            if plan is not None:
                # Crash or stall the failover driver at the decision
                # point: primary confirmed dead, nothing promoted yet.
                plan.hit("cluster.promote.enter")
            statuses: dict[str, dict[str, Any]] = {}
            for rname in self.replica_names(name):
                proc = self._procs.get(rname)
                rspec = self._specs.get(rname)
                if proc is None or rspec is None or proc.poll() is not None:
                    continue
                try:
                    cli = ServiceClient(
                        rspec.host, rspec.port, timeout=10.0,
                        retry=RetryPolicy(attempts=3, seed=0),
                    )
                    try:
                        statuses[rname] = cli.repl_status()
                    finally:
                        cli.close()
                except (ServiceError, OSError) as e:
                    log.warning("failover: replica %s unreachable: %s", rname, e)
            if not statuses:
                log.error(
                    "shard %s died with no reachable replica; "
                    "waiting on respawn", name,
                )
                continue
            winner = sorted(
                statuses,
                key=lambda n: (-int(statuses[n].get("total", 0)), n),
            )[0]
            sessions_doc = statuses[winner].get("sessions")
            sessions = sorted(sessions_doc) if isinstance(sessions_doc, dict) else []

            ppath = os.path.join(self.root, PLACEMENT_FILE)
            if os.path.isfile(ppath):
                placement = PlacementMap.load(ppath)
            else:
                placement = PlacementMap(self.names)
            placement.add_member(winner)
            for sid in sessions:
                placement.assign(sid, winner)
            placement.epoch += 1  # the promotion itself is an epoch event
            epoch = placement.epoch

            # Fence BEFORE promoting: from here a respawn of the dead
            # primary refuses mutations with MOVED toward the winner,
            # so there is never a moment with two writable copies.
            self._write_fence(spec.data, epoch, winner)
            wspec = self._specs[winner]
            try:
                cli = ServiceClient(
                    wspec.host, wspec.port, timeout=10.0,
                    retry=RetryPolicy(attempts=3, seed=0),
                )
                try:
                    cli.repl_promote(epoch)
                    measures = {
                        sid: cli.query(sid) for sid in sessions
                    }
                finally:
                    cli.close()
            except (ServiceError, OSError) as e:
                log.error("failover: promotion of %s failed: %s", winner, e)
                continue
            placement.save(ppath)

            ledger = ReallocationLedger(os.path.join(self.root, REALLOC_FILE))
            for sid in sessions:
                doc = measures.get(sid, {})
                ledger.append(
                    Migration(
                        session=sid, source=name, target=winner,
                        weight=float(doc.get("active", 0)),
                    ),
                    volume=float(doc.get("volume", 0.0)),
                    epoch=epoch,
                    reason="failover",
                )

            self._specs[name] = replace(spec, role="fenced")
            self._specs[winner] = replace(wspec, role="primary")
            self._write_manifest()
            self.promotions += 1
            reg = self.registry
            if reg is not None:
                reg.inc_all({"cluster.replica.promotions": 1})
            log.warning(
                "failover: %s -> %s at epoch %d (%d session(s) rerouted)",
                name, winner, epoch, len(sessions),
            )
            events.append(
                {
                    "shard": name,
                    "promoted": winner,
                    "epoch": epoch,
                    "sessions": sessions,
                }
            )
        return events

    def _write_fence(self, data_dir: str, epoch: int, promoted: str) -> None:
        """Durably fence a dead primary's data dir (the server's own
        marker writer, :func:`repro.service.sessions.write_fence`)."""
        from repro.service.sessions import write_fence

        write_fence(data_dir, epoch, promoted)

    def reconcile(self, *, apply: bool = True) -> Any:
        """One anti-entropy sweep over this cluster's root.

        Cross-checks on-disk session ownership against tombstones and
        the placement map, resolving half-completed migrations; see
        :func:`repro.recovery.reconcile.reconcile_cluster` for the
        decision table.  ``repro cluster serve`` runs this periodically
        (``--reconcile-interval``); returns the ``ReconcileReport``.
        """
        # Lazy: recovery imports cluster at module level, so the static
        # import graph must not point back (reprolint RL002).
        from repro.recovery.reconcile import reconcile_cluster

        return reconcile_cluster(self.root, apply=apply, registry=self.registry)

    def kill(self, name: str, sig: int = signal.SIGKILL) -> int:
        """Send ``sig`` to one shard (chaos/smoke tooling); returns its pid."""
        proc = self._procs[name]
        proc.send_signal(sig)
        if sig == signal.SIGKILL:
            proc.wait(timeout=10)
        reg = self.registry
        if reg is not None:
            reg.gauge("cluster.shards").set(self.live_count())
        return proc.pid

    def stop(self, timeout: float = 15.0) -> None:
        """Graceful SIGTERM to every shard; SIGKILL stragglers."""
        for proc in self._procs.values():
            if proc.poll() is None:
                proc.send_signal(signal.SIGTERM)
        deadline = time.perf_counter() + timeout
        for proc in self._procs.values():
            remaining = max(0.1, deadline - time.perf_counter())
            try:
                proc.wait(timeout=remaining)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait(timeout=10)
        reg = self.registry
        if reg is not None:
            reg.gauge("cluster.shards").set(0)
        log.info("cluster stopped (%d respawns over its life)", self.respawns)

    def __enter__(self) -> "ShardGroup":
        self.start()
        return self

    def __exit__(self, *exc: object) -> None:
        self.stop()
