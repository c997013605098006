"""Scheduler state snapshot/restore.

The database motivation behind cost obliviousness ([8]) cares about crash
safety: a storage engine must persist its reallocator's state and resume
*deterministically* (same future decisions, hence same future costs).
These functions capture the complete decision-relevant state of a
scheduler -- job placements, class volumes, and the full k-cursor chunk
tree -- as a JSON-serializable dict, and rebuild an equivalent scheduler.

Determinism contract (tested): for any request sequence T2,
``restore(snapshot(S)); replay T2`` produces placements identical to
replaying T2 on the original S.

The ledger's cumulative *totals* (allocation/reallocation histograms,
op counts) can optionally ride along via ``include_ledger=True``, so
cumulative competitiveness survives restarts -- the service journal
(:mod:`repro.service.journal`) relies on this for exact cost accounting
across crash recovery.  The per-op ``reports`` *series* is still not
captured (it restarts at the snapshot point): histograms are what
``Ledger.competitiveness`` prices, and they round-trip exactly.
"""

from __future__ import annotations

import json
from typing import Any, Optional, cast

from repro.core.events import Ledger
from repro.core.jobs import Job, PlacedJob, SizeClasser
from repro.core.parallel import ParallelScheduler
from repro.core.segments import SegmentManager
from repro.core.single import SingleServerScheduler
from repro.kcursor.chunk import Chunk
from repro.kcursor.params import Params, _ceil_lg
from repro.kcursor.table import KCursorSparseTable

FORMAT_VERSION = 1

#: Snapshots are JSON documents; ``Any``-valued by construction.
Snapshot = dict[str, Any]


def _chunk_states(table: KCursorSparseTable) -> list[dict[str, Any]]:
    out: list[dict[str, Any]] = []
    for c in table.iter_chunks():
        out.append(
            {
                "level": c.level,
                "index": c.index,
                "buffered": c.buffered,
                "buf": c.buf,
                "gaps": c.gaps,
                "gap_offset": c.gap_offset,
                "count": c.count,
                "S": c.S,
                "it": c.it,
            }
        )
    return out


def _tree_from_states(
    states: list[dict[str, Any]], height: int
) -> tuple[Chunk, list[Chunk]]:
    """The complete chunk tree of the given height that a snapshot's
    preorder ``states`` describe, built in one pass; returns
    ``(root, leaves)``."""
    want = (2 << height) - 1
    if len(states) != want:
        raise ValueError(f"snapshot has {len(states)} chunks; rebuilt tree has {want}")
    root: Optional[Chunk] = None
    leaves: list[Chunk] = []
    waiting: list[Chunk] = []  # internal chunks still missing a child
    for st in states:
        parent = waiting[-1] if waiting else None
        if parent is None:
            level, index = height, 0
        else:
            level = parent.level - 1
            index = 2 * parent.index + (parent.left is not None)
        if (st["level"], st["index"]) != (level, index):
            raise ValueError("chunk tree shape mismatch")
        c = Chunk(level, index, parent)
        c.buffered = st["buffered"]
        c.buf = st["buf"]
        c.gaps = st["gaps"]
        c.gap_offset = st["gap_offset"]
        c.count = st["count"]
        c.S = st["S"]
        c.it = st["it"]
        if parent is None:
            root = c
        elif parent.left is None:
            parent.left = c
        else:
            parent.right = c
            c.is_right_child = True
            waiting.pop()
        if level:
            waiting.append(c)
        else:
            leaves.append(c)
    assert root is not None  # want >= 1 states were read
    return root, leaves


def _ledger_state(led: Ledger) -> dict[str, Any]:
    """JSON-serializable view of a ledger's cumulative totals.

    Histogram keys (job sizes) become strings because JSON objects only
    key on strings; :func:`_apply_ledger_state` converts them back.
    """
    return {
        "alloc_hist": {str(w): c for w, c in sorted(led.alloc_hist.items())},
        "realloc_hist": {str(w): c for w, c in sorted(led.realloc_hist.items())},
        "migrate_hist": {str(w): c for w, c in sorted(led.migrate_hist.items())},
        "ops": led.ops,
        "inserts": led.inserts,
        "deletes": led.deletes,
        "total_migrations": led.total_migrations,
    }


def _apply_ledger_state(led: Ledger, st: dict[str, Any]) -> None:
    led.alloc_hist = {int(w): int(c) for w, c in st["alloc_hist"].items()}
    led.realloc_hist = {int(w): int(c) for w, c in st["realloc_hist"].items()}
    led.migrate_hist = {int(w): int(c) for w, c in st["migrate_hist"].items()}
    led.ops = int(st["ops"])
    led.inserts = int(st["inserts"])
    led.deletes = int(st["deletes"])
    led.total_migrations = int(st["total_migrations"])


def snapshot_single(
    s: SingleServerScheduler, *, include_ledger: bool = False
) -> Snapshot:
    """Complete decision-relevant state of a single-server scheduler.

    With ``include_ledger=True`` the ledger's cumulative histograms and
    counts are captured too, so competitiveness accounting is exact
    across a snapshot/restore boundary.
    """
    if include_ledger:
        return {**_snapshot_single_base(s), "ledger": _ledger_state(s.ledger)}
    return _snapshot_single_base(s)


def _snapshot_single_base(s: SingleServerScheduler) -> Snapshot:
    return {
        "format": FORMAT_VERSION,
        "kind": "single",
        "delta": s.delta,
        "max_size": s.classer.max_size,
        "dynamic": s.dynamic,
        "padding_enabled": s.padding_enabled,
        "server": s.server,
        "tau_mode": s.segments.table.tau_mode,
        "params": {
            "k": s.segments.table.params.k,
            "delta_prime_inv": s.segments.table.params.delta_prime_inv,
        },
        "volumes": list(s.segments.volumes),
        "scan_hints": [lay._scan_hint for lay in s.layouts],
        "chunks": _chunk_states(s.segments.table),
        "jobs": [
            {"name": pj.name, "size": pj.size, "klass": pj.klass, "start": pj.start}
            for pj in s.jobs()
        ],
    }


def restore_single(snap: Snapshot) -> SingleServerScheduler:
    """The scheduler a :func:`snapshot_single` doc describes.  Its chunk
    tree is built once, straight from the snapshot's states."""
    if snap.get("format") != FORMAT_VERSION or snap.get("kind") != "single":
        raise ValueError("not a version-1 single-scheduler snapshot")
    delta = snap["delta"]
    dynamic = snap["dynamic"]
    k = SizeClasser(delta, snap["max_size"]).num_classes
    params = Params.from_delta(k, delta)
    # A dynamic (local-tau) table covers the snapshot's width too: past
    # max_size's classes it has grown a level per doubling
    # (append_district).  The chunk tree is complete: 2 * capacity - 1
    # chunks.
    want_k = snap["params"]["k"]
    height = max(params.H, _ceil_lg(want_k)) if dynamic else params.H
    root, leaves = _tree_from_states(snap["chunks"], height)
    table = KCursorSparseTable.from_tree(
        root,
        leaves,
        params=params,
        tau_mode="local" if dynamic else "global",
        k=max(k, want_k),
    )
    volumes = [0] * k
    volumes[: len(snap["volumes"])] = snap["volumes"]
    s = SingleServerScheduler(
        snap["max_size"],
        delta=delta,
        dynamic=dynamic,
        server=snap["server"],
        padding_enabled=snap["padding_enabled"],
        _segments=SegmentManager.from_table(table, delta, volumes),
    )
    for lay, hint in zip(s.layouts, snap.get("scan_hints", [])):
        lay._scan_hint = hint
    for rec in snap["jobs"]:
        pj = PlacedJob(
            job=Job(rec["name"], rec["size"]),
            klass=rec["klass"],
            start=rec["start"],
            server=snap["server"],
        )
        s._jobs[pj.name] = pj
        s.layouts[pj.klass].add(pj)
    s._find_outside()
    ledger_state = snap.get("ledger")
    if ledger_state is not None:
        _apply_ledger_state(s.ledger, ledger_state)
    return s


def snapshot_parallel(
    p: ParallelScheduler, *, include_ledger: bool = False
) -> Snapshot:
    snap: Snapshot = {
        "format": FORMAT_VERSION,
        "kind": "parallel",
        "p": p.p,
        "servers": [
            snapshot_single(child, include_ledger=include_ledger)
            for child in p.servers
        ],
        "where": {str(k): v for k, v in p._where.items()},
    }
    if include_ledger:
        snap["ledger"] = _ledger_state(p.ledger)
    return snap


def restore_parallel(snap: Snapshot) -> ParallelScheduler:
    if snap.get("format") != FORMAT_VERSION or snap.get("kind") != "parallel":
        raise ValueError("not a version-1 parallel-scheduler snapshot")
    if snap["p"] < 1 or len(snap["servers"]) != snap["p"]:
        raise ValueError(
            f"snapshot has {len(snap['servers'])} servers for p={snap['p']}"
        )
    # Each server is built once, by its own restore.
    out = ParallelScheduler.from_servers(
        [restore_single(child) for child in snap["servers"]]
    )
    out._where = dict(snap["where"])
    ledger_state = snap.get("ledger")
    if ledger_state is not None:
        _apply_ledger_state(out.ledger, ledger_state)
    return out


def dumps(snap: Snapshot) -> str:
    return json.dumps(snap, sort_keys=True)


def loads(text: str) -> Snapshot:
    return cast(Snapshot, json.loads(text))


def save(snap: Snapshot, path: str) -> None:
    with open(path, "w") as fh:
        fh.write(dumps(snap))


def load(path: str) -> Snapshot:
    with open(path) as fh:
        return loads(fh.read())
