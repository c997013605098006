"""Anti-entropy reconciler: decision table + the migration torture
matrix (SIGKILL at every handshake step, on either side).

The offline tests hand-build cluster roots and check the decision table
deterministically (keeper selection, tombstone retargeting, placement
learning) in both dry-run and apply mode.

The torture matrix is the live half: a real two-shard
:class:`~repro.cluster.group.ShardGroup`, a session migrated by driving
the three-step handshake manually, and a SIGKILL of the source or the
target after each step.  Convergence means ``repro fsck --repair`` +
``reconcile_cluster`` leave exactly one owner whose query documents --
jobs, objective, dedup window -- match an unmigrated in-process
reference, the reallocation ledger holds exactly the expected
``reason="reconcile"`` records, and a final fsck over the whole cluster
root is clean.
"""

import json
import os
import shutil
import time

import pytest

from repro.cluster.group import ShardGroup
from repro.cluster.placement import PlacementMap, rendezvous_owner
from repro.cluster.rebalance import REALLOC_FILE, ReallocationLedger
from repro.recovery import reconcile_cluster, run_fsck
from repro.recovery.reconcile import RESOLUTION_KINDS, Resolution
from repro.service.client import RetryPolicy, ServiceClient
from repro.service.journal import Journal
from repro.service.protocol import (
    ErrorCode,
    ServiceError,
    SessionConfig,
)
from repro.service.image import build_scheduler

MAX_SIZE = 16
NAMES = ("shard-0", "shard-1")

_RETRY_CODES = (ErrorCode.INTERNAL, ErrorCode.RETRY_LATER,
                ErrorCode.DEGRADED, ErrorCode.MOVED)


# ----------------------------------------------------------------------
# Offline fixture builders


def mk_root(root, names=NAMES):
    os.makedirs(root, exist_ok=True)
    doc = {
        "version": 1,
        "shards": [
            {"name": n, "host": "127.0.0.1", "port": 1,
             "data": os.path.join(root, n)}
            for n in names
        ],
    }
    for n in names:
        os.makedirs(os.path.join(root, n), exist_ok=True)
    with open(os.path.join(root, "cluster.json"), "w",
              encoding="utf-8") as fh:
        json.dump(doc, fh)
    return root


def seed_copy(root, shard, sid, *, lsns, moved=None):
    """A session copy on one shard: config + `lsns` journal records,
    optionally tombstoned toward `moved`."""
    d = os.path.join(root, shard, sid)
    os.makedirs(d, exist_ok=True)
    with open(os.path.join(d, "config.json"), "w", encoding="utf-8") as fh:
        json.dump({"max_size": MAX_SIZE}, fh)
    j = Journal(d, fsync="never")
    for i in range(lsns):
        j.append("insert", f"j{i}", 1)
    j.close()
    if moved is not None:
        with open(os.path.join(d, "moved.json"), "w",
                  encoding="utf-8") as fh:
            json.dump({"target": moved}, fh)
    return d


def sid_owned_by(owner, names=NAMES):
    """A session id whose rendezvous home is `owner` (deterministic)."""
    i = 0
    while True:
        sid = f"sess-{i}"
        if rendezvous_owner(sid, names) == owner:
            return sid
        i += 1


# ----------------------------------------------------------------------
# Decision table, offline


def test_dry_run_keeper_is_highest_durable_lsn(tmp_path):
    root = mk_root(str(tmp_path / "c"))
    sid = sid_owned_by("shard-0")
    seed_copy(root, "shard-0", sid, lsns=3)
    seed_copy(root, "shard-1", sid, lsns=5)  # further along: must win
    report = reconcile_cluster(root, apply=False)
    assert [r.kind for r in report.resolutions[:1]] == ["seal_stale"]
    seal = report.resolutions[0]
    assert (seal.shard, seal.target) == ("shard-0", "shard-1")
    assert not seal.applied and not report.errors
    # dry run: nothing on disk moved
    assert not os.path.exists(
        os.path.join(root, "shard-0", sid, "moved.json"))
    assert not os.path.exists(os.path.join(root, "placement.json"))
    assert not os.path.exists(os.path.join(root, REALLOC_FILE))


def test_dry_run_lsn_tie_breaks_to_placement_owner(tmp_path):
    root = mk_root(str(tmp_path / "c"))
    sid = sid_owned_by("shard-1")
    seed_copy(root, "shard-0", sid, lsns=4)
    seed_copy(root, "shard-1", sid, lsns=4)
    report = reconcile_cluster(root, apply=False)
    seal = report.resolutions[0]
    assert seal.kind == "seal_stale"
    assert (seal.shard, seal.target) == ("shard-0", "shard-1")
    # and the sweep is deterministic: same input, same plan
    again = reconcile_cluster(root, apply=False)
    assert [r.to_doc() for r in again.resolutions] == [
        r.to_doc() for r in report.resolutions
    ]


def test_dry_run_reports_dangling_tombstone_as_roll_back(tmp_path):
    root = mk_root(str(tmp_path / "c"))
    sid = sid_owned_by("shard-0")
    seed_copy(root, "shard-0", sid, lsns=6, moved="shard-1")
    report = reconcile_cluster(root, apply=False)
    assert [r.kind for r in report.resolutions] == ["roll_back"]
    roll = report.resolutions[0]
    assert roll.shard == "shard-0" and not roll.applied
    # the tombstone is untouched in dry-run mode
    assert os.path.exists(os.path.join(root, "shard-0", sid, "moved.json"))


def test_apply_retargets_tombstone_toward_actual_owner(tmp_path):
    names = ("shard-0", "shard-1", "shard-2")
    root = mk_root(str(tmp_path / "c"), names)
    sid = sid_owned_by("shard-0", names)
    # the seal aimed at shard-2, but shard-1 is who actually adopted
    seed_copy(root, "shard-0", sid, lsns=4, moved="shard-2")
    seed_copy(root, "shard-1", sid, lsns=4)
    report = reconcile_cluster(root, apply=True)
    kinds = sorted(r.kind for r in report.resolutions)
    assert kinds == ["placement_learn", "retarget_tombstone"]
    assert all(r.applied for r in report.resolutions)
    with open(os.path.join(root, "shard-0", sid, "moved.json"),
              encoding="utf-8") as fh:
        assert json.load(fh) == {"target": "shard-1"}
    # placement learned the override and was persisted
    pm = PlacementMap.load(os.path.join(root, "placement.json"))
    assert pm.owner(sid) == "shard-1" and pm.epoch >= 1
    # convergence: the second sweep has nothing left to do
    assert reconcile_cluster(root, apply=True).clean


def test_apply_learns_placement_for_sole_owner(tmp_path):
    root = mk_root(str(tmp_path / "c"))
    sid = sid_owned_by("shard-0")
    seed_copy(root, "shard-1", sid, lsns=2)  # not where the hash routes
    report = reconcile_cluster(root, apply=True)
    assert [r.kind for r in report.resolutions] == ["placement_learn"]
    pm = PlacementMap.load(os.path.join(root, "placement.json"))
    assert pm.owner(sid) == "shard-1"
    assert reconcile_cluster(root, apply=True).clean


def test_resolution_kind_is_validated():
    with pytest.raises(ValueError):
        Resolution("made_up", "s", "a", "b", "detail")
    assert "seal_stale" in RESOLUTION_KINDS


# ----------------------------------------------------------------------
# Live cluster helpers


def acked(fn, deadline=30.0):
    """Retry past freezes (migrate-hold), degraded windows and respawn
    races until the op is acknowledged."""
    end = time.monotonic() + deadline
    while True:
        try:
            return fn()
        except ServiceError as e:
            if e.code not in _RETRY_CODES or time.monotonic() > end:
                raise
        except OSError:
            if time.monotonic() > end:
                raise
        time.sleep(0.05)


def client(spec):
    return ServiceClient(
        spec.host, spec.port, timeout=10.0,
        retry=RetryPolicy(attempts=6, base=0.02, max_delay=0.2, seed=0),
    )


def reference(n_ops):
    sched = build_scheduler(SessionConfig(max_size=MAX_SIZE))
    for i in range(n_ops):
        sched.insert(f"j{i}", i % MAX_SIZE + 1)
    jobs = sorted(
        [[str(pj.name), pj.size, pj.klass, pj.start, pj.server]
         for pj in sched.jobs()],
        key=lambda row: (row[4], row[3], row[0]),
    )
    return jobs, sched.sum_completion_times()


def drive(cli, sid, n_ops):
    last = None
    for i in range(n_ops):
        last = acked(lambda: cli.insert(
            sid, f"j{i}", i % MAX_SIZE + 1, idem=f"{sid}.i.j{i}"))
    return last


# ----------------------------------------------------------------------
# The torture matrix: SIGKILL at each handshake step x victim side


N_OPS = 10

#: (handshake step completed when the SIGKILL lands, which side dies,
#:  who must own the session after fsck + reconcile, ledger records
#:  expected with reason="reconcile")
MATRIX = [
    ("out", "source", "shard-0", 0),
    ("out", "target", "shard-0", 0),
    ("in", "source", "shard-0", 1),   # double owner; tie -> placement
    ("in", "target", "shard-0", 1),
    ("seal", "source", "shard-1", 0),  # handshake done; learn placement
    ("seal", "target", "shard-1", 0),
]


@pytest.mark.parametrize("step,victim,owner,n_ledger", MATRIX)
def test_torture_crash_at_each_handshake_step(
    tmp_path, step, victim, owner, n_ledger
):
    root = str(tmp_path / "cluster")
    sid = sid_owned_by("shard-0")
    ref_jobs, ref_objective = reference(N_OPS)
    victim_name = "shard-0" if victim == "source" else "shard-1"

    group = ShardGroup(root, 2, fsync="always")
    try:
        specs = {s.name: s for s in group.start()}
        with client(specs["shard-0"]) as cs, client(specs["shard-1"]) as cd:
            cs.open(sid, {"max_size": MAX_SIZE})
            last_res = drive(cs, sid, N_OPS)
            out = cs.migrate_out(sid)
            if step in ("in", "seal"):
                cd.migrate_in(sid, out["snapshot"], config=out.get("config"))
            if step == "seal":
                cs.migrate_seal(sid, target="shard-1")
        group.kill(victim_name)

        # post-crash gate: fsck the victim's data dir until clean
        vdata = specs[victim_name].data
        run_fsck([vdata], repair=True)
        assert run_fsck([vdata], repair=True).clean
        assert group.respawn_dead() == [victim_name]

        report = reconcile_cluster(root, apply=True)
        assert not report.errors, report.errors
        assert all(r.applied for r in report.resolutions)
        # convergence: a second sweep finds a single-owner world
        assert reconcile_cluster(root, apply=True).clean

        # cost-oblivious accounting: every resolution that moved
        # authority is in the ledger, priced after the fact
        records = ReallocationLedger(os.path.join(root, REALLOC_FILE)).read()
        assert len(records) == n_ledger
        assert all(
            r["reason"] == "reconcile" and r["session"] == sid
            for r in records
        )

        # exactly the unmigrated reference state survived
        with client(specs[owner]) as co:
            final = acked(lambda: co.query(sid, jobs=True))
            assert final["active"] == N_OPS
            assert final["jobs"] == ref_jobs
            assert final["objective"] == ref_objective
            # the dedup window survived the crash: a retried insert is
            # answered from cache, not re-applied
            replay = acked(lambda: co.insert(
                sid, f"j{N_OPS - 1}", (N_OPS - 1) % MAX_SIZE + 1,
                idem=f"{sid}.i.j{N_OPS - 1}"))
            assert replay == last_res
            assert acked(lambda: co.query(sid))["active"] == N_OPS

        # and the cluster root as a whole is fsck-clean
        assert run_fsck([root]).clean
    finally:
        group.stop()


def test_reconcile_rolls_back_lost_adoption(tmp_path):
    """Completed handshake, then the target's copy is destroyed: the
    tombstone dangles, so the sweep rolls the migration back and the
    sealed source resumes authority with its full pre-handoff state."""
    root = str(tmp_path / "cluster")
    sid = sid_owned_by("shard-0")
    ref_jobs, ref_objective = reference(N_OPS)

    group = ShardGroup(root, 2, fsync="always")
    try:
        specs = {s.name: s for s in group.start()}
        with client(specs["shard-0"]) as cs, client(specs["shard-1"]) as cd:
            cs.open(sid, {"max_size": MAX_SIZE})
            drive(cs, sid, N_OPS)
            out = cs.migrate_out(sid)
            cd.migrate_in(sid, out["snapshot"], config=out.get("config"))
            cs.migrate_seal(sid, target="shard-1")
        group.kill("shard-0")
        group.kill("shard-1")
        shutil.rmtree(os.path.join(specs["shard-1"].data, sid))
        assert sorted(group.respawn_dead()) == ["shard-0", "shard-1"]

        report = reconcile_cluster(root, apply=True)
        assert [r.kind for r in report.resolutions] == ["roll_back"]
        assert report.resolutions[0].applied and not report.errors
        assert reconcile_cluster(root, apply=True).clean

        records = ReallocationLedger(os.path.join(root, REALLOC_FILE)).read()
        assert len(records) == 1
        assert records[0]["reason"] == "reconcile"
        assert records[0]["to"] == "shard-0"

        with client(specs["shard-0"]) as co:
            final = acked(lambda: co.query(sid, jobs=True))
            assert final["active"] == N_OPS
            assert final["jobs"] == ref_jobs
            assert final["objective"] == ref_objective
        assert run_fsck([root]).clean
    finally:
        group.stop()


def test_shard_group_reconcile_method_sweeps_in_place(tmp_path):
    """The periodic in-group sweep entry point (`repro cluster serve`
    drives it on a timer) resolves a seeded divergence."""
    root = str(tmp_path / "cluster")
    sid = sid_owned_by("shard-0")

    group = ShardGroup(root, 2, fsync="always")
    try:
        specs = {s.name: s for s in group.start()}
        with client(specs["shard-1"]) as cd:
            cd.open(sid, {"max_size": MAX_SIZE})  # not the hash home
            cd.insert(sid, "a", 3)
        report = group.reconcile()
        assert [r.kind for r in report.resolutions] == ["placement_learn"]
        assert group.reconcile().clean
        pm = PlacementMap.load(os.path.join(root, "placement.json"))
        assert pm.owner(sid) == "shard-1"
    finally:
        group.stop()


def test_apply_roll_back_with_no_live_shards_prices_to_zero(tmp_path):
    """Rolling back a dangling tombstone is disk-only; with every shard
    down the ledger measurement simply prices to zero instead of the
    connection failure aborting the sweep (manifest ports point at
    nothing listening here)."""
    root = mk_root(str(tmp_path / "c"))
    sid = sid_owned_by("shard-0")
    seed_copy(root, "shard-0", sid, lsns=4, moved="shard-1")
    report = reconcile_cluster(root, apply=True)
    assert not report.errors
    assert [(r.kind, r.applied) for r in report.resolutions] == [
        ("roll_back", True)
    ]
    assert not os.path.exists(os.path.join(root, "shard-0", sid, "moved.json"))
    (rec,) = ReallocationLedger(os.path.join(root, REALLOC_FILE)).read()
    assert rec["session"] == sid and rec["reason"] == "reconcile"
    assert rec["to"] == "shard-0" and rec["volume"] == 0.0
    assert reconcile_cluster(root, apply=True).clean
