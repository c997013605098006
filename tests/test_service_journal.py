"""Write-ahead journal: LSNs, segments, checkpoints, crash recovery."""

import json
import os
import stat

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.service.journal import Journal, JournalCorrupt, JournalRecord


def seg_files(root):
    return sorted(f for f in os.listdir(root) if f.startswith("wal-"))


def snap_files(root):
    return sorted(f for f in os.listdir(root) if f.startswith("snap-"))


def append_n(j, n, start=0):
    return [j.append("insert", f"j{start + i}", i + 1) for i in range(n)]


# ----------------------------------------------------------------------
# Appending


def test_lsn_assignment_and_reopen_continuity(tmp_path):
    root = str(tmp_path)
    with Journal(root, fsync="never") as j:
        assert j.last_lsn == 0
        assert append_n(j, 3) == [1, 2, 3]
    # reopen: scans the durable tail, continues the LSN sequence
    with Journal(root, fsync="never") as j:
        assert j.last_lsn == 3
        assert j.append("delete", "j0", 1) == 4
    # a fresh segment per open -- never appends to a possibly-torn tail
    assert len(seg_files(root)) == 2


def test_segment_roll(tmp_path):
    with Journal(str(tmp_path), fsync="never", segment_records=2) as j:
        append_n(j, 5)
        assert j.stats()["segments"] == 3
    assert seg_files(str(tmp_path)) == [
        "wal-0000000000000001.seg",
        "wal-0000000000000003.seg",
        "wal-0000000000000005.seg",
    ]


@pytest.mark.parametrize("policy", ["never", "interval", "always"])
def test_roll_fsyncs_its_directory_unless_never(tmp_path, monkeypatch, policy):
    """Each open/append/close cycle rolls one new segment.  Under ``never``
    nothing is fsynced, the new segment's directory entry included (a power
    loss may lose unsynced data anyway); the other policies fsync the
    directory once per roll."""
    real_fsync = os.fsync
    calls = {"dir": 0, "file": 0}

    def counting_fsync(fd):
        calls["dir" if stat.S_ISDIR(os.fstat(fd).st_mode) else "file"] += 1
        return real_fsync(fd)

    monkeypatch.setattr(os, "fsync", counting_fsync)
    cycles = 6
    for k in range(cycles):
        with Journal(str(tmp_path), fsync=policy) as j:
            append_n(j, 2, start=2 * k)
    monkeypatch.undo()
    assert len(seg_files(str(tmp_path))) == cycles
    if policy == "never":
        assert calls == {"dir": 0, "file": 0}
    else:
        assert calls["dir"] == cycles
        assert calls["file"] > 0


def test_constructor_validation(tmp_path):
    with pytest.raises(ValueError):
        Journal(str(tmp_path), fsync="sometimes")
    with pytest.raises(ValueError):
        Journal(str(tmp_path), fsync_interval=0)
    with pytest.raises(ValueError):
        Journal(str(tmp_path), segment_records=0)


def test_fsync_policies_count(tmp_path):
    with Journal(str(tmp_path / "a"), fsync="always") as j:
        append_n(j, 3)
        assert j.fsyncs == 3
    with Journal(str(tmp_path / "b"), fsync="interval", fsync_interval=2) as j:
        append_n(j, 5)
        assert j.fsyncs == 2  # after appends 2 and 4
    with Journal(str(tmp_path / "c"), fsync="never") as j:
        append_n(j, 5)
        assert j.fsyncs == 0


def test_registry_counters(tmp_path):
    reg = MetricsRegistry()
    with Journal(str(tmp_path), fsync="never", registry=reg) as j:
        append_n(j, 2)
        j.checkpoint({"marker": 1})
    snap = reg.snapshot()["counters"]
    assert snap["service.journal.appends"] == 2
    assert snap["service.journal.bytes"] > 0
    assert snap["service.journal.checkpoints"] == 1


# ----------------------------------------------------------------------
# Recovery


def test_recover_without_snapshot(tmp_path):
    root = str(tmp_path)
    with Journal(root, fsync="never", segment_records=2) as j:
        append_n(j, 5)
    snap, tail = Journal(root, fsync="never").recover()
    assert snap is None
    assert [r.lsn for r in tail] == [1, 2, 3, 4, 5]
    assert tail[0] == JournalRecord(lsn=1, op="insert", name="j0", size=1)


def test_checkpoint_truncates_and_recovers(tmp_path):
    root = str(tmp_path)
    with Journal(root, fsync="never") as j:
        append_n(j, 3)
        assert j.checkpoint({"marker": "A"}) == 3
        # covered segments are gone; appends continue past the snapshot
        assert seg_files(root) == []
        assert append_n(j, 2, start=3) == [4, 5]
    with Journal(root, fsync="never") as j:
        snap, tail = j.recover()
    assert snap == {"marker": "A"}
    assert [r.lsn for r in tail] == [4, 5]


def test_snapshot_pruning(tmp_path):
    root = str(tmp_path)
    with Journal(root, fsync="never") as j:
        for gen in range(4):
            append_n(j, 2, start=2 * gen)
            j.checkpoint({"gen": gen})
    names = snap_files(root)
    assert len(names) == 2  # newest + one fallback generation
    assert names == ["snap-0000000000000006.json", "snap-0000000000000008.json"]


def test_torn_final_line_tolerated(tmp_path):
    root = str(tmp_path)
    with Journal(root, fsync="never") as j:
        append_n(j, 3)
    seg = os.path.join(root, seg_files(root)[0])
    with open(seg, "ab") as fh:
        fh.write(b'{"lsn": 4, "op": "ins')  # crash mid-write
    with Journal(root, fsync="never") as j:
        assert j.last_lsn == 3  # the torn record was never acknowledged
        snap, tail = j.recover()
    assert snap is None
    assert [r.lsn for r in tail] == [1, 2, 3]


def test_mid_segment_corruption_raises(tmp_path):
    root = str(tmp_path)
    with Journal(root, fsync="never") as j:
        append_n(j, 3)
    seg = os.path.join(root, seg_files(root)[0])
    lines = open(seg, "rb").read().splitlines(keepends=True)
    lines[1] = b"garbage\n"
    with open(seg, "wb") as fh:
        fh.writelines(lines)
    # replaying past a hole would silently diverge -> refuse to open
    with pytest.raises(JournalCorrupt):
        Journal(root, fsync="never")


def test_missing_middle_segment_is_a_hole(tmp_path):
    root = str(tmp_path)
    with Journal(root, fsync="never", segment_records=2) as j:
        append_n(j, 6)
    os.unlink(os.path.join(root, "wal-0000000000000003.seg"))
    j = Journal(root, fsync="never")
    with pytest.raises(JournalCorrupt, match="hole"):
        j.recover()


def test_fallback_to_older_snapshot_when_tail_covers(tmp_path):
    root = str(tmp_path)
    with Journal(root, fsync="never") as j:
        append_n(j, 3)
        j.checkpoint({"marker": "old"})
        append_n(j, 2, start=3)  # LSNs 4, 5 stay in the live segment
    # a later snapshot generation exists but is unreadable
    bad = os.path.join(root, "snap-0000000000000005.json")
    with open(bad, "w", encoding="utf-8") as fh:
        fh.write("{not json")
    with Journal(root, fsync="never") as j:
        snap, tail = j.recover()
    assert snap == {"marker": "old"}
    assert [r.lsn for r in tail] == [4, 5]


def test_unreadable_snapshot_without_covering_tail_raises(tmp_path):
    root = str(tmp_path)
    with Journal(root, fsync="never") as j:
        append_n(j, 3)
        j.checkpoint({"marker": "old"})
        append_n(j, 2, start=3)
        j.checkpoint({"marker": "new"})  # truncates LSNs 4-5 from the log
    bad = os.path.join(root, "snap-0000000000000005.json")
    with open(bad, "w", encoding="utf-8") as fh:
        fh.write("{not json")
    # acked ops 4-5 exist only in the corrupt snapshot: refuse, don't
    # silently roll back to LSN 3
    j = Journal(root, fsync="never")
    with pytest.raises(JournalCorrupt, match="unreadable"):
        j.recover()


def test_truncated_crc_final_record_is_a_torn_tail(tmp_path):
    root = str(tmp_path)
    with Journal(root, fsync="never") as j:
        append_n(j, 3)
    seg = os.path.join(root, seg_files(root)[0])
    lines = open(seg, "rb").read().splitlines(keepends=True)
    last = lines[-1]
    # cut the final record in the middle of its CRC digits: the record
    # fails to decode, exactly like a crash mid-write of the checksum
    cut = last[: last.index(b'"c":') + 7]
    with open(seg, "wb") as fh:
        fh.writelines(lines[:-1])
        fh.write(cut)
    with Journal(root, fsync="never") as j:
        assert j.last_lsn == 2  # the truncated record was never acked
        snap, tail = j.recover()
    assert snap is None
    assert [r.lsn for r in tail] == [1, 2]


def test_duplicate_lsn_is_corruption(tmp_path):
    root = str(tmp_path)
    with Journal(root, fsync="never") as j:
        append_n(j, 2)
    seg = os.path.join(root, seg_files(root)[0])
    from repro.service.journal import _encode_record

    # a well-formed record (valid CRC) re-using an existing LSN: replay
    # must refuse rather than silently double-apply
    dup = _encode_record(JournalRecord(lsn=2, op="insert", name="dup", size=1))
    with open(seg, "ab") as fh:
        fh.write(dup)
    j = Journal(root, fsync="never")
    with pytest.raises(JournalCorrupt, match="expected 3"):
        j.recover()


def test_zero_length_segment_is_tolerated(tmp_path):
    root = str(tmp_path)
    with Journal(root, fsync="never") as j:
        append_n(j, 3)
    # a crash right after a roll, before the first append, leaves an
    # empty segment behind; recovery must skip it, not choke
    open(os.path.join(root, "wal-0000000000000004.seg"), "wb").close()
    with Journal(root, fsync="never") as j:
        assert j.last_lsn == 3
        snap, tail = j.recover()
    assert snap is None
    assert [r.lsn for r in tail] == [1, 2, 3]


def test_idem_key_round_trips(tmp_path):
    with Journal(str(tmp_path), fsync="never") as j:
        j.append("insert", "a", 2, idem="cdeadbeef-1")
        j.append("delete", "a", 2)
    snap, tail = Journal(str(tmp_path), fsync="never").recover()
    assert snap is None
    assert tail[0].idem == "cdeadbeef-1"
    assert tail[1].idem is None


def test_injected_append_fault_consumes_no_lsn(tmp_path):
    from repro import faults

    root = str(tmp_path)
    with Journal(root, fsync="never") as j:
        j.append("insert", "a", 1)
        faults.activate(
            faults.parse_plan("journal.append.io=error:ENOSPC@times1")
        )
        try:
            with pytest.raises(OSError):
                j.append("insert", "b", 2)
            # all-or-nothing: the failed append left no trace
            assert j.last_lsn == 1
            assert j.append("insert", "b", 2) == 2
        finally:
            faults.deactivate()
    snap, tail = Journal(root, fsync="never").recover()
    assert [(r.lsn, r.name) for r in tail] == [(1, "a"), (2, "b")]


def test_stats_shape(tmp_path):
    with Journal(str(tmp_path), fsync="always") as j:
        append_n(j, 2)
        j.checkpoint({"m": 1})
        j.append("insert", "x", 1)
        s = j.stats()
    assert s["last_lsn"] == 3
    assert s["appends"] == 3
    assert s["checkpoints"] == 1
    assert s["segments"] == 1
    assert s["snapshots"] == 1
    assert s["fsyncs"] >= 3


def test_snapshot_is_canonical_json(tmp_path):
    root = str(tmp_path)
    with Journal(root, fsync="never") as j:
        j.append("insert", "a", 2)
        j.checkpoint({"b": 1, "a": {"z": 0, "y": 1}})
    path = os.path.join(root, snap_files(root)[0])
    text = open(path, encoding="utf-8").read()
    assert json.loads(text) == {"b": 1, "a": {"z": 0, "y": 1}}
    assert text.index('"a"') < text.index('"b"')  # sort_keys on disk


# ----------------------------------------------------------------------
# Durable marker writes: the rename itself must reach the directory


def _spy_durability(monkeypatch):
    """Record ``("replace", dst)`` and ``("fsync_dir", path)`` in order."""
    events = []
    dir_fds = {}
    real_open, real_fsync, real_replace = os.open, os.fsync, os.replace

    def spy_open(path, flags, *args, **kw):
        fd = real_open(path, flags, *args, **kw)
        if os.path.isdir(path):
            dir_fds[fd] = os.path.abspath(path)
        return fd

    def spy_fsync(fd):
        if fd in dir_fds:
            events.append(("fsync_dir", dir_fds.pop(fd)))
        return real_fsync(fd)

    def spy_replace(src, dst, *args, **kw):
        events.append(("replace", os.path.abspath(dst)))
        return real_replace(src, dst, *args, **kw)

    monkeypatch.setattr(os, "open", spy_open)
    monkeypatch.setattr(os, "fsync", spy_fsync)
    monkeypatch.setattr(os, "replace", spy_replace)
    return events


def _dir_fsynced_after_rename(events, path):
    path = os.path.abspath(path)
    idx = events.index(("replace", path))
    return ("fsync_dir", os.path.dirname(path)) in events[idx + 1:]


def test_seal_tombstone_fsyncs_its_directory(tmp_path, monkeypatch):
    import asyncio

    from repro.service.protocol import Request
    from repro.service.sessions import SessionManager

    async def main():
        m = SessionManager(str(tmp_path), fsync="never")
        await m.dispatch(Request(op="open", session="s"))
        await m.dispatch(Request(op="migrate_out", session="s"))
        events = _spy_durability(monkeypatch)
        await m.dispatch(Request(op="migrate_seal", session="s", target="b"))
        monkeypatch.undo()
        await m.shutdown()
        return events

    events = asyncio.run(main())
    assert _dir_fsynced_after_rename(events, tmp_path / "s" / "moved.json")


def test_failover_fence_fsyncs_its_directory(tmp_path, monkeypatch):
    from repro.cluster.group import ShardGroup

    group = ShardGroup(str(tmp_path / "cluster"), shards=1)
    data = tmp_path / "cluster" / "shard-0"
    events = _spy_durability(monkeypatch)
    group._write_fence(str(data), 2, "shard-0r1")
    monkeypatch.undo()
    assert _dir_fsynced_after_rename(events, data / "fence.json")
    with open(data / "fence.json", encoding="utf-8") as fh:
        assert json.load(fh) == {"epoch": 2, "promoted": "shard-0r1"}
