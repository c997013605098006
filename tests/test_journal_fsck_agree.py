"""Differential: ``repro fsck`` and the journal read a damaged session
directory the same way.

Real journal directories are built through the :class:`Journal` API
(random segment sizes and checkpoints), damaged byte-surgically, then
read by both sides.  Three properties:

(a) damage confined to the last line of the last segment is at most a
    ``torn_tail`` to fsck, and the journal opens and recovers every
    earlier record;
(b) whenever the journal refuses the directory, fsck reports a finding;
(c) after ``fsck --repair`` the journal recovers, and a second repair
    finds nothing.
"""

import os
import random
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.recovery import run_fsck
from repro.service.image import store_config
from repro.service.journal import Journal, JournalCorrupt, segment_files, snapshot_files
from repro.service.protocol import SessionConfig

DAMAGE = (
    "none", "truncate", "overwrite", "dup_line", "drop_line",
    "delete_segment", "garble_snapshot",
)
BYTES = (b"\n", b"\r", b"A", b"{", b"\xff")


def build(d, n, segment_records, checkpoints):
    store_config(d, SessionConfig())
    j = Journal(d, fsync="never", segment_records=segment_records)
    for lsn in range(1, n + 1):
        j.append("insert", f"j{lsn}", lsn % 5 + 1, idem=f"k{lsn}")
        if lsn in checkpoints:
            j.checkpoint({"state": lsn})
    j.close()


def read_lines(path):
    with open(path, "rb") as fh:
        return list(fh)  # binary lines end at \n only


def write(path, data):
    with open(path, "wb") as fh:
        fh.write(data)


def damage(d, kind, byte, last_line, rng):
    """Apply one damage; True when it stayed inside the last line of
    the last segment without adding a line break there."""
    segs = [p for _, p in segment_files(d)]
    snaps = [p for _, p in snapshot_files(d)]
    if kind == "garble_snapshot":
        if snaps:
            path = rng.choice(snaps)
            with open(path, "rb") as fh:
                data = fh.read()
            write(path, data[: len(data) // 2])
        return not snaps
    segs = [p for p in segs if os.path.getsize(p)]
    if kind == "none" or not segs:
        return True
    path = segs[-1] if last_line else rng.choice(segs)
    lines = read_lines(path)
    data = b"".join(lines)
    tail_start = len(data) - len(lines[-1])
    if kind == "delete_segment":
        os.unlink(path)
        return False
    if kind in ("dup_line", "drop_line"):
        i = len(lines) - 1 if last_line else rng.randrange(len(lines))
        if kind == "dup_line":
            lines.insert(i, lines[i])
        else:
            del lines[i]
        write(path, b"".join(lines))
        return kind == "drop_line" and i == len(lines) and path == segs[-1]
    lo = tail_start if last_line else 0
    at = rng.randrange(lo, len(data))
    if kind == "truncate":
        write(path, data[:at])
    else:
        write(path, data[:at] + byte + data[at + 1:])
    return path == segs[-1] and at >= tail_start and (
        kind == "truncate" or byte != b"\n" or at == len(data) - 1
    )


def open_and_recover(d):
    """The serving read: last LSN recovered, or None when refused."""
    try:
        j = Journal(d, fsync="never")
        snap, tail = j.recover()
        j.close()
    except JournalCorrupt:
        return None
    return tail[-1].lsn if tail else (snap or {}).get("state", 0)


@settings(max_examples=300, deadline=None)
@given(
    n=st.integers(0, 12),
    segment_records=st.integers(1, 5),
    checkpoints=st.sets(st.integers(1, 12), max_size=3),
    kind=st.sampled_from(DAMAGE),
    byte=st.sampled_from(BYTES),
    last_line=st.booleans(),
    seed=st.integers(0, 2**16),
)
def test_fsck_and_journal_agree(n, segment_records, checkpoints, kind, byte,
                                last_line, seed):
    with tempfile.TemporaryDirectory() as tmp:
        d = os.path.join(tmp, "s")
        build(d, n, segment_records, checkpoints)
        confined = damage(d, kind, byte, last_line, random.Random(seed))
        recovered = open_and_recover(d)
        found = run_fsck([d]).findings

        # (a) a damaged final line is a torn tail to both readers
        if confined:
            assert {f.kind for f in found} <= {"torn_tail"}, [f.to_doc() for f in found]
            assert recovered is not None and recovered >= n - 1
        # (b) the journal never refuses what fsck calls clean
        if recovered is None:
            assert found
        # (c) repair yields a recoverable directory, idempotently
        run_fsck([d], repair=True)
        assert open_and_recover(d) is not None
        again = run_fsck([d], repair=True)
        assert again.clean, [f.to_doc() for f in again.findings]


def test_stray_cr_in_a_torn_final_line_is_a_torn_tail(tmp_path):
    """Both readers split lines at ``\\n`` only: a torn final line that
    holds a CR byte is one torn line, not two undecodable ones."""
    d = str(tmp_path / "s")
    build(d, 3, 4096, set())
    with open(segment_files(d)[-1][1], "ab") as fh:
        fh.write(b'{"lsn": 4, "op"\r: "ins')
    assert [f.kind for f in run_fsck([d]).findings] == ["torn_tail"]
    assert open_and_recover(d) == 3
