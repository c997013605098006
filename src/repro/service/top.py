"""Pure rendering for ``repro top`` -- the live service dashboard.

This module turns one ``stats`` response document (the totals form of
:meth:`repro.service.sessions.SessionManager.stats`) into a fixed-width
text screen.  It does no I/O and owns no loop: the refresh loop, the
client connection, and the actual ``print`` live in :mod:`repro.cli`
(reprolint RL004 -- console output only on console surfaces), which
makes every frame renderable and assertable in unit tests.

Layout (sections appear only when their data is present)::

    repro top -- 127.0.0.1:7421            uptime 42.0s
    sessions  open 3  live 2  on-disk 5  degraded 1
    ops 1234  queue 7  max-live 4  dedup-window 128  fsync batch
    counters  op.count 1234  shed 3  dedup.hits 9  ...
    latency ms        p50     p90     p99     max   count
      queue_wait    0.012   0.034   0.120   0.450    1234
      ...
    session        live     ops   queue   dedup  active  state
      lg0             *     412       2      64     118  ok
      ...
"""

from __future__ import annotations

from typing import Any, Mapping, Optional, Sequence

__all__ = ["render_top"]

#: Display order for the latency section (anything else follows, sorted).
_LATENCY_ORDER = (
    "dispatch", "queue_wait", "journal", "execute", "handoff", "total"
)

#: Counter display names: strip the ``service.`` prefix for width.
_COUNTER_PREFIX = "service."


def _fmt_ms(v: Any) -> str:
    if isinstance(v, (int, float)):
        return f"{float(v):8.3f}"
    return f"{'-':>8}"


def _fmt_count(v: Any) -> str:
    if isinstance(v, (int, float)):
        return f"{int(v):8d}"
    return f"{'-':>8}"


def _latency_rows(latency: Mapping[str, Any]) -> list[str]:
    names = [n for n in _LATENCY_ORDER if n in latency]
    names += sorted(set(latency) - set(names))
    head = (
        f"{'latency ms':<14}{'p50':>8}{'p90':>8}{'p99':>8}"
        f"{'max':>8}{'count':>9}"
    )
    rows = [head]
    for name in names:
        s = latency[name]
        if not isinstance(s, Mapping):
            continue
        rows.append(
            f"  {name:<12}"
            f"{_fmt_ms(s.get('p50'))}{_fmt_ms(s.get('p90'))}"
            f"{_fmt_ms(s.get('p99'))}{_fmt_ms(s.get('max'))}"
            f"{_fmt_count(s.get('count'))[:9]:>9}"
        )
    return rows


def _session_rows(per_session: Sequence[Mapping[str, Any]]) -> list[str]:
    head = (
        f"{'session':<14}{'live':>5}{'ops':>8}{'queue':>7}"
        f"{'dedup':>7}{'active':>8}  state"
    )
    rows = [head]
    for s in per_session:
        active = s.get("active")
        rows.append(
            f"  {str(s.get('session', '?')):<12}"
            f"{'*' if s.get('live') else '.':>5}"
            f"{_fmt_count(s.get('ops'))[:8]:>8}"
            f"{_fmt_count(s.get('queue'))[:7]:>7}"
            f"{_fmt_count(s.get('dedup'))[:7]:>7}"
            f"{_fmt_count(active)[:8] if active is not None else '-':>8}"
            f"  {'DEGRADED' if s.get('degraded') else 'ok'}"
        )
    return rows


def _journal_rows(per_session: Sequence[Mapping[str, Any]]) -> list[str]:
    head = (
        f"{'session':<14}{'live':>5}{'lsn':>9}{'appends':>9}"
        f"{'fsyncs':>8}{'ckpts':>7}{'segs':>6}{'snaps':>7}"
    )
    rows = [head]
    for s in per_session:
        j = s.get("journal")
        if not isinstance(j, Mapping):
            # Evicted / migrated-out sessions have no open journal.
            rows.append(
                f"  {str(s.get('session', '?')):<12}"
                f"{'*' if s.get('live') else '.':>5}"
                f"{'-':>9}{'-':>9}{'-':>8}{'-':>7}{'-':>6}{'-':>7}"
            )
            continue
        rows.append(
            f"  {str(s.get('session', '?')):<12}"
            f"{'*' if s.get('live') else '.':>5}"
            f"{_fmt_count(j.get('last_lsn'))[:9]:>9}"
            f"{_fmt_count(j.get('appends'))[:9]:>9}"
            f"{_fmt_count(j.get('fsyncs'))[:8]:>8}"
            f"{_fmt_count(j.get('checkpoints'))[:7]:>7}"
            f"{_fmt_count(j.get('segments'))[:6]:>6}"
            f"{_fmt_count(j.get('snapshots'))[:7]:>7}"
        )
    return rows


def render_top(
    stats: Mapping[str, Any],
    *,
    target: Optional[str] = None,
    max_sessions: int = 20,
    watch: str = "sessions",
) -> str:
    """Render one dashboard frame from a totals ``stats`` document.

    ``target`` names the endpoint for the header line; ``max_sessions``
    bounds the per-session table (the busiest view stays one screen).
    ``watch`` picks the per-session table: ``"sessions"`` (ops/queue/
    dedup) or ``"journal"`` (per-journal LSN, append/fsync/checkpoint
    counts -- the durability view).  Returns the frame as a single
    string without a trailing newline.
    """
    if watch not in ("sessions", "journal"):
        raise ValueError(f"unknown watch mode {watch!r}")
    lines: list[str] = []
    uptime = stats.get("uptime_s")
    head = "repro top"
    if target:
        head += f" -- {target}"
    if isinstance(uptime, (int, float)):
        head = f"{head:<48}uptime {float(uptime):.1f}s"
    lines.append(head)

    sess = stats.get("sessions")
    if isinstance(sess, Mapping):
        degraded = sess.get("degraded", 0)
        lines.append(
            f"sessions  open {sess.get('open', 0)}  live {sess.get('live', 0)}"
            f"  on-disk {sess.get('on_disk', 0)}"
            f"  degraded {degraded}"
            + ("  <<<" if isinstance(degraded, int) and degraded > 0 else "")
        )
    lines.append(
        f"ops {stats.get('ops', 0)}  queue {stats.get('queue_depth', 0)}"
        f"  max-live {stats.get('max_live', '-')}"
        f"  dedup-window {stats.get('dedup_window', '-')}"
        f"  fsync {stats.get('fsync', '-')}"
    )

    counters = stats.get("counters")
    if isinstance(counters, Mapping) and counters:
        parts = []
        for name in sorted(counters):
            short = name[len(_COUNTER_PREFIX):] if name.startswith(
                _COUNTER_PREFIX
            ) else name
            parts.append(f"{short} {counters[name]}")
        lines.append("counters  " + "  ".join(parts))

    faults = stats.get("faults")
    if isinstance(faults, Mapping):
        fired = faults.get("fired")
        if isinstance(fired, Mapping) and fired:
            parts = [f"{point} {n}" for point, n in sorted(fired.items())]
            lines.append("faults fired  " + "  ".join(parts))

    latency = stats.get("latency_ms")
    if isinstance(latency, Mapping) and latency:
        lines.append("")
        lines.extend(_latency_rows(latency))

    per_session = stats.get("per_session")
    if isinstance(per_session, Sequence) and per_session:
        lines.append("")
        shown = [s for s in per_session if isinstance(s, Mapping)]
        table = _journal_rows if watch == "journal" else _session_rows
        lines.extend(table(shown[:max_sessions]))
        if len(shown) > max_sessions:
            lines.append(f"  ... {len(shown) - max_sessions} more")

    return "\n".join(lines)
