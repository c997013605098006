"""Offline trace joining: client <-> server spans, journal LSN forensics.

The serving stack writes two trace files per traced run -- one from the
client (``client.call`` / ``client.attempt`` spans) and one from the
server (``server.op`` spans with ``journal.append`` / ``journal.fsync``
children).  Span ids are only unique within one file, so cross-process
linkage rides on two extra fields (see :mod:`repro.obs.trace`):

``trace``  the client-generated request trace id (a string), stamped on
           every span and event of that request in *both* files;
``pspan``  on a server span, the *remote* parent span id: the client's
           ``client.attempt`` span id that carried the request.

This module implements the joins behind ``repro report --journal
--trace`` and the CI trace-smoke gate:

* :func:`collect_spans` -- fold raw records into completed spans;
* :func:`join_traces` -- one row per server op, linked to its client
  attempt (and through it the retry history) by ``(trace, pspan)``;
* :func:`lsn_index` / :func:`journal_trace_report` -- resolve journal
  LSNs back to the trace/span that wrote them, so a record found on
  disk answers "which request, which attempt, how long did its fsync
  take".
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any, Iterable, Optional

from repro.obs.trace import read_trace
from repro.service.image import read_journal_records

__all__ = [
    "Span",
    "collect_spans",
    "join_traces",
    "journal_trace_report",
    "lsn_index",
    "read_spans",
]


@dataclass
class Span:
    """One completed (or still-open) span folded from start/end records."""

    sid: int
    name: str
    t_start: float
    t_end: Optional[float] = None
    fields: dict[str, Any] = field(default_factory=dict)
    events: list[dict[str, Any]] = field(default_factory=list)
    children: list[int] = field(default_factory=list)

    @property
    def trace(self) -> Optional[str]:
        tid = self.fields.get("trace")
        return tid if isinstance(tid, str) else None

    @property
    def pspan(self) -> Optional[int]:
        ps = self.fields.get("pspan")
        return ps if isinstance(ps, int) else None

    @property
    def duration(self) -> Optional[float]:
        if self.t_end is None:
            return None
        return max(0.0, self.t_end - self.t_start)


_SKIP_FIELDS = frozenset(
    {"v", "seq", "t", "type", "span", "name", "unclosed"}
)


def collect_spans(records: Iterable[dict[str, Any]]) -> dict[int, Span]:
    """Fold ``span_start``/``span_end``/``span_event`` records into spans.

    Start and end payload fields merge into ``Span.fields`` (end wins on
    conflict -- that is where outcomes and timings live).  Events carrying
    a ``span`` field attach to that span; ``parent`` links populate
    ``children``.  Records of other types are ignored.
    """
    spans: dict[int, Span] = {}
    for rec in records:
        rtype = rec.get("type")
        if rtype == "span_start":
            sid = rec["span"]
            span = Span(sid=sid, name=rec["name"], t_start=rec["t"])
            for k, v in rec.items():
                if k not in _SKIP_FIELDS:
                    span.fields[k] = v
            spans[sid] = span
            parent = rec.get("parent")
            if isinstance(parent, int) and parent in spans:
                spans[parent].children.append(sid)
        elif rtype == "span_end":
            span = spans.get(rec["span"])
            if span is None:
                continue
            span.t_end = rec["t"]
            for k, v in rec.items():
                if k not in _SKIP_FIELDS:
                    span.fields[k] = v
        elif rtype == "span_event":
            target = rec.get("span")
            if isinstance(target, int) and target in spans:
                spans[target].events.append(rec)
    return spans


def read_spans(
    path: str, *, tolerant: bool = False
) -> dict[int, Span]:
    """:func:`collect_spans` over a trace file on disk."""
    return collect_spans(read_trace(path, tolerant=tolerant))


def join_traces(
    client_spans: dict[int, Span], server_spans: dict[int, Span]
) -> list[dict[str, Any]]:
    """One row per ``server.op`` span, joined to its client attempt.

    The join key is ``(trace, pspan)`` on the server side against
    ``(trace, span id)`` of ``client.attempt`` spans.  Each row carries
    the request decomposition from the server span plus the client-side
    view (attempt ordinal, total attempts on the call, outcome), and
    ``joined=False`` rows surface server ops whose client trace is
    missing -- the CI smoke gate asserts there are none.
    """
    attempts: dict[tuple[str, int], Span] = {}
    calls: dict[str, Span] = {}
    attempts_per_trace: dict[str, int] = {}
    for span in client_spans.values():
        tid = span.trace
        if tid is None:
            continue
        if span.name == "client.attempt":
            attempts[(tid, span.sid)] = span
            attempts_per_trace[tid] = attempts_per_trace.get(tid, 0) + 1
        elif span.name in ("client.call", "cluster.call"):
            calls[tid] = span

    rows: list[dict[str, Any]] = []
    for span in sorted(server_spans.values(), key=lambda s: s.t_start):
        if span.name != "server.op":
            continue
        tid = span.trace
        row: dict[str, Any] = {
            "op": span.fields.get("op"),
            "session": span.fields.get("session"),
            "trace": tid,
            "server_span": span.sid,
            "outcome": span.fields.get("outcome"),
            "joined": False,
        }
        for k in ("total", "queue_wait", "execute", "journal", "fsync", "lsn"):
            if k in span.fields:
                row[k] = span.fields[k]
        if span.events:
            row["events"] = [e.get("name") for e in span.events]
        ps = span.pspan
        attempt = attempts.get((tid, ps)) if tid is not None else None
        if attempt is not None and ps is not None:
            call = calls.get(tid)
            row["joined"] = True
            row["client_span"] = ps
            row["attempt"] = attempt.fields.get("attempt")
            row["attempts"] = attempts_per_trace.get(tid, 1)
            row["client_outcome"] = attempt.fields.get("outcome")
            if call is not None and call.duration is not None:
                row["client_total"] = round(call.duration, 6)
        rows.append(row)
    return rows


def lsn_index(
    server_spans: dict[int, Span],
) -> dict[tuple[str, int], dict[str, Any]]:
    """Map ``(session, lsn)`` -> the trace context that durably wrote it.

    LSNs are per-session, so the session id is part of the key.  The
    value records the owning ``server.op`` span, its trace id and op,
    plus journal/fsync timings -- everything needed to answer "where did
    this on-disk record come from".
    """
    index: dict[tuple[str, int], dict[str, Any]] = {}
    for span in server_spans.values():
        if span.name != "server.op":
            continue
        session = span.fields.get("session")
        lsn = span.fields.get("lsn")
        if not isinstance(session, str) or not isinstance(lsn, int):
            continue
        index[(session, lsn)] = {
            "server_span": span.sid,
            "trace": span.trace,
            "op": span.fields.get("op"),
            "outcome": span.fields.get("outcome"),
            "journal": span.fields.get("journal"),
            "fsync": span.fields.get("fsync"),
        }
    return index


def journal_trace_report(
    journal_root: str, trace_path: str, *, tolerant: bool = False
) -> dict[str, Any]:
    """Join on-disk journal records against a server trace file.

    For every record still present in the segment files under
    ``journal_root`` (a session dir or a server data dir), look up its
    ``(session, lsn)`` in the trace and report the resolution rate --
    the acceptance check behind ``repro report --journal --trace``.
    Unresolved records are normal when the trace started after the
    journal (or segments were checkpointed away mid-run); the per-record
    rows let a human audit exactly which writes have trace coverage.
    """
    spans = read_spans(trace_path, tolerant=tolerant)
    index = lsn_index(spans)
    sessions: dict[str, Any] = {}
    resolved = total = 0
    for sid, records in sorted(read_journal_records(journal_root).items()):
        rows = []
        for rec in records:
            total += 1
            hit = index.get((sid, rec.lsn))
            row: dict[str, Any] = {
                "lsn": rec.lsn,
                "op": rec.op,
                "name": rec.name,
                "resolved": hit is not None,
            }
            if rec.idem is not None:
                row["idem"] = rec.idem
            if hit is not None:
                resolved += 1
                row["trace"] = hit["trace"]
                row["server_span"] = hit["server_span"]
                if hit.get("journal") is not None:
                    row["journal_s"] = hit["journal"]
                if hit.get("fsync") is not None:
                    row["fsync_s"] = hit["fsync"]
            rows.append(row)
        sessions[sid] = {"records": len(rows), "rows": rows}
    return {
        "journal_root": os.path.abspath(journal_root),
        "trace": os.path.abspath(trace_path),
        "sessions": sessions,
        "records": total,
        "resolved": resolved,
        "spans": len(spans),
    }
