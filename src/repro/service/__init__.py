"""Durable, concurrent scheduler service (the serving layer).

The paper's reallocation schedulers are *online* objects -- long-lived
streams of inserts and deletes -- and the database motivation behind
cost obliviousness is explicitly about reallocators that survive crashes
and resume deterministically.  This package turns the in-process
schedulers of :mod:`repro.core` into a served system:

* :mod:`repro.service.protocol` -- newline-delimited JSON wire protocol
  with strict schema validation and closed error codes;
* :mod:`repro.service.journal`  -- write-ahead journal: append-only
  segments, configurable fsync policy, snapshot checkpoints with
  tail truncation, crash recovery;
* :mod:`repro.service.sessions` -- many concurrent scheduler sessions
  with per-session serialization, load shedding, idempotency-key dedup,
  degraded (read-only) mode with background recovery, and LRU eviction
  to snapshots with lazy rehydration;
* :mod:`repro.service.image`    -- the session image every state
  transfer carries, the one journal-record -> answer rule, and crash
  recovery;
* :mod:`repro.service.server`   -- asyncio TCP/UNIX-socket front end;
* :mod:`repro.service.retry`    -- the one retry/redirect/failover
  policy every client runs: seeded backoff and the pure ``CallPlan``;
* :mod:`repro.service.client`   -- sync + async client library with
  whole-call timeouts, reconnects, retries and idempotency keys;
* :mod:`repro.service.loadgen`  -- closed-loop load generator the
  service smokes drive load with.

Layering: this package builds on ``repro.core``, ``repro.obs`` and
``repro.faults`` only (enforced by reprolint RL002); ``repro.sim`` and
``repro.workloads`` stay independent of it.  Quick start lives in
docs/SERVICE.md; fault injection and retry semantics in docs/FAULTS.md.
"""

from repro.service.client import AsyncServiceClient, ServiceClient
from repro.service.image import recover_scheduler, replay_journal_dir
from repro.service.journal import Journal, JournalCorrupt, JournalRecord
from repro.service.loadgen import LoadgenOptions, run_loadgen, run_loadgen_sync
from repro.service.protocol import (
    MAX_LINE_BYTES,
    PROTOCOL_VERSION,
    ErrorCode,
    Request,
    ServiceError,
    SessionConfig,
)
from repro.service.retry import RetryPolicy
from repro.service.server import ServiceServer
from repro.service.sessions import SessionManager

__all__ = [
    "AsyncServiceClient",
    "ErrorCode",
    "Journal",
    "JournalCorrupt",
    "JournalRecord",
    "LoadgenOptions",
    "MAX_LINE_BYTES",
    "PROTOCOL_VERSION",
    "Request",
    "RetryPolicy",
    "ServiceClient",
    "ServiceError",
    "ServiceServer",
    "SessionConfig",
    "SessionManager",
    "recover_scheduler",
    "replay_journal_dir",
    "run_loadgen",
    "run_loadgen_sync",
]
