"""Seeded request streams for the four benchmark workloads.

Every workload generates its whole input here, up front, from
``--seed``; the program under test only ever sees these requests.  A run
is ``ROUNDS`` rounds, each sending its own stream (seeded by the run's
seed and the round number) to a freshly set-up program.  A stream holds
``seconds * NOMINAL_RATE * scale / ROUNDS`` requests, so two commits
measured with the same settings do exactly the same work -- a faster
commit finishes sooner, it never builds bigger sessions.

The generator tracks each session's live jobs as it goes, so every
delete names a live job and every point query names a live job *at
that request's position in its session's order*.  The benchmark keeps
per-session order fixed on the wire, so no generated request can fail
and the expected end state (:attr:`Stream.final`) is known in advance.

This module is pure Python with no dependency on ``repro``.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import random
from dataclasses import dataclass

#: Requests per second each workload sustains on the reference machine
#: (2 cores, see README.md); it sizes the measured phase so that a run
#: of ``--seconds S`` measures about ``S`` seconds there.  ``churn``'s
#: value is also its open-loop send rate, which stays below half of what
#: the server sustains so that the machine's slow phases do not push it
#: past saturation.  Changing a value changes the work, so it is part of
#: the benchmark definition.
NOMINAL_RATE = {
    "planner": 12000.0,
    "churn": 1000.0,
    "evict": 200.0,
    "replicated": 800.0,
}

WORKLOADS = tuple(NOMINAL_RATE)

#: Rounds per run: the end-to-end timings are medians over rounds, and
#: the paper's ratios pool over the rounds' streams.  ``evict`` runs
#: fewer, longer rounds because its set-up (256 sessions opened through
#: a 64-session cache) costs more than its measured phase.
ROUNDS = {"planner": 5, "churn": 5, "evict": 3, "replicated": 5}


@dataclass(frozen=True)
class Req:
    """One generated request.

    ``lane`` is the closed-loop sender it goes through (a connection in
    ``evict``, a session in ``replicated``; always 0 otherwise).  ``size``
    is the job's size for inserts *and* deletes (the generator knows it),
    which the correctness gate and the journal rung use.
    """

    lane: int
    session: str
    op: str  # "insert" | "delete" | "query"
    name: str = ""  # "" on a whole-schedule query
    size: int = 0
    jobs: bool = False

    def fields(self) -> dict:
        """The wire fields this request carries (``client.call(op, **fields)``)."""
        out: dict = {"session": self.session}
        if self.name:
            out["name"] = self.name
        if self.op == "insert":
            out["size"] = self.size
        if self.jobs:
            out["jobs"] = True
        return out


@dataclass
class Stream:
    """A workload's complete, deterministic input."""

    workload: str
    seed: int
    configs: dict  # session -> {"max_size", "delta", "p"}
    prefill: list  # set-up inserts, session by session
    requests: list  # measured phase, in generation order
    lanes: int
    rate: float  # open-loop send rate in req/s; 0.0 = closed loop
    final: dict  # session -> {job name: size} after every request

    def digest(self) -> str:
        """SHA-256 over the canonical stream: pins generation per seed."""
        h = hashlib.sha256()
        h.update(json.dumps(
            [self.workload, self.configs, self.lanes, self.rate],
            sort_keys=True,
        ).encode())
        for r in self.prefill + self.requests:
            h.update(
                f"{r.lane}|{r.session}|{r.op}|{r.name}|{r.size}|{int(r.jobs)}\n"
                .encode()
            )
        return h.hexdigest()


def build_run(workload: str, seed: int, seconds: float, scale: float = 1.0) -> list:
    """The streams of every round of one run."""
    return [build(workload, seed, seconds, scale, k) for k in range(ROUNDS[workload])]


def run_digest(streams: list) -> str:
    """SHA-256 over the digests of a run's streams."""
    return hashlib.sha256("".join(s.digest() for s in streams).encode()).hexdigest()


def log_uniform(rng: random.Random, hi: int) -> int:
    """A size in ``[1, hi]`` whose logarithm is uniform, so every size
    class of a ``Delta = hi`` scheduler receives about the same share."""
    return max(1, min(hi, int(math.exp(rng.uniform(0.0, math.log(hi + 1))))))


class _Sessions:
    """Live-job bookkeeping shared by the generators."""

    def __init__(self, rng: random.Random, configs: dict) -> None:
        self.rng = rng
        self.configs = configs
        self.live: dict[str, dict[str, int]] = {sid: {} for sid in configs}
        self.order: dict[str, list[str]] = {sid: [] for sid in configs}
        self._seq = {sid: 0 for sid in configs}

    def insert(self, lane: int, sid: str) -> Req:
        name = f"{sid}.{self._seq[sid]}"
        self._seq[sid] += 1
        size = log_uniform(self.rng, self.configs[sid]["max_size"])
        self.live[sid][name] = size
        self.order[sid].append(name)
        return Req(lane, sid, "insert", name, size)

    def delete(self, lane: int, sid: str) -> Req:
        names = self.order[sid]
        k = self.rng.randrange(len(names))
        names[k], names[-1] = names[-1], names[k]
        name = names.pop()
        return Req(lane, sid, "delete", name, self.live[sid].pop(name))

    def write(self, lane: int, sid: str, cap: int) -> Req:
        """Insert or delete with equal odds; insert when empty, delete at ``cap``."""
        n = len(self.order[sid])
        if n == 0 or (n < cap and self.rng.random() < 0.5):
            return self.insert(lane, sid)
        return self.delete(lane, sid)

    def point_query(self, lane: int, sid: str) -> Req:
        if not self.order[sid]:  # nothing to point at: summary query
            return Req(lane, sid, "query")
        name = self.order[sid][self.rng.randrange(len(self.order[sid]))]
        return Req(lane, sid, "query", name, self.live[sid][name])

    def prefill(self, per_session: int) -> list:
        return [self.insert(0, sid) for sid in self.configs for _ in range(per_session)]


def _count(workload: str, seconds: float, scale: float) -> int:
    return max(8, round(seconds * NOMINAL_RATE[workload] * scale / ROUNDS[workload]))


def _prefill_count(n: int, scale: float) -> int:
    return max(1, round(n * scale))


def build(
    workload: str, seed: int, seconds: float, scale: float = 1.0, round_: int = 0
) -> Stream:
    """Generate round ``round_`` of ``workload``'s input for ``seed``."""
    if workload not in NOMINAL_RATE:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}:{round_}")
    n = _count(workload, seconds, scale)
    if workload == "planner":
        configs = {"planner": {"max_size": 65536, "delta": 0.5, "p": 1}}
        st = _Sessions(rng, configs)
        prefill = st.prefill(_prefill_count(4096, scale))
        # Half inserts, half deletes of a uniformly chosen live job.
        reqs = [st.write(0, "planner", cap=1 << 62) for _ in range(n)]
        return Stream(workload, seed, configs, prefill, reqs, 1, 0.0, st.live)
    if workload == "churn":
        configs = {f"c{i}": {"max_size": 64, "delta": 0.5, "p": 1} for i in range(8)}
        st = _Sessions(rng, configs)
        prefill = st.prefill(_prefill_count(128, scale))
        sids = list(configs)
        reqs = []
        for _ in range(n):
            sid = sids[rng.randrange(len(sids))]
            x = rng.random()
            if x < 0.70:
                reqs.append(st.write(0, sid, cap=256))
            elif x < 0.95:
                reqs.append(st.point_query(0, sid))
            else:
                reqs.append(Req(0, sid, "query", jobs=True))
        return Stream(workload, seed, configs, prefill, reqs, 1, NOMINAL_RATE["churn"], st.live)
    if workload == "evict":
        configs = {f"e{i:03d}": {"max_size": 1024, "delta": 0.5, "p": 4} for i in range(256)}
        st = _Sessions(rng, configs)
        prefill = st.prefill(_prefill_count(16, scale))
        # Each of the 2 connections owns 128 sessions and picks among
        # them Zipf(s=1.0); which session is hot is itself seeded.
        sids = list(configs)
        rng.shuffle(sids)
        cum = list(itertools.accumulate(1.0 / (r + 1) for r in range(128)))
        reqs = []
        for lane in range(2):
            owned = sids[lane * 128:(lane + 1) * 128]
            for _ in range(n // 2):
                sid = rng.choices(owned, cum_weights=cum)[0]
                reqs.append(st.write(lane, sid, cap=64))
        return Stream(workload, seed, configs, prefill, reqs, 2, 0.0, st.live)
    configs = {f"r{i}": {"max_size": 64, "delta": 0.5, "p": 1} for i in range(8)}
    st = _Sessions(rng, configs)
    prefill = st.prefill(_prefill_count(64, scale))
    reqs = [
        st.write(lane, sid, cap=256)
        for lane, sid in enumerate(configs)
        for _ in range(n // 8)
    ]
    return Stream(workload, seed, configs, prefill, reqs, 8, 0.0, st.live)
