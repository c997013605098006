"""The client call policy as a pure state machine: no sockets, no asyncio.

All four clients -- the direct service clients and the cluster clients
-- make every retry, redirect and failover decision here, so one rule
holds for all of them: one backoff schedule and one whole-call deadline
across every hop; a lost connection (a refused connect and a timeout
included) first probes the shard's known copies, then backs off; a
``moved`` answer naming a known shard is followed while hops and time
remain.  :class:`CallPlan` reads no clock of its own, so a test or a
simulator can drive it on a virtual one.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

from repro.service.protocol import ErrorCode, ServiceError


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded exponential backoff with seeded jitter.

    ``attempts`` counts *total* tries (first call + retries).  The delay
    before retry ``k`` is ``min(base * factor**k, max_delay)`` scaled by
    a jitter factor in ``[1 - jitter, 1 + jitter]`` drawn from
    ``random.Random(seed)`` -- deterministic per policy value, so two
    equal policies produce byte-identical schedules (reprolint RL003).
    """

    attempts: int = 4
    base: float = 0.02
    factor: float = 2.0
    max_delay: float = 1.0
    jitter: float = 0.25
    seed: int = 0
    #: Also retry ``degraded`` responses (the session heals in the
    #: background); turn off to surface read-only mode immediately.
    retry_degraded: bool = True

    def __post_init__(self) -> None:
        if self.attempts < 1:
            raise ValueError("attempts must be >= 1")
        if self.base < 0 or self.max_delay < 0 or self.factor < 1.0:
            raise ValueError("base/max_delay must be >= 0 and factor >= 1")
        if not (0.0 <= self.jitter < 1.0):
            raise ValueError("jitter must be in [0, 1)")

    def schedule(self) -> list[float]:
        """The full backoff schedule: one delay per possible retry."""
        rng = random.Random(self.seed)
        out: list[float] = []
        delay = self.base
        for _ in range(self.attempts - 1):
            scale = 1.0 + self.jitter * (2.0 * rng.random() - 1.0)
            out.append(min(delay, self.max_delay) * scale)
            delay *= self.factor
        return out

    def retries_code(self, code: ErrorCode) -> bool:
        if code is ErrorCode.RETRY_LATER:
            return True
        return code is ErrorCode.DEGRADED and self.retry_degraded


class Step(enum.Enum):
    """What the shell does next for one call (see :class:`CallPlan`)."""

    SEND = "send"
    SLEEP = "sleep"
    PROBE = "probe"
    RAISE = "raise"


class CallPlan:
    """Every retry, redirect and failover decision of one logical call.

    A shell makes a call's first attempt itself; from the first failure
    on it reports each outcome with the current time to :meth:`failed`,
    :meth:`probed` or :meth:`woke`, and does what the returned
    :class:`Step` says:

    * ``SEND`` -- one attempt at ``shard`` within ``budget`` seconds
      (``None``: unbounded).  After a hop, ``hop`` says why
      (``"redirect"`` after ``moved``, ``"failover"`` after a probe
      found a promoted copy) and the shell records the new owner;
    * ``SLEEP`` -- back off ``wait`` seconds;
    * ``PROBE`` -- ask the copy ``probe``, within ``budget``, whether it
      now answers as a primary;
    * ``RAISE`` -- give up with ``error``.

    ``start`` is when the first attempt began and ``timeout`` the whole
    call's budget; ``shard`` is where that attempt went.  ``copies``
    maps every known shard to its copies in probe order (a ``moved``
    target outside it is never followed).  A direct service client
    leaves both empty and ``max_hops`` at 0: it never hops or probes.
    """

    def __init__(
        self,
        policy: Optional[RetryPolicy],
        *,
        timeout: Optional[float] = None,
        start: float = 0.0,
        shard: str = "",
        session: Optional[str] = None,
        copies: Optional[Mapping[str, Sequence[str]]] = None,
        max_hops: int = 0,
    ) -> None:
        self.policy = policy
        self.delays = policy.schedule() if policy is not None else []
        self.deadline = None if timeout is None else start + timeout
        self.session = session
        self.copies: Mapping[str, Sequence[str]] = copies or {}
        self.max_hops = max_hops
        self.sleeps = 0
        self.hops = 0
        #: The step's arguments (class docstring).
        self.shard = shard
        self.budget: Optional[float] = timeout
        self.wait = 0.0
        self.probe = ""
        self.hop = ""
        self.error = ServiceError(ErrorCode.INTERNAL, "call has not failed")
        self._unprobed: list[str] = []

    def failed(self, outcome: BaseException, now: float) -> Step:
        """The attempt at ``shard`` failed: ``outcome`` is its error
        answer (a :class:`ServiceError`) or the exception that lost the
        connection."""
        self.hop = ""
        if not isinstance(outcome, ServiceError):
            where = f"shard {self.shard}: " if self.shard else ""
            self.error = ServiceError(
                ErrorCode.INTERNAL, f"{where}connection failed: {outcome}"
            )
            self.error.__cause__ = outcome
            if self.hops < self.max_hops:
                # Dead shard?  A promoted copy may hold the session:
                # probe before spending a backoff step on the corpse.
                self._unprobed = list(self.copies.get(self.shard, ()))
                return self._probe_next(now)
            return self._backoff(now, None)
        self.error = outcome
        target = outcome.moved
        if (
            outcome.code is ErrorCode.MOVED
            and self.session is not None
            and target is not None
            and target in self.copies
            and self.hops < self.max_hops
        ):
            return self._hop(target, "redirect", now)
        policy = self.policy
        if policy is None or not policy.retries_code(outcome.code):
            return Step.RAISE
        # The server's advisory delay overrides the local schedule.
        hint = outcome.retry_after
        return self._backoff(now, None if hint is None else float(hint))

    def probed(self, primary: bool, now: float) -> Step:
        """The copy ``probe`` did (or did not) answer as a primary."""
        if primary:
            self._unprobed = []
            return self._hop(self.probe, "failover", now)
        return self._probe_next(now)

    def woke(self, now: float) -> Step:
        """The backoff sleep is over."""
        return self._send(now)

    # -- internals --------------------------------------------------------

    def _send(self, now: float) -> Step:
        """Set the next attempt's budget; none left means give up."""
        if self.deadline is None:
            self.budget = None
            return Step.SEND
        self.budget = self.deadline - now
        return Step.SEND if self.budget > 0 else Step.RAISE

    def _hop(self, target: str, why: str, now: float) -> Step:
        self.hops += 1
        self.shard = target
        self.hop = why
        return self._send(now)

    def _probe_next(self, now: float) -> Step:
        if self._unprobed and self._send(now) is Step.SEND:
            self.probe = self._unprobed.pop(0)
            return Step.PROBE
        self._unprobed = []
        return self._backoff(now, None)

    def _backoff(self, now: float, hint: Optional[float]) -> Step:
        if self.sleeps >= len(self.delays):
            return Step.RAISE
        wait = self.delays[self.sleeps] if hint is None else hint
        # ``timeout=`` is a whole-call budget: never sleep past it.
        if self.deadline is not None and wait >= self.deadline - now:
            return Step.RAISE
        self.sleeps += 1
        self.wait = wait
        return Step.SLEEP
