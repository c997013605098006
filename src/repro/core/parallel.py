"""The p-server cost-oblivious reallocating scheduler (Section 3).

Each of the ``p`` identical servers runs an independent single-server
scheduler; a simple balancing rule keeps, for every size class, the
per-server job counts within 1 of each other (Invariant 5):

* **insert**: the job goes to the server with the fewest class-``j`` jobs
  (ties by server id) -- effectively round-robin per class.  No job ever
  changes servers on an insertion.
* **delete**: if removing the job breaks Invariant 5, exactly one job of
  the same class migrates from a fullest server to the deficient one.

Lemma 7 / Corollary 8 then bound each job's completion-time drift against
the optimal round-robin schedule by ``2 * size(j)``, giving the O(1)
approximation of Theorem 9, with reallocation competitiveness inherited
from the single-server scheduler (both bounds independent of ``p``).
"""

from __future__ import annotations

from typing import Hashable, Optional

from repro.core.events import Ledger, Reallocation, ReallocKind
from repro.core.jobs import Job, PlacedJob, SizeClasser
from repro.core.single import SingleServerScheduler


class ParallelScheduler:
    """Cost-oblivious reallocating scheduler for ``p`` identical servers."""

    def __init__(
        self,
        p: int,
        max_job_size: int,
        *,
        epsilon: Optional[float] = None,
        delta: Optional[float] = None,
        dynamic: bool = False,
    ) -> None:
        if p < 1:
            raise ValueError("p must be >= 1")
        self._adopt(
            [
                SingleServerScheduler(
                    max_job_size,
                    epsilon=epsilon,
                    delta=delta,
                    dynamic=dynamic,
                    server=s,
                )
                for s in range(p)
            ]
        )

    @classmethod
    def from_servers(cls, servers: list[SingleServerScheduler]) -> "ParallelScheduler":
        """A scheduler over already-built servers, with an empty ledger
        and job map for the caller to fill (snapshot restore)."""
        out = cls.__new__(cls)
        out._adopt(servers)
        return out

    def _adopt(self, servers: list[SingleServerScheduler]) -> None:
        # A child's ops are copied into this scheduler's ledger as they
        # commit; only its last report is ever read (_replay_child), so
        # children keep no per-op series.
        for sched in servers:
            sched.ledger.reports = None
        self.p = len(servers)
        self.servers = servers
        self.delta = servers[0].delta
        self.classer: SizeClasser = servers[0].classer
        self.ledger = Ledger()
        self._where: dict[Hashable, int] = {}

    # ------------------------------------------------------------------
    # Introspection

    def __len__(self) -> int:
        return len(self._where)

    def __contains__(self, name: Hashable) -> bool:
        return name in self._where

    def class_count(self, j: int, server: int) -> int:
        sched = self.servers[server]
        return len(sched.layouts[j]) if j < sched.num_classes else 0

    def class_counts(self, j: int) -> list[int]:
        return [len(s.layouts[j]) if j < len(s.layouts) else 0 for s in self.servers]

    def jobs(self) -> list[PlacedJob]:
        out: list[PlacedJob] = []
        for sched in self.servers:
            out.extend(sched.jobs())
        return out

    def placement(self, name: Hashable) -> PlacedJob:
        return self.servers[self._where[name]].placement(name)

    def sum_completion_times(self) -> int:
        return sum(sched.sum_completion_times() for sched in self.servers)

    def total_volume(self) -> int:
        return sum(sched.total_volume() for sched in self.servers)

    # ------------------------------------------------------------------
    # Requests

    def insert(self, name: Hashable, size: int) -> PlacedJob:
        if name in self._where:
            raise KeyError(f"job {name!r} already active")
        for sched in self.servers:
            if sched.dynamic and size > sched.classer.max_size:
                sched._grow_for(size)
        j = self.classer.class_of(size)
        # Round-robin per class: fewest class-j jobs wins, ties by id.
        counts = self.class_counts(j)
        server = counts.index(min(counts))
        self.ledger.begin("insert", name, size)
        try:
            placed = self.servers[server].insert(name, size)
            self._replay_child(server, migrated=None)
            self._where[name] = server
        except BaseException:
            self.ledger.abort()
            raise
        self.ledger.commit()
        return placed

    def delete(self, name: Hashable) -> Job:
        server = self._where.pop(name, None)
        if server is None:
            raise KeyError(f"job {name!r} not active")
        sched = self.servers[server]
        j = sched.placement(name).klass
        self.ledger.begin("delete", name, sched.placement(name).size)
        try:
            job = sched.delete(name)
            self._replay_child(server, migrated=None)
            self._rebalance(j, server)
        except BaseException:
            self.ledger.abort()
            raise
        self.ledger.commit()
        return job

    # ------------------------------------------------------------------
    # Elastic server count (extension; cf. Tovey [31] in related work)

    def add_server(self) -> int:
        """Add one (empty) server and restore Invariant 5 for every class.

        Jobs migrate from the fullest servers to the newcomer until every
        class's counts are within 1 again -- roughly ``n_c / (p+1)`` jobs
        per class, the unavoidable minimum.  Returns the new server id.
        """
        s = self.p
        first = self.servers[0]
        self.servers.append(
            SingleServerScheduler(
                first.classer.max_size,
                delta=first.delta,
                dynamic=first.dynamic,
                server=s,
                ledger=Ledger(keep_reports=False),
            )
        )
        self.p += 1
        self.ledger.begin("insert", f"<add-server-{s}>", 1)
        try:
            for j in range(self.servers[0].num_classes):
                self._drain_into(j, target=s)
        except BaseException:
            self.ledger.abort()
            raise
        self.ledger.commit()
        # The synthetic marker op must not pollute allocation accounting.
        self.ledger.alloc_hist[1] -= 1
        if self.ledger.alloc_hist[1] == 0:
            del self.ledger.alloc_hist[1]
        self.ledger.inserts -= 1
        return s

    def remove_server(self, victim: int) -> None:
        """Evacuate and remove one server; all its jobs migrate."""
        if self.p == 1:
            raise ValueError("cannot remove the last server")
        if not (0 <= victim < self.p):
            raise IndexError(f"server {victim} out of range")
        sched = self.servers[victim]
        evacuees = [(pj.name, pj.size, pj.klass) for pj in sched.jobs()]
        self.ledger.begin("delete", f"<remove-server-{victim}>", 1)
        try:
            for name, size, j in evacuees:
                sched.delete(name)
                self._replay_child(victim, migrated=None)
                counts = [
                    (self.class_count(j, t), t)
                    for t in range(self.p)
                    if t != victim
                ]
                _, target = min(counts)
                self.servers[target].insert(name, size)
                self._replay_child(target, migrated=name)
                self._where[name] = target
        except BaseException:
            self.ledger.abort()
            raise
        self.ledger.commit()
        self.ledger.deletes -= 1
        # Drop the server and renumber the ones after it.
        self.servers.pop(victim)
        self.p -= 1
        for t, server in enumerate(self.servers):
            server.server = t
            for pj in server.jobs():
                pj.server = t
        self._where = {
            name: (srv if srv < victim else srv - 1)
            for name, srv in self._where.items()
        }

    def _drain_into(self, j: int, target: int) -> None:
        """Migrate class-j jobs from fullest servers into ``target`` until
        Invariant 5 holds for class j."""
        while True:
            counts = self.class_counts(j)
            donor = counts.index(max(counts))  # a fullest server, ties by id
            if counts[donor] - counts[target] <= 1:
                return
            donor_sched = self.servers[donor]
            victim = max(donor_sched.layouts[j], key=lambda pj: pj.start)
            vname, vsize = victim.name, victim.size
            donor_sched.delete(vname)
            self._replay_child(donor, migrated=None)
            self.servers[target].insert(vname, vsize)
            self._replay_child(target, migrated=vname)
            self._where[vname] = target

    # ------------------------------------------------------------------
    # Internals

    def _rebalance(self, j: int, deficient: int) -> None:
        """Restore Invariant 5 for class ``j`` after a deletion on
        ``deficient``: migrate one job from a fullest server if needed."""
        counts = self.class_counts(j)
        low = counts[deficient]
        donor = counts.index(max(counts))  # a fullest server, ties by id
        if counts[donor] - low <= 1:
            return
        donor_sched = self.servers[donor]
        # Any class-j job restores balance; take the latest-placed one.
        victim = max(donor_sched.layouts[j], key=lambda pj: pj.start)
        vname, vsize = victim.name, victim.size
        donor_sched.delete(vname)
        self._replay_child(donor, migrated=None)
        self.servers[deficient].insert(vname, vsize)
        self._replay_child(deficient, migrated=vname)
        self._where[vname] = deficient

    def _replay_child(self, server: int, migrated: Optional[Hashable]) -> None:
        """Adopt the child's last op events into this scheduler's ledger.

        The child's event records are adopted as they are, not recorded
        again, except the migrated job's PLACE, which is rewritten as
        MIGRATE so it is priced as a (migrating) reallocation rather than
        a fresh allocation.  The donor's REMOVE stays (it costs nothing).
        """
        report = self.servers[server].ledger.last
        assert report is not None  # the child just committed an op
        events = report.events
        if migrated is not None:
            events = [
                Reallocation(ev.name, ev.size, ReallocKind.MIGRATE)
                if ev.kind is ReallocKind.PLACE and ev.name == migrated
                else ev
                for ev in events
            ]
        self.ledger.adopt(events)

    # ------------------------------------------------------------------
    # Validation

    def check_invariant5(self) -> None:
        """Every class's per-server job counts differ by at most 1."""
        k = max(sched.num_classes for sched in self.servers)
        for j in range(k):
            counts = self.class_counts(j)
            if max(counts) - min(counts) > 1:
                raise AssertionError(f"Invariant 5 violated for class {j}: {counts}")

    def check_schedule(self) -> None:
        for sched in self.servers:
            sched.check_schedule()
        self.check_invariant5()
