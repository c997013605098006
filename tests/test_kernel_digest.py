"""A golden digest of every decision the scheduler kernel makes.

One SHA-256 covers, over many seeded request streams:

* every placement a request produced: for each ledger event of each
  request, in order, the job's name and size and, while it is live, its
  server and start;
* each run's final placements, ``Ledger.summary()`` and the ledger's
  three histograms;
* each k-cursor table's ``CostCounter`` totals (slots moved and scanned,
  rebuilds by level, gaps consumed and created), and the PMA substrate's
  counter for the PMA-backed run.

The inputs are 24 seeds x p in {1, 4} x dynamic on/off x delta in
{0.25, 0.5}, one ``PMABackedScheduler`` stream, one run shaped like the
benchmark's ``planner`` workload (Delta = 65,536, a 4,096-job prefill,
then half inserts and half deletes), and four streams in which a repair
leaves a job outside its class's segment until a later request repairs
that class again (``SingleServerScheduler._outside``).

The kernel may get faster, but its decisions, reallocations and slot
costs may not change: Theorem 1's bounds are stated in them.  The pinned
value was computed before the lost-slot repair was narrowed to the
districts a request can move; any edit that changes it changes behaviour.
"""

import hashlib
import math
import random

from repro.baselines import PMABackedScheduler
from repro.core import ParallelScheduler, SingleServerScheduler
from repro.core.events import ReallocKind

SEEDS = range(24)
OPS = 240
MAX_SIZE = 512

#: (rng label, Delta, delta, prefill, requests) of streams whose repairs
#: leave a job outside its class's segment for a few requests.
OUTSIDE_STREAMS = [
    ("64:1.0:33", 64, 1.0, 0, 1500),
    ("256:1.0:19", 256, 1.0, 0, 1500),
    ("planner:65536:1.0:24", 65536, 1.0, 300, 800),
    ("planner:65536:0.5:7", 65536, 0.5, 500, 1100),
]

GOLDEN = "de22cba920eda3ef7674e569a0072a12852bcbfa828107c2bd833e94ebec086b"


def _log_uniform(rng: random.Random, hi: int) -> int:
    return max(1, min(hi, int(math.exp(rng.uniform(0.0, math.log(hi + 1))))))


def _stream(rng: random.Random, ops: int, max_size: int, p_insert: float,
            live: list, tag: str = "j", prefill: int = 0) -> list:
    """``ops`` valid requests: the first ``prefill`` are inserts, then
    insert when empty or with odds ``p_insert``, otherwise delete a
    uniformly chosen live job (``live`` is updated).  New jobs are named
    ``tag`` plus a serial number."""
    out = []
    serial = 0
    for _ in range(ops):
        if not live or serial < prefill or rng.random() < p_insert:
            name = f"{tag}{serial}"
            serial += 1
            size = _log_uniform(rng, max_size)
            live.append((name, size))
            out.append(("insert", name, size))
        else:
            k = rng.randrange(len(live))
            live[k], live[-1] = live[-1], live[k]
            out.append(("delete",) + live.pop())
    return out


def _tables(sched):
    if isinstance(sched, PMABackedScheduler):
        return []
    if isinstance(sched, ParallelScheduler):
        return [srv.segments.table for srv in sched.servers]
    return [sched.segments.table]


def _run(h, sched, reqs) -> None:
    """Apply ``reqs``, hashing each request's ledger events as it commits."""
    for kind, name, size in reqs:
        if kind == "insert":
            sched.insert(name, size)
        else:
            sched.delete(name)
        for ev in sched.ledger.reports[-1].events:
            line = f"{ev.kind.value} {ev.name} {ev.size}"
            if ev.kind is not ReallocKind.REMOVE and ev.name in sched:
                pj = sched.placement(ev.name)
                line += f" {pj.server} {pj.start}"
            h.update(line.encode() + b"\n")


def _finish(h, sched) -> None:
    """Hash the run's end state: placements, ledger and slot counters."""
    led = sched.ledger
    final = sorted((pj.server, pj.start, str(pj.name), pj.size) for pj in sched.jobs())
    h.update(repr(final).encode())
    h.update(repr(sorted(led.summary().items())).encode())
    for hist in (led.alloc_hist, led.realloc_hist, led.migrate_hist):
        h.update(repr(sorted(hist.items())).encode())
    for table in _tables(sched):
        c = table.counter
        h.update(repr((
            c.ops, c.inserts, c.deletes, c.slots_moved, c.slots_scanned,
            c.rebuilds, sorted(c.rebuilds_by_level.items()),
            c.gaps_consumed, c.gaps_created,
        )).encode())


def kernel_digest() -> str:
    h = hashlib.sha256()
    for seed in SEEDS:
        for p in (1, 4):
            for dynamic in (False, True):
                for delta in (0.25, 0.5):
                    rng = random.Random(f"kernel:{seed}:{p}:{dynamic}:{delta}")
                    # A dynamic scheduler starts with two classes and grows
                    # its table on demand to MAX_SIZE.
                    start = 2 if dynamic else MAX_SIZE
                    if p == 1:
                        sched = SingleServerScheduler(start, delta=delta, dynamic=dynamic)
                    else:
                        sched = ParallelScheduler(p, start, delta=delta, dynamic=dynamic)
                    _run(h, sched, _stream(rng, OPS, MAX_SIZE, 0.55, []))
                    sched.check_schedule()
                    _finish(h, sched)

    pma = PMABackedScheduler(256, delta=0.5)
    _run(h, pma, _stream(random.Random("kernel:pma"), OPS, 256, 0.55, []))
    _finish(h, pma)
    c = pma.substrate_counter
    h.update(repr((c.ops, c.inserts, c.deletes, c.slots_moved, c.rebalances,
                   c.resizes)).encode())

    for label, max_size, delta, prefill, ops in OUTSIDE_STREAMS:
        sched = SingleServerScheduler(max_size, delta=delta)
        rng = random.Random(label)
        _run(h, sched, _stream(rng, prefill + ops, max_size, 0.5, [], prefill=prefill))
        _finish(h, sched)

    rng = random.Random("kernel:planner")
    planner = SingleServerScheduler(65536, delta=0.5)
    live: list = []
    _run(h, planner, _stream(rng, 4096, 65536, 1.0, live, "p"))
    _run(h, planner, _stream(rng, 2000, 65536, 0.5, live, "r"))
    planner.check_schedule()
    _finish(h, planner)
    return h.hexdigest()


def test_kernel_decisions_match_the_golden_digest():
    assert kernel_digest() == GOLDEN
