"""Shared test helpers: torture drivers, tiny-parameter fixtures and a
slow stub replica."""

from __future__ import annotations

import asyncio
import json
import random

import pytest

from repro.kcursor import KCursorSparseTable, Params, check_invariants


def drive_table(
    table: KCursorSparseTable,
    ops: int,
    *,
    seed: int = 0,
    p_insert: float = 0.55,
    district_bias=None,
    check_every: int = 0,
) -> None:
    """Random insert/delete stream against a k-cursor table."""
    rng = random.Random(seed)
    k = table.k
    for step in range(ops):
        j = district_bias(rng, step) if district_bias else rng.randrange(k)
        if rng.random() < p_insert or table.district_len(j) == 0:
            table.insert(j, value=step)
        else:
            table.delete(j)
        if check_every and step % check_every == 0:
            check_invariants(table)


def drive_scheduler(scheduler, ops: int, max_size: int, *, seed: int = 0, p_insert: float = 0.6):
    """Random job stream against any scheduler; returns active names."""
    rng = random.Random(seed)
    active: list[str] = []
    for step in range(ops):
        if rng.random() < p_insert or not active:
            name = f"j{step}"
            scheduler.insert(name, rng.randint(1, max_size))
            active.append(name)
        else:
            i = rng.randrange(len(active))
            active[i], active[-1] = active[-1], active[i]
            scheduler.delete(active.pop())
    return active


@pytest.fixture
def small_params():
    """Aggressive (small 1/tau) parameters: BUFFERED/gap regimes at tiny n."""
    return Params.explicit(8, 2)


@pytest.fixture
def rng():
    return random.Random(1234)


async def start_slow_replica(
    delay: float, frames: list | None = None
) -> tuple[asyncio.AbstractServer, int]:
    """A stub replica that acks every request ``delay`` seconds after it
    arrives, each on its own timer: ``repl_apply`` answers durable up to
    its last shipped LSN, anything else answers ok.  Each request it
    receives is appended to ``frames``, when given.  Returns the server
    and its port."""

    async def handle(reader, writer):
        async def answer(doc):
            if frames is not None:
                frames.append(doc)
            await asyncio.sleep(delay)
            result = {}
            if doc.get("op") == "repl_apply":
                lsn = json.loads(doc["records"][-1])["lsn"]
                result = {"applied": len(doc["records"]), "lsn": lsn}
            writer.write(
                (json.dumps({"ok": True, "id": doc.get("id"), "result": result})
                 + "\n").encode()
            )

        tasks = set()
        while line := await reader.readline():
            task = asyncio.ensure_future(answer(json.loads(line)))
            tasks.add(task)
            task.add_done_callback(tasks.discard)
        writer.close()

    server = await asyncio.start_server(handle, "127.0.0.1", 0)
    return server, server.sockets[0].getsockname()[1]
