"""Load generator: percentiles, option validation, a small closed loop."""

import asyncio

import pytest

from repro.obs.metrics import percentile
from repro.service.loadgen import LoadgenOptions, run_loadgen
from repro.service.server import ServiceServer
from repro.service.sessions import SessionManager


def test_percentile_nearest_rank():
    vals = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
    assert percentile(vals, 0.50) == 5.0
    assert percentile(vals, 0.90) == 9.0
    assert percentile(vals, 0.99) == 10.0
    assert percentile([7.0], 0.50) == 7.0
    assert percentile([], 0.99) == 0.0
    # quantiles clamp to the data range
    assert percentile(vals, 0.0) == 1.0
    assert percentile(vals, 1.0) == 10.0


def test_option_validation(tmp_path):
    async def main():
        with pytest.raises(ValueError, match="exactly one"):
            await run_loadgen(LoadgenOptions(), port=1)
        with pytest.raises(ValueError, match="exactly one"):
            await run_loadgen(LoadgenOptions(ops=5, duration=1.0), port=1)
        with pytest.raises(ValueError, match="sessions"):
            await run_loadgen(LoadgenOptions(sessions=0, ops=5), port=1)

    asyncio.run(main())


def test_ops_bounded_run(tmp_path):
    async def main():
        manager = SessionManager(str(tmp_path / "data"), fsync="never")
        srv = ServiceServer(manager, port=0)
        await srv.start()
        opts = LoadgenOptions(
            sessions=3, ops=25, max_size=16, seed=42, snapshot_every=10
        )
        doc = await run_loadgen(opts, port=srv.tcp_port)
        await srv.stop()
        return doc

    doc = asyncio.run(main())
    assert doc["bench"] == "service_loadgen"
    assert doc["options"]["sessions"] == 3
    assert doc["totals"]["ops"] == 75  # closed loop: exact per-session budget
    assert doc["totals"]["throughput_ops_per_s"] > 0
    assert set(doc["totals"]["latency_ms"]) == {"mean", "p50", "p90", "p99", "max"}
    assert doc["totals"]["latency_ms"]["p99"] >= doc["totals"]["latency_ms"]["p50"]
    assert len(doc["per_session"]) == 3
    for res in doc["per_session"]:
        assert res["ops"] == 25
        assert res["inserts"] + res["deletes"] == 25
        assert res["inserts"] >= res["deletes"]  # p_insert-biased mix
        assert "_raw_latencies" not in res  # folded into the totals
    assert doc["metrics"]["counters"]["service.client.ops"] == 75
    # every session's histogram fed the shared registry
    assert "service.client.latency_seconds" in doc["metrics"]["histograms"]


def test_seed_determinism_of_op_mix(tmp_path):
    def once(sub):
        async def main():
            manager = SessionManager(str(tmp_path / sub), fsync="never")
            srv = ServiceServer(manager, port=0)
            await srv.start()
            doc = await run_loadgen(
                LoadgenOptions(sessions=2, ops=40, seed=7), port=srv.tcp_port
            )
            await srv.stop()
            return [
                (r["session"], r["inserts"], r["deletes"])
                for r in doc["per_session"]
            ]

        return asyncio.run(main())

    assert once("a") == once("b")
