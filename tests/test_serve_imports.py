"""``repro serve`` imports only what it runs.

numpy (the packed-memory-array baselines and the analysis layer) and
``repro.lint`` (the ``lint`` command) cost start-up time and resident
memory in every server process, and the service needs neither.  The
test starts a real server under ``python -X importtime``, which writes
one stderr line per module as it is first imported, drives one session
through it, shuts it down and reads the whole import log.
"""

import json
import os
import subprocess
import sys
import time

from repro.service.client import ServiceClient

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
SRC = os.path.join(REPO, "src")


def _imported(log: str) -> set:
    """Module names from ``-X importtime`` lines (``import time: self |
    cumulative | <indent>name``)."""
    names = set()
    for line in log.splitlines():
        if line.startswith("import time:") and "|" in line:
            names.add(line.rsplit("|", 1)[1].strip())
    return names


def test_serve_imports_neither_numpy_nor_lint(tmp_path):
    ready = tmp_path / "ready.json"
    log_path = tmp_path / "importtime.log"
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    with open(log_path, "w", encoding="utf-8") as log:
        proc = subprocess.Popen(
            [
                sys.executable, "-X", "importtime", "-m", "repro", "serve",
                str(tmp_path / "data"), "--port", "0", "--fsync", "never",
                "--ready-file", str(ready),
            ],
            env=env,
            cwd=REPO,
            stdout=subprocess.DEVNULL,
            stderr=log,
        )
        try:
            deadline = time.monotonic() + 30
            while not ready.exists():
                assert proc.poll() is None, f"server died on startup (rc={proc.returncode})"
                assert time.monotonic() < deadline, "server did not become ready"
                time.sleep(0.02)
            port = json.loads(ready.read_text(encoding="utf-8"))["port"]
            with ServiceClient(port=port) as client:
                client.open("s1", {"max_size": 64, "p": 2})
                client.insert("s1", "a", 5)
                client.insert("s1", "b", 40)
                client.delete("s1", "a")
                client.snapshot("s1")
                client.shutdown()
            assert proc.wait(timeout=30) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    names = _imported(log_path.read_text(encoding="utf-8"))
    assert "repro.service.server" in names  # the log is read right
    bad = sorted(n for n in names if n.split(".")[0] == "numpy"
                 or n == "repro.lint" or n.startswith("repro.lint."))
    assert bad == [], f"repro serve imported {bad}"


def test_lazy_top_level_names_still_resolve():
    import repro

    assert repro.PackedMemoryArray.__name__ == "PackedMemoryArray"
    assert repro.AdaptivePackedMemoryArray.__name__ == "AdaptivePackedMemoryArray"
    assert {"PackedMemoryArray", "AdaptivePackedMemoryArray"} <= set(dir(repro))
    ns: dict = {}
    exec("from repro import *", ns)
    assert set(repro.__all__) <= set(ns)
