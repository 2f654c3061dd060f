"""The ``python -m repro.serve`` daemon as a real process."""

import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import repro
from repro.serve.client import SyncServeClient


def test_in_process_daemon_keeps_its_graphs_out_of_shared_memory():
    # jobs=0 (the default) runs every query on in-daemon threads, so the
    # corpus has no workers to share with and stays unexported.
    sock = os.path.join(tempfile.mkdtemp(prefix="repro-serve-cli-"),
                        "d.sock")
    env = dict(os.environ)
    src = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.serve", "start", "--corpus", "demo",
         "--socket", sock, "--cache-dir", "off"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
    try:
        # The socket appears once the corpus is loaded and the server
        # listens.
        deadline = time.monotonic() + 60.0
        while not os.path.exists(sock):
            assert proc.poll() is None, proc.stdout.read().decode()
            assert time.monotonic() < deadline, "daemon never listened"
            time.sleep(0.02)
        with SyncServeClient(sock, timeout=30.0) as client:
            graphs = client.graphs()
            client.shutdown()
        assert proc.wait(timeout=30) == 0
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    assert len(graphs) == 4
    assert [g["shm"] for g in graphs] == [False] * 4
