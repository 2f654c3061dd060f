"""The ``python -m repro.serve`` daemon as a real process."""

import os
import shutil
import socket
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest

import repro
from repro.errors import ServeError
from repro.serve.client import SyncServeClient


def test_in_process_daemon_keeps_its_graphs_out_of_shared_memory():
    # jobs=0 (the default) runs every query on in-daemon threads, so the
    # corpus has no workers to share with and stays unexported.
    sock_dir = tempfile.mkdtemp(prefix="repro-serve-cli-")
    sock = os.path.join(sock_dir, "d.sock")
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
        shutil.rmtree(sock_dir, ignore_errors=True)
    assert len(graphs) == 4
    assert [g["shm"] for g in graphs] == [False] * 4


def test_a_failed_connect_closes_its_socket(monkeypatch, tmp_path):
    # Readiness polls retry the connect until the daemon listens; each
    # failed attempt must release its socket, not leave it to the
    # collector.
    made = []
    real = socket.socket

    def recording(*args, **kwargs):
        made.append(real(*args, **kwargs))
        return made[-1]

    monkeypatch.setattr(socket, "socket", recording)
    with pytest.raises(ServeError, match="cannot connect"):
        SyncServeClient(str(tmp_path / "missing.sock"), timeout=1.0)
    assert len(made) == 1 and made[0].fileno() == -1


def test_micro_corpus_loads_without_the_benchmark_harness():
    # The daemon's micro corpus reads its recipes from
    # repro.graphs.collections, so start-up imports no benchmark module.
    env = dict(os.environ)
    src = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    code = ("import sys, repro.serve.cli\n"
            "from repro.serve.corpus import load_corpus\n"
            "assert len(load_corpus('micro', share=False)) == 8\n"
            "print(sorted(m for m in sys.modules\n"
            "             if m.startswith(('repro.bench', 'repro.baselines'))))")
    out = subprocess.run([sys.executable, "-c", code], env=env, timeout=120,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
