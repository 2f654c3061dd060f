"""The names ``perfbench/`` binds into ``repro`` must keep resolving,
and its serve and sweep wrappers must keep working once they run.

``perfbench/tracing.py`` wraps daemon, harness, dispatch and engine
functions by name from outside ``src/``.  Only the slow
``perfbench/run.py --self-test`` would otherwise notice one that a
refactor deleted or renamed, so this installs both tracing layers in a
fresh interpreter.  Some wrappers also read arguments and attributes
when they run (``ServeServer._settle``'s parameters,
``GraphResultCache._path``/``_dirty``, ``harness._fan_out``'s
positional ``(tasks, jobs, batch)`` call, ``_execute_task``'s task),
which installing never exercises; so between the two installs a traced
``jobs=0`` daemon answers one miss and one hit and spills its cache at
stop, and after the sweep install a ``jobs=1`` sweep runs the CPU
baselines, DiggerBees and Gunrock on one small path, whose samples must
equal an untraced run's.  The test reads ``perfbench/`` and never writes
to it (``-B``: no bytecode cache).
"""

import json
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]

_TRACED_SESSION = r"""
import asyncio, json, os, shutil, sys, tempfile
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import tracing

from repro.bench.harness import run_sweep
from repro.core.config import ServeConfig
from repro.graphs.generators import path_graph
from repro.serve.client import AsyncServeClient
from repro.serve.corpus import ResidentCorpus
from repro.serve.server import ServeServer


SWEEP_METHODS = ["CKL-PDFS", "ACR-PDFS", "DiggerBees", "Gunrock"]
SWEEP_GRAPHS = [path_graph(32)]
untraced = run_sweep(SWEEP_METHODS, SWEEP_GRAPHS, jobs=1)
tracing.install_serve()


async def session(tmp):
    corpus = ResidentCorpus(share=False)
    corpus.add(path_graph(16), "path")
    server = ServeServer(corpus, ServeConfig(
        jobs=0, cache_dir=os.path.join(tmp, "cache")))
    sock = os.path.join(tmp, "d.sock")
    await server.start(sock)
    client = await AsyncServeClient().connect(sock)
    try:
        return [await client.dfs("path", 0) for _ in range(2)]
    finally:
        await client.close()
        await server.stop()     # flushes the cache: one spill
        corpus.close()

tmp = tempfile.mkdtemp(prefix="perfbench-bindings-")
try:
    responses = asyncio.run(session(tmp))
finally:
    shutil.rmtree(tmp, ignore_errors=True)
tracing.install_sweep()
traced = run_sweep(SWEEP_METHODS, SWEEP_GRAPHS, jobs=1)
print(json.dumps({
    "responses": [[r.ok, r.cached] for r in responses],
    "sweep_samples": sum(len(v) for g in traced.values() for v in g.values()),
    "sweep_equal": traced == untraced,
    "spans": sorted({s.name for s in tracing.TRACER.spans}),
}))
"""


def test_perfbench_tracing_installs_against_src():
    proc = subprocess.run(
        [sys.executable, "-B", "-c", _TRACED_SESSION,
         str(REPO / "perfbench"), str(REPO / "src")],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    assert out["responses"] == [[True, False], [True, True]]
    assert {"cache.get", "cache.put", "cache.spill",
            "server.settle"} <= set(out["spans"]), out["spans"]
    # Two roots per method on the path, as in the untraced sweep.
    assert out["sweep_samples"] == 8 and out["sweep_equal"]
    assert {"harness.fan_out", "harness.task",
            "method.CKL-PDFS", "method.ACR-PDFS", "method.DiggerBees",
            "method.Gunrock", "baselines.run_ckl_pdfs",
            "baselines.run_acr_pdfs"} <= set(out["spans"]), out["spans"]
