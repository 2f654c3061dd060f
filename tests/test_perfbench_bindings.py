"""The names ``perfbench/`` binds into ``repro`` must keep resolving,
and its serve wrappers must keep working once a query runs.

``perfbench/tracing.py`` wraps daemon, harness, dispatch and engine
functions by name from outside ``src/``.  Only the slow
``perfbench/run.py --self-test`` would otherwise notice one that a
refactor deleted or renamed, so this installs both tracing layers in a
fresh interpreter.  Some wrappers also read arguments and attributes
when they run (``ServeServer._settle``'s parameters,
``GraphResultCache._path``/``_dirty``), which installing never
exercises; so between the two installs a traced ``jobs=0`` daemon
answers one miss and one hit and spills its cache at stop.  The test
reads ``perfbench/`` and never writes to it (``-B``: no bytecode
cache).
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
tracing.install_serve()

from repro.core.config import ServeConfig
from repro.graphs.generators import path_graph
from repro.serve.client import AsyncServeClient
from repro.serve.corpus import ResidentCorpus
from repro.serve.server import ServeServer


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
print(json.dumps({
    "responses": [[r.ok, r.cached] for r in responses],
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
