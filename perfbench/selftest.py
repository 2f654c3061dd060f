"""Benchmark self-test: ``python3 perfbench/run.py --self-test``.

1. Runs every workload for a couple of seconds, untraced and traced, and
   checks that each run is correct and emits exactly the metrics
   ``BENCHMARK.json`` names, each with its unit.
2. Corrupts one served payload and checks that verification rejects it
   (and accepts the uncorrupted line).
3. Corrupts the sweep digest and checks that every sample is rejected.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import loadgen
import workloads as W
from daemon import Daemon
from run import ROOT, STATE, WORKLOADS, run_workload

SECONDS = 2.0


def _check_names(kind: str, workload: str, metrics: dict,
                 spec: list) -> list:
    want = {m["name"]: m["unit"] for m in spec}
    got = {name: unit for name, (_, unit) in metrics.items()}
    errors = []
    if set(got) != set(want):
        errors.append(f"{workload} {kind}: missing "
                      f"{sorted(set(want) - set(got))}, extra "
                      f"{sorted(set(got) - set(want))}")
    errors += [f"{workload} {kind}: {n} has unit {got[n]!r}, "
               f"want {want[n]!r}" for n in set(got) & set(want)
               if got[n] != want[n]]
    return errors


def _corrupted_payload_caught(corpus: W.Corpus, corpus_cache: Path,
                              run_dir: Path) -> list:
    graph, root, kind = "road1000", 17, "config"
    d = Daemon(run_dir, corpus_cache, tag="selftest")
    try:
        with loadgen.LoadGen(d.socket, 1) as gen:
            gen.keep = {1}
            gen.send(0, W.encode(1, graph, root,
                                 corpus.overrides(graph, kind)))
            gen.drain(loadgen.clock() + 60)
            line = gen.kept[1]
    finally:
        d.shutdown()
    plan = {1: (graph, root, kind)}
    errors = []
    if W.verify(corpus, {1: line}, plan, 64):
        errors.append("an untouched served payload failed verification")
    resp = json.loads(line)
    resp["result"]["parent"][root] += 1
    bad = json.dumps(resp, separators=(",", ":")).encode()
    if not W.verify(corpus, {1: bad}, plan, 64):
        errors.append("a corrupted served payload passed verification")
    return errors


def _corrupted_digest_caught(corpus_cache: Path, run_dir: Path) -> list:
    digest = json.loads((Path(W.HERE) / "sweep_digest.json").read_text())
    for value in digest["samples"].values():
        value[0] += 1
    path = run_dir / "corrupt_digest.json"
    path.write_text(json.dumps(digest))
    out = W.run_sweep(1, 0.1, False, run_dir, corpus_cache, digest=path)
    if not out.attempted or out.failed != out.attempted:
        return [f"corrupted digest: {out.failed} of {out.attempted} "
                f"samples rejected, want all"]
    return []


def main(corpus_cache: Path) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    corpus = W.Corpus()
    errors = []
    for workload in WORKLOADS:
        for trace, kind in ((False, "end_to_end"), (True, "per_layer")):
            metrics, _, attempted, failed, failures = run_workload(
                workload, 1, SECONDS, trace, corpus_cache, corpus)
            errors += [f"{workload} trace={int(trace)}: {f}"
                       for f in failures]
            if not attempted:
                errors.append(f"{workload}: nothing attempted")
            errors += _check_names(kind, workload, metrics, spec[kind])
            print(f"self-test: {workload} trace={int(trace)} ran "
                  f"{attempted} ops", flush=True)
    run_dir = STATE / "runs" / "selftest"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        errors += _corrupted_payload_caught(corpus, corpus_cache, run_dir)
        errors += _corrupted_digest_caught(corpus_cache, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    for e in errors:
        print(f"SELF-TEST FAIL: {e}", file=sys.stderr)
    print("self-test: " + ("FAILED" if errors else "ok"))
    return 1 if errors else 0
