"""The ``sweep`` workload's own process: corpus set-up, timed passes, check.

Usage::

    python perfbench/sweep_run.py --seed N --seconds S --out result.json \\
        [--spans spans.json]
    python perfbench/sweep_run.py --record-digest   # rewrite the digest

One pass is ``repro.bench.harness.run_sweep`` over the Figure-6 method
set and the 12 representative graphs with ``jobs=2`` and ``batch=1``
(how ``python -m repro.bench`` runs it) and ``n_roots=2``.  The pass's
``BenchConfig.seed`` comes from a fixed pool, in an order drawn from
``--seed``; it picks the roots of every graph.  One untimed pass starts
the harness pool; then a run makes a fixed number of timed passes,
sized from ``--seconds``.  The corpus set-up is timed before the first
pass and after every timed pass, so its samples span the run.  Every
sample's simulated cycles and edges are compared against
``sweep_digest.json``, recorded over the whole pool.  The process and
its pool workers are measured for CPU time and peak memory; the pool is
shut down and joined before exit.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import random
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from daemon import host_ref_ms, proc_cpu_s, proc_peak_rss_mb  # noqa: E402

METHODS = ("CKL-PDFS", "ACR-PDFS", "NVG-DFS", "DiggerBees", "Gunrock",
           "BerryBees")
SEED_POOL = tuple(range(1, 17))
N_ROOTS = 2
JOBS = 2
#: Corpus set-ups timed before the first pass, and after each timed pass.
SETUP_REPS_FIRST = 5
SETUP_REPS_PER_PASS = 2
#: A run makes round(seconds / PASS_S) timed passes: the same work every
#: run, sized so it measures about ``--seconds`` on a 2-core host.
PASS_S = 3.5
DIGEST_PATH = HERE / "sweep_digest.json"


def sample_key(cfg_seed: int, s) -> str:
    return f"{cfg_seed}|{s.method}|{s.graph}|{s.root}"


def sample_value(s) -> list:
    return [int(s.cycles), int(s.edges_traversed), bool(s.failed)]


def run_pass(graphs, cfg_seed: int):
    from repro.bench.harness import BenchConfig, run_sweep

    cfg = BenchConfig(n_roots=N_ROOTS, seed=cfg_seed, jobs=JOBS, batch=1)
    out = run_sweep(METHODS, graphs, cfg)
    return [s for per_method in out.values()
            for samples in per_method.values() for s in samples]


def check(samples_by_seed, digest) -> list:
    """Keys whose (cycles, edges, failed) differ from the digest."""
    bad = []
    for cfg_seed, samples in samples_by_seed:
        for s in samples:
            key = sample_key(cfg_seed, s)
            if digest.get(key) != sample_value(s):
                bad.append(key)
    return bad


def time_setup(reps: int) -> list:
    """Seconds of ``reps`` corpus builds through the warm disk cache."""
    from repro.graphs import collections as col

    times = []
    for _ in range(reps):
        col.clear_cache()
        t0 = time.perf_counter()
        col.representative_graphs()
        times.append(time.perf_counter() - t0)
    col.clear_cache()                    # the passes hold their own copy
    return times


def stop_pool() -> None:
    """Shut the harness pool down and wait for its workers to exit."""
    from repro.bench import harness

    harness._shutdown_pool()
    for proc in multiprocessing.active_children():
        proc.join(timeout=30)
        if proc.is_alive():
            proc.kill()
            proc.join()


def measure(seed: int, seconds: float, spans: str, digest_path: Path,
            ) -> dict:
    if spans:
        import tracing

        tracing.install_sweep()
    from repro.graphs import collections as col

    graphs = col.representative_graphs()   # warms the disk cache, untimed
    setup_times = time_setup(SETUP_REPS_FIRST)
    order = list(SEED_POOL)
    random.Random(seed).shuffle(order)
    n_timed = min(len(order) - 1, max(1, round(seconds / PASS_S)))
    passes = [(order[-1], run_pass(graphs, order[-1]))]   # starts the pool
    workers0 = {p.pid: proc_cpu_s(p.pid)
                for p in multiprocessing.active_children()}
    self_cpu, walls, host_ref = 0.0, [], []
    t_start = time.perf_counter()
    for cfg_seed in order[:n_timed]:
        ru0 = resource.getrusage(resource.RUSAGE_SELF)
        t0 = time.perf_counter()
        samples = run_pass(graphs, cfg_seed)
        walls.append(time.perf_counter() - t0)
        ru1 = resource.getrusage(resource.RUSAGE_SELF)
        self_cpu += (ru1.ru_utime - ru0.ru_utime
                     + ru1.ru_stime - ru0.ru_stime)
        passes.append((cfg_seed, samples))
        setup_times += time_setup(SETUP_REPS_PER_PASS)
        host_ref += host_ref_ms()
    t_end = time.perf_counter()
    workers = multiprocessing.active_children()
    cpu = self_cpu + sum(proc_cpu_s(p.pid) - workers0.get(p.pid, 0.0)
                         for p in workers)
    # VmHWM, not ru_maxrss: Linux carries the spawning process's peak
    # into ru_maxrss across exec.
    rss = (proc_peak_rss_mb(os.getpid())
           + sum(proc_peak_rss_mb(p.pid) for p in workers))
    stop_pool()
    digest = json.loads(digest_path.read_text())["samples"]
    result = {
        "setup_s": setup_times, "pass_s": walls, "wall_s": sum(walls),
        "samples": sum(len(s) for _, s in passes[1:]),
        "checked": sum(len(s) for _, s in passes),
        "cpu_s": cpu, "peak_rss_mb": rss, "workers": len(workers),
        "host_ref_ms": host_ref, "mismatches": check(passes, digest),
        "window": [t_start, t_end], "pid": os.getpid(),
    }
    if spans:
        import tracing

        tracing.TRACER.dump(Path(spans))
    return result


def record_digest() -> None:
    from repro.graphs import collections as col

    graphs = col.representative_graphs()
    samples = {}
    for cfg_seed in SEED_POOL:
        t0 = time.perf_counter()
        for s in run_pass(graphs, cfg_seed):
            samples[sample_key(cfg_seed, s)] = sample_value(s)
        print(f"cfg seed {cfg_seed}: {time.perf_counter() - t0:.2f} s",
              flush=True)
    stop_pool()
    DIGEST_PATH.write_text(json.dumps(
        {"methods": METHODS, "n_roots": N_ROOTS, "seed_pool": SEED_POOL,
         "samples": samples}, sort_keys=True, indent=0) + "\n")
    print(f"{len(samples)} samples -> {DIGEST_PATH}")


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--out", default=None)
    p.add_argument("--spans", default="")
    p.add_argument("--digest", default=str(DIGEST_PATH),
                   help="digest to check the samples against")
    p.add_argument("--record-digest", action="store_true")
    args = p.parse_args()
    if args.record_digest:
        record_digest()
        return 0
    result = measure(args.seed, args.seconds, args.spans, Path(args.digest))
    text = json.dumps(result)
    if args.out:
        Path(args.out).write_text(text)
    else:
        print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
