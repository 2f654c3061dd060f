"""The repository benchmark: one command, four workloads.

    python3 perfbench/run.py --workload serve-hot --seed 1 --seconds 20 \\
        --trace 0

Workloads (see ``BENCHMARK.json`` and ``perfbench/README.md``):

* ``serve-hot``         open-loop rate ladder over a prewarmed query pool
* ``serve-interactive`` closed loop, 2 connections, fresh queries
* ``serve-burst``       closed loop of 64-query bursts, fresh queries
* ``sweep``             Figure-6 sweep through ``repro.bench.harness``
* ``all``               the four in sequence

The serve workloads spawn ``python -m repro.serve start --corpus micro
--backend auto`` as its own process and drive it from this process over
two connections.  With ``--trace 0`` the last line of standard output is
a JSON object whose ``metrics`` are the end-to-end metrics, times scaled
to a reference host speed (``layers.at_reference_speed``); with
``--trace 1`` the workload runs once untraced and once with timing
wrappers installed from ``perfbench/tracing.py``, and ``metrics`` are
the per-layer metrics plus the traced-minus-untraced overhead of every
end-to-end metric.  Any wrong answer, shm segment leak or void open-loop
run makes ``correct`` false and the exit code 1.

``--self-test`` runs every workload briefly in both modes, checks that
every metric named in ``BENCHMARK.json`` is emitted with its unit, and
checks that a corrupted served payload and a corrupted sweep digest are
both caught.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STATE = ROOT / ".perfbench"
WORKLOADS = ("serve-hot", "serve-interactive", "serve-burst", "sweep")

UNITS = {"setup_s": "s", "p50_ms": "ms", "p99_ms": "ms",
         "throughput_qps": "1/s", "cpu_ms_per_op": "ms",
         "peak_rss_mb": "MB"}


def _prepare() -> Path:
    """Import paths, compiled sources and the benchmark-owned corpus disk
    cache."""
    if not (ROOT / "src" / "repro" / "serve").is_dir():
        raise SystemExit(f"error: no repro sources under {ROOT / 'src'}; "
                         f"run from a full checkout")
    # On a checkout's first run, compile here rather than inside a daemon
    # or sweep process, whose set-up time and peak memory are measured.
    for d in (ROOT / "src", HERE):
        compileall.compile_dir(d, quiet=1)
    sys.path.insert(0, str(HERE))
    sys.path.insert(0, str(ROOT / "src"))
    corpus_cache = STATE / "corpus-cache"
    corpus_cache.mkdir(parents=True, exist_ok=True)
    os.environ["REPRO_CORPUS_CACHE"] = str(corpus_cache)
    return corpus_cache


def _run_dir(workload: str, seed: int, traced: bool) -> Path:
    d = STATE / "runs" / f"{workload}-s{seed}-t{int(traced)}-{os.getpid()}"
    shutil.rmtree(d, ignore_errors=True)
    d.mkdir(parents=True)
    return d


def run_once(workload: str, seed: int, seconds: float, traced: bool,
             corpus_cache: Path, corpus):
    import layers as L
    import workloads as W

    run_dir = _run_dir(workload, seed, traced)
    try:
        if workload == "sweep":
            out = W.run_sweep(seed, seconds, traced, run_dir, corpus_cache)
        else:
            out = W.run_serve(workload, seed, seconds, traced, run_dir,
                              corpus_cache, corpus)
        if traced:
            out.trace = json.loads(out.spans_path.read_text())
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    ref = L.median(out.host_ref)
    out.extras["host.ref_ms"] = (ref, "ms")
    out.extras.update({f"raw.{k}": (v, UNITS[k])
                       for k, v in out.metrics.items()})
    out.metrics = L.at_reference_speed(out.metrics, ref)
    return out


def layer_metrics(workload: str, traced, untraced) -> dict:
    import layers as L

    m = L.zero_metrics()
    sp = L.Spans(traced.trace["spans"], traced.window)
    m.update(L.common_metrics(sp))
    if workload == "sweep":
        m.update(L.harness_metrics(sp, traced.owner_pid))
    else:
        m.update(L.daemon_metrics(sp, traced.trace["samples"]))
        for name in ("server.outside_ms.p50", "server.outside_ms.p99",
                     "loadgen.late_p99_ms"):
            if name in traced.extras:
                m[name] = traced.extras[name][0]
        frac, within = L.accounting(sp, traced.elapsed_ms,
                                    list(traced.elapsed_ms))
        m["trace.accounted_frac"] = frac
        m["trace.within_tol_frac"] = within
    for name in L.END_TO_END:
        m[f"overhead.{name}"] = (traced.metrics[name]
                                 - untraced.metrics[name])
    return m


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 corpus_cache: Path, corpus):
    """Returns ``(metrics, extras, attempted, failed, failures)``; metrics
    and extras map a name to ``(value, unit)``."""
    import layers as L

    out = run_once(workload, seed, seconds, False, corpus_cache, corpus)
    failures = list(out.failures)
    attempted, failed = out.attempted, out.failed
    extras = dict(out.extras)
    if not trace:
        metrics = {k: (out.metrics[k], UNITS[k]) for k in L.END_TO_END}
    else:
        traced = run_once(workload, seed, seconds, True, corpus_cache,
                          corpus)
        failures += [f"traced: {f}" for f in traced.failures]
        attempted += traced.attempted
        failed += traced.failed
        values = layer_metrics(workload, traced, out)
        metrics = {k: (values[k], L.PER_LAYER[k]) for k in L.PER_LAYER}
        if (workload in ("serve-interactive", "serve-burst")
                and values["trace.within_tol_frac"] < L.ACCOUNT_MIN_SHARE):
            failures.append(
                f"traced spans account for only "
                f"{values['trace.within_tol_frac']:.1%} of queries' "
                f"elapsed_ms (want {L.ACCOUNT_MIN_SHARE:.0%})")
    extras["failed_frac"] = (failed / max(1, attempted), "ratio")
    return metrics, extras, attempted, failed, failures


def report(workload: str, metrics: dict, extras: dict) -> None:
    print(f"== {workload}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<34} {value:>14.6g} {unit}")
    for name, (value, unit) in sorted(extras.items()):
        print(f"  ({name:<32} {value:>14.6g} {unit})")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(
        description="Benchmark of the repro serve daemon and sweep")
    p.add_argument("--workload", choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-test", action="store_true")
    args = p.parse_args(argv)
    corpus_cache = _prepare()
    if args.self_test:
        import selftest

        return selftest.main(corpus_cache)
    if args.workload is None:
        p.error("--workload is required")
    import workloads as W

    corpus = W.Corpus()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        t0 = time.perf_counter()
        metrics, extras, attempted, failed, failures = run_workload(
            name, args.seed, args.seconds, bool(args.trace), corpus_cache,
            corpus)
        report(name, metrics, extras)
        print(f"  [{name}: {time.perf_counter() - t0:.1f} s]")
        for f in failures:
            print(f"FAIL {name}: {f}", file=sys.stderr)
        result["correct"] = result["correct"] and not failures
        result["attempted"] += attempted
        result["failed"] += failed
        prefix = f"{name}." if len(names) > 1 else ""
        result["metrics"].update({
            prefix + k: {"value": v, "unit": u}
            for k, (v, u) in metrics.items()})
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
