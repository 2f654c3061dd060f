"""Open-loop load test for the traversal service (``repro.serve``).

Drives a daemon at a configured arrival rate and reports what the
service actually sustained::

    # self-contained: spawns an in-process daemon over the micro corpus
    python benchmarks/bench_serve.py --self --qps 1200 --seconds 10

    # against an already-running daemon
    python benchmarks/bench_serve.py --socket /tmp/repro-serve.sock \\
        --qps 300 --seconds 30 --verify --gate --record

The driver is **open-loop**: request *i* is launched at its intended
time ``t0 + i/qps`` regardless of how many responses are outstanding,
and every latency is measured from the *intended* start — so a daemon
that stalls accumulates the backlog in its latency tail instead of
silently slowing the arrival rate (no coordinated omission).

The query mix is a seeded random walk over (graph, root) pairs from the
corpus — ``--roots-per-graph`` distinct roots per graph, each run with
that graph's micro-sweep engine config — so the steady state exercises
the result-cache hit path while the first touch of every pair pays a
real simulation.  Warmup-window responses are excluded from the stats.

``--verify`` replays every distinct (graph, root) pair twice after the
load phase — once bypassing the cache, once through it — and compares
both served payloads against direct in-process execution; any drift is
a hard failure (the load test must never trade correctness for rate).
Verification is backend-aware: it reads the daemon's ``backend`` knob
from ``status`` and resolves each query through the same
:func:`repro.core.dispatch.choose_backend` policy, so the direct
payload is computed by whichever engine family actually served it.
``--backend {auto,dfs,frontier}`` sets that knob on ``--self`` daemons.
``--record`` appends the run to ``benchmarks/out/trajectory.jsonl``
(kind ``serve``); ``--gate`` compares against
``benchmarks/baseline_serve.json`` and fails on a p99 regression
beyond ``GATE_FACTOR`` or on falling short of the requested rate;
``--record-baseline`` (re)writes that baseline from this run.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import pathlib
import sys
import tempfile
from dataclasses import asdict
from datetime import datetime, timezone
from typing import Dict, List, Optional, Tuple

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))

import numpy as np  # noqa: E402

from repro.errors import ReproError  # noqa: E402

#: p99 regression factor over the recorded baseline at which --gate fails.
GATE_FACTOR = 2.0

#: Fraction of the requested rate the run must sustain under --gate.
MIN_RATE_FRACTION = 0.90

BASELINE_PATH = REPO_ROOT / "benchmarks" / "baseline_serve.json"
TRAJECTORY_PATH = REPO_ROOT / "benchmarks" / "out" / "trajectory.jsonl"


# ---------------------------------------------------------------------------
# Query mix.
# ---------------------------------------------------------------------------

def build_mix(corpus_names: List[str], configs: Dict[str, dict],
              n_queries: int, roots_per_graph: int,
              graph_sizes: Dict[str, int], seed: int,
              ) -> List[Tuple[str, int, dict]]:
    """Seeded open-loop query sequence: ``[(graph, root, config), ...]``."""
    rng = np.random.RandomState(seed)
    pools = {
        name: rng.choice(graph_sizes[name],
                         size=min(roots_per_graph, graph_sizes[name]),
                         replace=False)
        for name in corpus_names
    }
    mix = []
    for _ in range(n_queries):
        name = corpus_names[rng.randint(len(corpus_names))]
        root = int(pools[name][rng.randint(len(pools[name]))])
        mix.append((name, root, configs[name]))
    return mix


def micro_configs() -> Dict[str, dict]:
    """Per-graph engine configs from the micro sweep (canonical dicts)."""
    from repro.bench.micro import MICRO_CASES

    return {name: asdict(cfg) for name, _, cfg in MICRO_CASES}


# ---------------------------------------------------------------------------
# Load phase.
# ---------------------------------------------------------------------------

async def prewarm(client, mix) -> float:
    """Closed-loop pass over every distinct query to fill the cache.

    The mix's distinct (graph, root, config) simulations are GIL-bound
    Python; paying them *inside* an open-loop phase would measure the
    backlog they cause, not the service's steady-state behavior.  The
    prewarm is untimed (its duration is merely reported) so the load
    phase measures the serving path the daemon was built for: mostly
    cache hits, occasional coalesced misses.
    """
    loop = asyncio.get_running_loop()
    distinct = sorted({(name, root, json.dumps(cfg, sort_keys=True))
                       for name, root, cfg in mix})
    t0 = loop.time()
    for chunk_start in range(0, len(distinct), 8):
        chunk = distinct[chunk_start:chunk_start + 8]
        await asyncio.gather(*[
            client.dfs(name, root, config=json.loads(cfg_json))
            for name, root, cfg_json in chunk])
    dt = loop.time() - t0
    print(f"prewarm: {len(distinct)} distinct queries in {dt:.1f}s")
    return dt


async def run_load(clients, mix, qps: float, warmup: float,
                   ) -> Dict[str, object]:
    """Fire the mix open-loop; returns raw per-request samples + stats."""
    loop = asyncio.get_running_loop()
    samples: List[Tuple[float, float, bool, bool]] = []
    # (intended_start, latency_s, cached, ok); latency from intended start.

    async def one(idx: int, intended: float) -> None:
        name, root, config = mix[idx]
        client = clients[idx % len(clients)]
        ok = True
        cached = False
        try:
            resp = await client.dfs(name, root, config=config)
            cached = resp.cached
        except ReproError:
            ok = False
        samples.append((intended, loop.time() - intended, cached, ok))

    t0 = loop.time()
    tasks = []
    for i in range(len(mix)):
        intended = t0 + i / qps
        now = loop.time()
        if intended > now:
            await asyncio.sleep(intended - now)
        tasks.append(asyncio.ensure_future(one(i, intended)))
    await asyncio.gather(*tasks)
    t_end = loop.time()

    cut = t0 + warmup
    measured = [s for s in samples if s[0] >= cut]
    lat_ms = sorted(s[1] * 1000.0 for s in measured)
    n = len(lat_ms)
    span = max(t_end - cut, 1e-9)

    def pct(p: float) -> float:
        if not n:
            return 0.0
        return lat_ms[min(n - 1, int(round(p / 100.0 * (n - 1))))]

    return {
        "requests": len(mix),
        "measured": n,
        "warmup_excluded": len(samples) - n,
        "errors": sum(1 for s in measured if not s[3]),
        "cache_hit_rate": (sum(1 for s in measured if s[2]) / n
                           if n else 0.0),
        "throughput_qps": n / span,
        "p50_ms": pct(50), "p90_ms": pct(90), "p99_ms": pct(99),
        "max_ms": lat_ms[-1] if n else 0.0,
        "histogram_ms": _histogram(lat_ms),
    }


def _histogram(lat_ms: List[float]) -> Dict[str, int]:
    """Latency counts in power-of-two millisecond buckets."""
    edges = [0.25, 0.5, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024]
    buckets = {f"<{e}ms": 0 for e in edges}
    buckets[f">={edges[-1]}ms"] = 0
    for v in lat_ms:
        for e in edges:
            if v < e:
                buckets[f"<{e}ms"] += 1
                break
        else:
            buckets[f">={edges[-1]}ms"] += 1
    return {k: v for k, v in buckets.items() if v}


# ---------------------------------------------------------------------------
# Verification phase.
# ---------------------------------------------------------------------------

async def verify_mix(client, mix, graphs, backend_knob: str = "dfs") -> int:
    """Compare served payloads to direct execution; returns #mismatches.

    Every distinct (graph, root, config) is checked twice: once with
    ``no_cache`` (forcing a fresh daemon-side computation) and once
    through the cache — both must equal the payload computed directly
    in this process.  ``backend_knob`` is the daemon's configured
    backend; the expected payload is resolved through the same routing
    policy, so the check is bit-exact whichever family answered (swarm
    lanes are bit-identical to single-root frontier runs, so a direct
    single-root run reproduces any daemon-side batch width).
    """
    from repro.core.dispatch import choose_backend
    from repro.serve.exec import execute_query

    distinct = sorted({(name, root, json.dumps(cfg, sort_keys=True))
                       for name, root, cfg in mix})
    bad = 0
    for name, root, cfg_json in distinct:
        config = json.loads(cfg_json)
        decision = choose_backend(graphs[name], requested=backend_knob,
                                  overrides=config)
        expected = execute_query(graphs[name], "dfs", root, config,
                                 backend=decision.backend)
        for no_cache in (True, False):
            resp = await client.dfs(name, root, config=config,
                                    no_cache=no_cache)
            if resp.result != expected:
                bad += 1
                path = "no-cache" if no_cache else "cached"
                print(f"VERIFY FAIL {name} root={root} ({path}): "
                      f"served payload != direct execution",
                      file=sys.stderr)
    print(f"verify: {len(distinct)} distinct queries x 2 paths, "
          f"{bad} mismatches")
    return bad


# ---------------------------------------------------------------------------
# Gate / record.
# ---------------------------------------------------------------------------

def apply_gate(result: Dict, qps: float) -> int:
    if not BASELINE_PATH.exists():
        print(f"gate: no baseline at {BASELINE_PATH}; "
              f"run with --record-baseline first", file=sys.stderr)
        return 1
    baseline = json.loads(BASELINE_PATH.read_text())
    base_qps = baseline.get("qps", 0.0)
    if not base_qps or abs(base_qps - qps) / base_qps > 0.10:
        # p99 grows with arrival rate; comparing across rates would
        # gate on the offered load, not on a service regression.
        print(f"gate: baseline was recorded at {base_qps:g} q/s, this "
              f"run offered {qps:g} q/s — rerun at the baseline rate "
              f"(or --record-baseline at this one)", file=sys.stderr)
        return 1
    failures = []
    limit = baseline["p99_ms"] * GATE_FACTOR
    if result["p99_ms"] > limit:
        failures.append(
            f"p99 {result['p99_ms']:.2f}ms exceeds "
            f"{GATE_FACTOR}x baseline ({baseline['p99_ms']:.2f}ms)")
    floor = qps * MIN_RATE_FRACTION
    if result["throughput_qps"] < floor:
        failures.append(
            f"throughput {result['throughput_qps']:.0f} q/s below "
            f"{MIN_RATE_FRACTION:.0%} of requested {qps:.0f} q/s")
    if result["errors"]:
        failures.append(f"{result['errors']} failed responses")
    if failures:
        for f in failures:
            print(f"GATE FAIL: {f}", file=sys.stderr)
        return 1
    print(f"gate: ok (p99 {result['p99_ms']:.2f}ms <= {limit:.2f}ms, "
          f"{result['throughput_qps']:.0f} q/s >= {floor:.0f} q/s)")
    return 0


def record_run(entry: Dict) -> None:
    TRAJECTORY_PATH.parent.mkdir(parents=True, exist_ok=True)
    entry = dict(entry)
    entry["timestamp"] = datetime.now(timezone.utc).isoformat(
        timespec="seconds")
    with TRAJECTORY_PATH.open("a", encoding="utf-8") as f:
        f.write(json.dumps(entry) + "\n")
    print(f"recorded -> {TRAJECTORY_PATH}")


# ---------------------------------------------------------------------------
# Driver.
# ---------------------------------------------------------------------------

async def amain(args) -> int:
    from repro.serve.client import AsyncServeClient

    server = None
    corpus = None
    socket_path = args.socket
    if args.self:
        from repro.core.config import ServeConfig
        from repro.serve.corpus import load_corpus
        from repro.serve.server import ServeServer

        corpus = load_corpus(args.corpus, share=args.jobs > 0)
        server = ServeServer(corpus, ServeConfig(
            max_batch=args.max_batch, jobs=args.jobs, cache_dir="off",
            backend=args.backend))
        socket_path = os.path.join(
            tempfile.mkdtemp(prefix="repro-bench-serve-"), "bench.sock")
        await server.start(socket_path)
    elif not socket_path:
        print("need --self or --socket PATH", file=sys.stderr)
        return 2

    clients = []
    try:
        for _ in range(args.connections):
            clients.append(await AsyncServeClient().connect(socket_path))

        names = await clients[0].graphs()
        graph_names = [g["name"] for g in names]
        sizes = {g["name"]: g["n_vertices"] for g in names}
        configs = micro_configs()
        for name in graph_names:
            configs.setdefault(name, {})

        n_queries = max(1, int(args.qps * args.seconds))
        mix = build_mix(graph_names, configs, n_queries,
                        args.roots_per_graph, sizes, args.seed)

        print(f"load: {n_queries} queries at {args.qps:g} q/s over "
              f"{len(graph_names)} graphs "
              f"({args.connections} connections, "
              f"{args.roots_per_graph} roots/graph, seed {args.seed})")
        prewarm_s = 0.0
        if not args.no_prewarm:
            prewarm_s = await prewarm(clients[0], mix)
        result = await run_load(clients, mix, args.qps, args.warmup)
        result["prewarm_seconds"] = round(prewarm_s, 2)
        result.update({
            "bench": "serve",
            "qps_requested": args.qps,
            "seconds": args.seconds,
            "corpus": args.corpus if args.self else socket_path,
            "connections": args.connections,
            "roots_per_graph": args.roots_per_graph,
            "seed": args.seed,
            "self_hosted": bool(args.self),
            "backend": args.backend,
        })
        print(f"sustained {result['throughput_qps']:.0f} q/s | "
              f"p50 {result['p50_ms']:.2f}ms  p90 {result['p90_ms']:.2f}ms "
              f"p99 {result['p99_ms']:.2f}ms  max {result['max_ms']:.1f}ms "
              f"| cache hit {result['cache_hit_rate']:.1%} | "
              f"errors {result['errors']}")

        rc = 0
        if args.verify:
            if corpus is not None:
                graphs = {n: corpus.get(n).graph for n in graph_names}
            else:
                from repro.serve.corpus import load_corpus

                local = load_corpus(args.corpus, share=False)
                graphs = {n: local.get(n).graph for n in graph_names}
            status = await clients[0].status()
            backend_knob = status.get("config", {}).get("backend", "dfs")
            mismatches = await verify_mix(clients[0], mix, graphs,
                                          backend_knob)
            result["verify_mismatches"] = mismatches
            if mismatches:
                rc = 1

        if args.json:
            pathlib.Path(args.json).write_text(
                json.dumps(result, indent=2, sort_keys=True) + "\n")
        if args.record:
            record_run(result)
        if args.record_baseline:
            BASELINE_PATH.write_text(json.dumps({
                "qps": args.qps,
                "throughput_qps": round(result["throughput_qps"], 1),
                "p50_ms": round(result["p50_ms"], 3),
                "p99_ms": round(result["p99_ms"], 3),
                "recorded": datetime.now(timezone.utc).isoformat(
                    timespec="seconds"),
            }, indent=2) + "\n")
            print(f"baseline -> {BASELINE_PATH}")
        if args.gate:
            rc = max(rc, apply_gate(result, args.qps))
        return rc
    finally:
        for c in clients:
            await c.close()
        if server is not None:
            await server.stop()
        if corpus is not None:
            corpus.close()


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        description="Open-loop load test for the repro.serve daemon")
    p.add_argument("--self", action="store_true",
                   help="spawn an in-process daemon (default corpus: "
                        "micro)")
    p.add_argument("--socket", default=None,
                   help="socket of an externally running daemon")
    p.add_argument("--corpus", default="micro")
    p.add_argument("--qps", type=float, default=500.0,
                   help="open-loop arrival rate (default 500)")
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--warmup", type=float, default=1.0,
                   help="leading seconds excluded from the stats")
    p.add_argument("--no-prewarm", action="store_true",
                   help="skip the closed-loop cache-fill pass (the "
                        "open-loop phase then pays every cold miss)")
    p.add_argument("--connections", type=int, default=4)
    p.add_argument("--roots-per-graph", type=int, default=8)
    p.add_argument("--seed", type=int, default=123)
    p.add_argument("--max-batch", type=int, default=64)
    p.add_argument("--jobs", type=int, default=0,
                   help="daemon worker processes for --self")
    p.add_argument("--backend", default="dfs",
                   choices=("auto", "dfs", "frontier"),
                   help="backend knob for --self daemons (external "
                        "daemons keep their own; --verify always reads "
                        "the effective knob from status)")
    p.add_argument("--verify", action="store_true",
                   help="check every distinct query against direct "
                        "execution after the load phase")
    p.add_argument("--gate", action="store_true",
                   help="fail on p99/throughput regression vs "
                        "benchmarks/baseline_serve.json")
    p.add_argument("--record", action="store_true",
                   help="append this run to benchmarks/out/"
                        "trajectory.jsonl")
    p.add_argument("--record-baseline", action="store_true",
                   help="(re)write benchmarks/baseline_serve.json")
    p.add_argument("--json", default=None,
                   help="write the full result payload to this file")
    return p


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return asyncio.run(amain(args))


if __name__ == "__main__":
    sys.exit(main())
