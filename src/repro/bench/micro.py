"""Fixed engine micro-sweep with machine-readable output.

``python -m repro.bench micro`` runs eight fixed DiggerBees simulations
(two road networks, a preferential-attachment graph, a Delaunay mesh,
two steal-heavy cases — a deep skewed tree and a hub-rooted power-law
graph on tight stack geometry — and two shallow-wide cases — a hub
mesh and a layered fan-out — the structural regimes that stress
different engine paths) and reports wall-time, simulated cycles,
steps/sec, and steal/refill event counts per case; ``--json PATH``
writes that payload to ``PATH``, and nothing is written without it.
Each run compares against the recorded baseline
(``benchmarks/baseline_micro.json``) and **fails** when

* any case regresses more than ``REGRESSION_FACTOR`` (2x) in wall time
  (the perf-smoke gate), or
* any case's simulated ``cycles``/``steps`` differ from the baseline —
  the determinism contract (same seed => identical schedule) has been
  broken, which is a correctness bug, not a perf regression.

The sweep is intentionally single-process so the numbers measure the
engine fast path, not pool scaling.  Per case the recorded wall time is
the **median** of ``repeats`` runs (median-of-3 by default) — robust to
one-off scheduler hiccups in either direction, unlike a minimum, which
systematically understates the cost the gate will later measure.

The corpus routes through :mod:`repro.graphs.diskcache`, so only a cold
cache pays generation cost; the hit/miss tally is part of the payload.

Every case runs the default DFS driver — the fused loop of
:mod:`repro.core.turbo` — whose cycles/steps the baseline pins: the
sweep is the DFS schedule gate.  Both answer families, and the swarm at
every width, are timed on the same cases by
``benchmarks/bench_crossover.py``.  ``--record`` appends the run to
``benchmarks/out/trajectory.jsonl`` (timestamped), the performance
trajectory that ``--compare`` diffs.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import sys
import time
from datetime import datetime, timezone
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.config import DiggerBeesConfig
from repro.core.diggerbees import run_diggerbees
from repro.errors import BenchmarkError
from repro.graphs import diskcache
from repro.graphs import generators as gen
from repro.utils.profiling import PhaseTimer, profile_to, steps_per_second

__all__ = [
    "MICRO_CASES",
    "REGRESSION_FACTOR",
    "run_micro",
    "check_against_baseline",
    "record_trajectory",
    "compare_trajectory",
    "main",
]

#: Wall-time factor over baseline at which the perf-smoke gate fails.
REGRESSION_FACTOR = 2.0


def _corpus_case(kind: str, name: str, params: Dict, seed: int) -> Callable:
    """Builder routed through the corpus disk cache (hit == rebuild)."""
    def build():
        return diskcache.cached_build(
            kind, name, params, seed,
            lambda: getattr(gen, kind)(**params, seed=seed),
        )
    return build


#: (name, graph builder, engine config) — fixed forever; changing a case
#: invalidates the recorded baseline.
MICRO_CASES: Tuple[Tuple[str, Callable, DiggerBeesConfig], ...] = (
    ("road1000",
     _corpus_case("road_network", "road1000", {"n_vertices": 1000}, 1),
     DiggerBeesConfig(n_blocks=4, warps_per_block=4, seed=1)),
    ("road2500",
     _corpus_case("road_network", "road2500", {"n_vertices": 2500}, 2),
     DiggerBeesConfig(n_blocks=4, warps_per_block=4, seed=2)),
    ("pa2000",
     _corpus_case("preferential_attachment", "pa2000",
                  {"n_vertices": 2000, "m": 6}, 3),
     DiggerBeesConfig(n_blocks=8, warps_per_block=4, seed=3)),
    ("mesh1500",
     _corpus_case("delaunay_mesh", "mesh1500", {"n_vertices": 1500}, 4),
     DiggerBeesConfig(n_blocks=4, warps_per_block=8, seed=4)),
    # Steal-heavy regime: tight stack geometry so bailout events
    # (refills, intra/inter steals, leader work) dominate the schedule
    # instead of the expand fast path.  skew3000 is a deep skewed tree
    # (one warp owns the spine, the rest hammer the steal protocol);
    # hub2500 is a hub-rooted power-law graph (a burst of work at the
    # root that must spread by stealing).
    ("skew3000",
     _corpus_case("skewed_tree", "skew3000", {"n_vertices": 3000}, 5),
     DiggerBeesConfig(n_blocks=4, warps_per_block=4, hot_size=16,
                      hot_cutoff=4, cold_cutoff=8, flush_batch=4,
                      refill_batch=4, cold_reserve=64, seed=5)),
    ("hub2500",
     _corpus_case("preferential_attachment", "hub2500",
                  {"n_vertices": 2500, "m": 4}, 6),
     DiggerBeesConfig(n_blocks=8, warps_per_block=4, hot_size=16,
                      hot_cutoff=4, cold_cutoff=8, flush_batch=4,
                      refill_batch=4, cold_reserve=64, seed=6)),
    # Shallow-wide regime: the frontier engine's winning shape (few BFS
    # levels, huge frontiers).  starmesh2400 is a hub mesh with pendant
    # leaves; layers2000 is a root feeding five 400-wide layers.
    # bench_crossover.py times both families on them.
    ("starmesh2400",
     _corpus_case("star_mesh", "starmesh2400",
                  {"n_hubs": 120, "leaves_per_hub": 19}, 7),
     DiggerBeesConfig(n_blocks=8, warps_per_block=4, seed=7)),
    ("layers2000",
     _corpus_case("wide_layers", "layers2000",
                  {"width": 400, "depth": 5}, 8),
     DiggerBeesConfig(n_blocks=8, warps_per_block=4, seed=8)),
)


def _case_events(counters) -> Dict:
    """Steal/refill protocol event counts for the bench payload."""
    return {
        "refills": counters.refills,
        "refill_entries": counters.refill_entries,
        "intra_steals": counters.intra_steal_successes,
        "intra_steal_attempts": counters.intra_steal_attempts,
        "inter_steals": counters.inter_steal_successes,
        "leader_attempts": counters.inter_steal_attempts,
        "remote_steals": counters.remote_steal_successes,
        "cas_failures": counters.cas_failures,
        "idle_polls": counters.idle_polls,
    }


def run_micro(repeats: int = 3,
              profile_path: Optional[str] = None) -> Dict:
    """Run the fixed micro-sweep; returns the ``--json`` payload.

    Per case: median-of-``repeats`` wall time, plus the (deterministic)
    simulated cycles and step count.  Graph generation is timed as its
    own phase and excluded from per-case wall times; with a warm corpus
    cache it is a fraction of a millisecond per case (see the
    ``graph_cache`` hit/miss tally in the payload).

    The ``phases.simulate`` entry accumulates the per-case *median*
    wall, the same statistic ``wall_seconds`` reports, so it equals
    ``total_wall_seconds`` instead of summing every repeat.
    """
    timer = PhaseTimer()
    cases: List[Dict] = []
    diskcache.reset_stats()
    with profile_to(profile_path):
        for name, build, cfg in MICRO_CASES:
            with timer.phase("generate"):
                graph = build()
            walls: List[float] = []
            for _ in range(max(1, repeats)):
                t0 = time.perf_counter()
                res = run_diggerbees(graph, 0, config=cfg)
                walls.append(time.perf_counter() - t0)
            wall = statistics.median(walls)
            timer.add("simulate", wall)
            cases.append({
                "name": name,
                "wall_seconds": wall,
                "cycles": res.cycles,
                "steps": res.engine.steps,
                "steps_per_second": steps_per_second(res.engine.steps,
                                                     wall),
                "events": _case_events(res.counters),
            })
    payload = {
        "bench": "engine_micro",
        "repeats": repeats,
        "cases": cases,
        "total_wall_seconds": sum(c["wall_seconds"] for c in cases),
        "phases": timer.as_dict(),
        "graph_cache": diskcache.stats(),
    }
    simulate = payload["phases"].get("simulate", 0.0)
    total = payload["total_wall_seconds"]
    assert abs(simulate - total) <= max(1e-6, 0.01 * total), (
        f"phase accounting drift: phases.simulate={simulate!r} vs "
        f"total_wall_seconds={total!r}"
    )
    return payload


def check_against_baseline(result: Dict, baseline: Dict,
                           factor: float = REGRESSION_FACTOR) -> List[str]:
    """Compare a run against the recorded baseline; returns problems.

    An empty list means the gate passes.  Determinism mismatches
    (cycles/steps) and >``factor`` wall-time regressions are reported;
    cases absent from the baseline are ignored (new cases need a baseline
    update first).
    """
    problems: List[str] = []
    base_cases = {c["name"]: c for c in baseline.get("cases", [])}
    for case in result["cases"]:
        base = base_cases.get(case["name"])
        if base is None:
            continue
        if case["cycles"] != base["cycles"] or case["steps"] != base["steps"]:
            problems.append(
                f"{case['name']}: schedule drift — cycles/steps "
                f"{case['cycles']}/{case['steps']} vs baseline "
                f"{base['cycles']}/{base['steps']} (determinism contract "
                f"broken)"
            )
        limit = base["wall_seconds"] * factor
        if case["wall_seconds"] > limit:
            problems.append(
                f"{case['name']}: wall time {case['wall_seconds']:.4f}s "
                f"exceeds {factor:.1f}x baseline "
                f"({base['wall_seconds']:.4f}s)"
            )
    return problems


def repo_root() -> pathlib.Path:
    return pathlib.Path(__file__).resolve().parents[3]


def default_baseline_path() -> pathlib.Path:
    """``benchmarks/baseline_micro.json`` relative to the repo root."""
    return repo_root() / "benchmarks" / "baseline_micro.json"


def record_trajectory(result: Dict) -> pathlib.Path:
    """Append ``result`` (timestamped) to the perf trajectory log;
    returns the trajectory path."""
    out = repo_root() / "benchmarks" / "out" / "trajectory.jsonl"
    out.parent.mkdir(parents=True, exist_ok=True)
    entry = dict(result)
    entry["timestamp"] = datetime.now(timezone.utc).isoformat(
        timespec="seconds")
    with out.open("a", encoding="utf-8") as f:
        f.write(json.dumps(entry) + "\n")
    return out


def compare_trajectory(a_idx: int, b_idx: int,
                       path: Optional[pathlib.Path] = None) -> str:
    """Diff two recorded trajectory entries; returns a per-case table.

    ``a_idx``/``b_idx`` index ``benchmarks/out/trajectory.jsonl`` in
    append order (negative indices count from the latest, so ``-2 -1``
    compares the two most recent recordings).  Per case the table shows
    wall time and steps/s for both entries plus the relative change,
    flagging >5% moves as regression/improvement; schedule drift
    (cycles/steps differing between the entries) is flagged too, since
    that invalidates the perf comparison.  A row without steps/s — the
    frontier and swarm rows of the retired ``--backend``/``--batch``
    modes, or another bench's rows — prints as not comparable.
    """
    path = path or (repo_root() / "benchmarks" / "out" / "trajectory.jsonl")
    if not path.exists():
        raise BenchmarkError(
            f"no trajectory at {path}; record runs with --record first"
        )
    entries = [json.loads(line) for line in
               path.read_text(encoding="utf-8").splitlines() if line.strip()]
    n = len(entries)
    try:
        ea, eb = entries[a_idx], entries[b_idx]
    except IndexError:
        raise BenchmarkError(
            f"trajectory has {n} entries; indices {a_idx}/{b_idx} are out "
            f"of range"
        ) from None
    lines = [
        f"A: entry {a_idx % n} {ea.get('timestamp', '?')}",
        f"B: entry {b_idx % n} {eb.get('timestamp', '?')}",
        f"{'case':<10s} {'wall A':>9s} {'wall B':>9s} {'steps/s A':>10s} "
        f"{'steps/s B':>10s} {'change':>8s}",
    ]
    a_cases = {c["name"]: c for c in ea.get("cases", [])}
    flagged = 0
    for cb in eb.get("cases", []):
        ca = a_cases.get(cb["name"])
        sps_b = cb.get("steps_per_second")
        sps_a = None if ca is None else ca.get("steps_per_second")
        if sps_b is None or (ca is not None and sps_a is None):
            lines.append(f"{cb['name']:<10s}   not comparable (no steps/s)")
            continue
        if ca is None:
            lines.append(f"{cb['name']:<10s} {'—':>9s} "
                         f"{cb['wall_seconds']:9.4f} {'—':>10s} "
                         f"{sps_b:>10.0f}   (new case)")
            continue
        change = (sps_b / sps_a - 1.0) if sps_a > 0 else float("inf")
        mark = ""
        if (ca["cycles"], ca["steps"]) != (cb["cycles"], cb["steps"]):
            mark = "  SCHEDULE DRIFT"
            flagged += 1
        elif change <= -0.05:
            mark = "  regression"
            flagged += 1
        elif change >= 0.05:
            mark = "  improvement"
        lines.append(
            f"{cb['name']:<10s} {ca['wall_seconds']:9.4f} "
            f"{cb['wall_seconds']:9.4f} {sps_a:>10.0f} {sps_b:>10.0f} "
            f"{change:>+7.1%}{mark}"
        )
    missing = [name for name in a_cases
               if name not in {c["name"] for c in eb.get("cases", [])}]
    if missing:
        lines.append(f"cases only in A: {', '.join(missing)}")
    lines.append(f"flagged: {flagged}")
    return "\n".join(lines)


def render(result: Dict) -> str:
    lines = [f"{'case':<12s} {'wall(s)':>9s} {'cycles':>10s} {'steps':>7s} "
             f"{'steps/s':>10s}"]
    for c in result["cases"]:
        lines.append(
            f"{c['name']:<12s} {c['wall_seconds']:9.4f} {c['cycles']:>10d} "
            f"{c['steps']:>7d} {c['steps_per_second']:>10.0f}"
        )
    lines.append(f"total wall: {result['total_wall_seconds']:.4f}s "
                 f"(median of {result['repeats']})")
    cache = result.get("graph_cache")
    if cache is not None:
        lines.append(f"graph cache: {cache['hits']} hits, "
                     f"{cache['misses']} misses")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench micro",
        description="Fixed engine micro-sweep (perf-smoke gate).",
    )
    parser.add_argument("--quick", action="store_true",
                        help="single repeat per case")
    parser.add_argument("--compare", nargs=2, type=int, metavar=("A", "B"),
                        default=None,
                        help="diff two recorded trajectory entries by "
                             "index (negative = from latest) and exit")
    parser.add_argument("--json", type=pathlib.Path, default=None,
                        help="write the machine-readable result to this "
                             "path (default: write none)")
    parser.add_argument("--record", action="store_true",
                        help="append this run to "
                             "benchmarks/out/trajectory.jsonl")
    parser.add_argument("--baseline", type=pathlib.Path, default=None,
                        help="baseline JSON to gate against "
                             "(default: benchmarks/baseline_micro.json)")
    parser.add_argument("--update-baseline", action="store_true",
                        help="rewrite the baseline with this run's numbers")
    parser.add_argument("--no-check", action="store_true",
                        help="emit results without gating")
    parser.add_argument("--profile", metavar="PATH", default=None,
                        help="dump cProfile stats of the sweep to PATH")
    args = parser.parse_args(argv)

    if args.compare is not None:
        try:
            print(compare_trajectory(args.compare[0], args.compare[1]))
        except BenchmarkError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        return 0
    result = run_micro(repeats=1 if args.quick else 3,
                       profile_path=args.profile)
    print(render(result))
    if args.json is not None:
        args.json.write_text(json.dumps(result, indent=1) + "\n")
        print(f"[wrote {args.json}]")
    if args.record:
        trajectory = record_trajectory(result)
        print(f"[recorded to {trajectory}]")

    baseline_path = args.baseline or default_baseline_path()
    if args.update_baseline:
        baseline_path.parent.mkdir(parents=True, exist_ok=True)
        baseline_path.write_text(json.dumps(result, indent=1) + "\n")
        print(f"[baseline updated: {baseline_path}]")
        return 0
    if args.no_check:
        return 0
    if not baseline_path.exists():
        print(f"[no baseline at {baseline_path}; run with --update-baseline "
              f"to record one]", file=sys.stderr)
        return 0
    baseline = json.loads(baseline_path.read_text())
    problems = check_against_baseline(result, baseline)
    if problems:
        for p in problems:
            print(f"PERF-SMOKE FAIL: {p}", file=sys.stderr)
        return 1
    print(f"[perf-smoke OK vs {baseline_path}]")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via CLI
    raise SystemExit(main())
