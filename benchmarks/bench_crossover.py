"""BFS-vs-DFS crossover sweep: where each engine family wins, by shape.

The frontier engine (:mod:`repro.core.frontier`) advances whole BFS
levels with bit-packed vectors.  It pays a fixed cost per level, so it
wins where every level holds plenty of work and loses where thousands
of levels hold a vertex or two each; the fused DFS loop's cost barely
depends on depth.  This sweep times both families at width 1 — one
query running alone, the price routing charges — and checks the
routing constant :data:`repro.core.dispatch.DFS_MIN_LEVELS_PER_VERTEX`
against the measurement::

    python benchmarks/bench_crossover.py --quick --gate
    python benchmarks/bench_crossover.py --gate --record

The corpus spans BFS levels per vertex (levels/n): a depth-controlled
axis (``wide_layers`` with ``width x depth = N``) from a handful of
huge levels to hundreds of narrow ones, a shallow hub-mesh anchor
(``star_mesh``), ``skewed_tree`` points whose spine share walks levels/n
from 0.02 to 0.47, a ``path_graph`` anchor at 1.0, and the
``MICRO_CASES`` graphs.  Per case the sweep times ``run_frontier`` and
the fused DFS loop from vertex 0, the latter twice: with the default
config (the one an override-free, routable query runs) and with the
case's config (``SWEEP_CONFIG``, or a micro case's own).  Each round
times the three back to back and each keeps its best of ``--repeats``
rounds, so host noise lands on all of them alike.  The sweep records
levels/n, the family ``auto`` routes the graph to, and the bracket of
constants that would route every case within ``ROUTING_SLACK`` (1.2x)
of its faster family under both configs: above the largest levels/n
at which DFS is more than the slack slower than the frontier engine,
and at most the smallest levels/n at which the frontier engine is more
than the slack slower than DFS.

``--gate`` fails unless:

* the corpus brackets a crossover: the frontier engine is at least
  ``SPEEDUP_FLOOR`` (2x) faster than default-config DFS on some case,
  and DFS is faster on some other;
* on every case, under both configs, the routed family is within
  ``ROUTING_SLACK`` of the faster family — the committed constant lies
  in the measured bracket;
* on both swarm flagships (``starmesh6000``, ``layers2000x3``) the
  swarm engine's per-root wall beats the sequential frontier sweep by
  >= ``SWARM_SPEEDUP_FLOOR`` (3x).

Swarm measurement protocol: wall-clock noise on a shared host swings
a sequential baseline by +-20% between measurement blocks, which is
fatal to a 3x gate sitting near 3.3x.  The two flagships therefore run an
*interleaved best-of-R* protocol — each round times one sequential
``run_frontier`` sweep over the batch roots, then one ``run_swarm``
batch over the same roots, and both sides keep their minimum across
rounds.  Alternating inside the same measurement window means load
spikes hit both engines symmetrically instead of landing on whichever
side happened to run during the spike.

``--record`` appends the run to ``benchmarks/out/trajectory.jsonl``
(kind ``crossover``), beside the micro sweep's recorded runs.

``--widths`` runs the swarm break-even sweep instead: on every
``MICRO_CASES`` graph it times the per-query wall of the single-root
frontier engine against the lockstep swarm at each width of ``WIDTHS``
over evenly spread roots, interleaved best-of-``WIDTH_ROUNDS`` (each
round times both sides at each width back to back)::

    python benchmarks/bench_crossover.py --widths --record
    python benchmarks/bench_crossover.py --widths --quick --gate

The break-even is the smallest swept width at which the swarm is no
slower than the scalar engine on the median case and at most
``BREAK_EVEN_SLACK`` (1.2x) slower on every case;
:data:`repro.core.dispatch.SWARM_MIN_WIDTH` holds it.  (The DFS family
has no lockstep tier: every DFS batch runs the fused scalar loop.)
``--quick`` sweeps road1000 and pa2000 at widths 1, 2 and
``SWARM_MIN_WIDTH``.  ``--gate`` fails when the swarm beats the scalar
engine on the median case at width 2 (``run_batch``'s scalar pick would
be the slower one) or costs more than ``BREAK_EVEN_SLACK`` times the
scalar engine on any case at ``SWARM_MIN_WIDTH``.  ``--record`` appends
the sweep to the trajectory (kind ``crossover_widths``).
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import sys
import time
from typing import Dict, List, Optional, Tuple

import numpy as np

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.bench.micro import MICRO_CASES, record_trajectory  # noqa: E402
from repro.core.config import DiggerBeesConfig  # noqa: E402
from repro.core.diggerbees import run_diggerbees  # noqa: E402
from repro.core.dispatch import (  # noqa: E402
    DFS_MIN_LEVELS_PER_VERTEX,
    SWARM_MIN_WIDTH,
    choose_backend,
)
from repro.core.frontier import run_frontier  # noqa: E402
from repro.core.swarm import run_swarm  # noqa: E402
from repro.graphs import generators as gen  # noqa: E402
from repro.graphs.properties import num_bfs_levels  # noqa: E402
from repro.utils.malloc import retain_large_blocks  # noqa: E402

#: Frontier-over-DFS speedup the gate requires on >= 1 case.
SPEEDUP_FLOOR = 2.0

#: Per-root swarm-over-sequential-frontier floor on the flagship cases.
SWARM_SPEEDUP_FLOOR = 3.0

#: The routed family may be at most this much slower than the faster
#: family on any case.
ROUTING_SLACK = 1.2

#: Cases that run the interleaved swarm-vs-sequential protocol and
#: carry the SWARM_SPEEDUP_FLOOR gate.
SWARM_FLAGSHIPS = ("starmesh6000", "layers2000x3")

#: Fixed vertex budget of the crossover graphs (width x depth = N).
SWEEP_N = 6000

#: DFS config of the crossover graphs (micro cases run their own).
SWEEP_CONFIG = DiggerBeesConfig(n_blocks=8, warps_per_block=4, seed=9)

#: Depth axis: few huge levels -> hundreds of narrow ones.
SWEEP_DEPTHS = (3, 6, 12, 30, 75, 150, 300)

QUICK_DEPTHS = (3, 30, 300)

#: ``skewed_tree`` spine shares between the depth axis and the
#: skew6000 anchor: levels/n from 0.02 (0.9) to 0.31 (0.997).
SWEEP_SKEWS = (0.9, 0.95, 0.98, 0.99, 0.993, 0.997)

#: The two points on either side of ``DFS_MIN_LEVELS_PER_VERTEX``
#: (levels/n 0.138 and 0.224).
QUICK_SKEWS = (0.99, 0.993)

#: Batch widths of the ``--widths`` break-even sweep.
WIDTHS = (1, 2, 4, 8, 16, 32, 64, 128, 256)

#: ``MICRO_CASES`` the quick ``--widths`` sweep runs.
QUICK_WIDTH_CASES = ("road1000", "pa2000")

#: Interleaved best-of rounds per (case, width) of the ``--widths`` sweep.
WIDTH_ROUNDS = 3

#: At its break-even width the swarm may cost at most this much more
#: per query than the single-root engine on any case.
BREAK_EVEN_SLACK = 1.2


def build_corpus(quick: bool) -> List[Tuple]:
    """``(name, graph, config)`` per case: the crossover graphs, then
    the micro cases."""
    graphs = []
    for depth in (QUICK_DEPTHS if quick else SWEEP_DEPTHS):
        width = SWEEP_N // depth
        graphs.append(gen.wide_layers(width, depth, seed=depth,
                                      name=f"layers{width}x{depth}"))
    graphs.append(gen.star_mesh(300, leaves_per_hub=19, seed=41,
                                name="starmesh6000"))
    # skew -> 1 keeps nearly every vertex on one spine: thousands of
    # near-singleton BFS levels, the frontier engine's worst case.
    for skew in (QUICK_SKEWS if quick else SWEEP_SKEWS):
        graphs.append(gen.skewed_tree(SWEEP_N, skew=skew, seed=43,
                                      name=f"skew{skew:g}"))
    graphs.append(gen.skewed_tree(SWEEP_N, skew=0.999, seed=43,
                                  name="skew6000"))
    graphs.append(gen.path_graph(SWEEP_N, name="path6000"))
    return ([(g.name, g, SWEEP_CONFIG) for g in graphs]
            + [(name, build(), cfg) for name, build, cfg in MICRO_CASES])


def swarm_roots(graph, swarm_batch: int) -> np.ndarray:
    """Evenly spread root batch (the admission layer's coalesced shape)."""
    return np.linspace(0, graph.n_vertices - 1,
                       swarm_batch).astype(np.int64)


def measure_swarm_interleaved(graph, *, swarm_batch: int,
                              rounds: int) -> Dict:
    """Best-of-``rounds`` interleaved swarm vs sequential frontier.

    Each round times one sequential single-root sweep over the batch
    roots and one swarm batch over the same roots, back to back; both
    sides keep their minimum.  Interleaving samples both engines across
    the same load windows, so host noise cancels out of the ratio
    instead of landing on one side.
    """
    roots = swarm_roots(graph, swarm_batch)
    run_swarm(graph, roots)  # warm both engines + allocator
    run_frontier(graph, int(roots[0]))
    seq_best = swarm_best = float("inf")
    for _ in range(rounds):
        t0 = time.perf_counter()
        for r in roots:
            run_frontier(graph, int(r))
        seq_best = min(seq_best, time.perf_counter() - t0)
        t0 = time.perf_counter()
        run_swarm(graph, roots)
        swarm_best = min(swarm_best, time.perf_counter() - t0)
    return {
        "swarm_rounds": rounds,
        "swarm_batch": swarm_batch,
        "swarm_per_root_wall_seconds": swarm_best / swarm_batch,
        "frontier_seq_per_root_wall_seconds": seq_best / swarm_batch,
        "speedup_swarm_over_frontier": seq_best / swarm_best,
    }


def measure_case(name: str, graph, config: DiggerBeesConfig, *,
                 repeats: int) -> Dict:
    """Width-1 walls of both families on one graph, interleaved
    best-of-``repeats``, and the family ``auto`` routes it to."""
    sides = {
        "frontier": lambda: run_frontier(graph, 0),
        "dfs_default": lambda: run_diggerbees(graph, 0),
        "dfs_config": lambda: run_diggerbees(graph, 0, config=config),
    }
    for run in sides.values():
        run()  # warm the engines + allocator
    best = dict.fromkeys(sides, float("inf"))
    for _ in range(repeats):
        for side, run in sides.items():
            t0 = time.perf_counter()
            run()
            best[side] = min(best[side], time.perf_counter() - t0)
    levels = num_bfs_levels(graph, 0)
    decision = choose_backend(graph, requested="auto")
    case = {
        "name": name,
        "n_vertices": int(graph.n_vertices),
        "n_levels": levels,
        "levels_per_vertex": levels / graph.n_vertices,
        "regime": decision.regime,
        "auto_backend": decision.backend,
        **{f"{side}_wall_seconds": wall for side, wall in best.items()},
    }
    frontier = best["frontier"]
    for cfg in ("default", "config"):
        dfs = best[f"dfs_{cfg}"]
        routed = dfs if decision.backend == "dfs" else frontier
        case[f"regret_{cfg}"] = routed / min(frontier, dfs)
    return case


def constant_bracket(cases: List[Dict]) -> Tuple[float, Optional[float]]:
    """``(lo, hi]``: the ``DFS_MIN_LEVELS_PER_VERTEX`` values that route
    every case within ``ROUTING_SLACK`` of its faster family under both
    configs (``hi`` is ``None`` when no case bounds it from above)."""
    lo, hi = 0.0, None
    for c in cases:
        frontier = c["frontier_wall_seconds"]
        dfs = (c["dfs_default_wall_seconds"], c["dfs_config_wall_seconds"])
        if any(d > ROUTING_SLACK * frontier for d in dfs):
            lo = max(lo, c["levels_per_vertex"])
        if any(frontier > ROUTING_SLACK * d for d in dfs):
            hi = (c["levels_per_vertex"] if hi is None
                  else min(hi, c["levels_per_vertex"]))
    return lo, hi


def run_sweep(*, quick: bool, repeats: int, swarm_batch: int,
              swarm_rounds: int) -> Dict:
    cases = []
    for name, graph, config in build_corpus(quick):
        case = measure_case(name, graph, config, repeats=repeats)
        if name in SWARM_FLAGSHIPS:
            case.update(measure_swarm_interleaved(
                graph, swarm_batch=swarm_batch, rounds=swarm_rounds))
        cases.append(case)
    return {
        "bench": "crossover",
        "quick": quick,
        "repeats": repeats,
        "swarm_batch": swarm_batch,
        "swarm_rounds": swarm_rounds,
        "sweep_n": SWEEP_N,
        "routing_slack": ROUTING_SLACK,
        "dfs_min_levels_per_vertex": DFS_MIN_LEVELS_PER_VERTEX,
        "bracket": list(constant_bracket(cases)),
        "cases": cases,
    }


def apply_gate(result: Dict) -> int:
    """Assert the crossover exists and auto routes every case within
    ``ROUTING_SLACK`` of its faster family."""
    cases = result["cases"]
    failures: List[str] = []
    speedups = {c["name"]: c["dfs_default_wall_seconds"]
                / c["frontier_wall_seconds"] for c in cases}
    best_wide = max(speedups, key=speedups.get)
    best_narrow = min(speedups, key=speedups.get)
    if speedups[best_wide] < SPEEDUP_FLOOR:
        failures.append(
            f"no case reaches the {SPEEDUP_FLOOR:.0f}x frontier speedup "
            f"floor (best: {best_wide} at {speedups[best_wide]:.2f}x)")
    if speedups[best_narrow] >= 1.0:
        failures.append(
            f"DFS wins no case (closest: {best_narrow}, frontier still "
            f"{speedups[best_narrow]:.2f}x ahead) — no crossover to "
            f"route around")
    for c in cases:
        for cfg in ("default", "config"):
            if c[f"regret_{cfg}"] > ROUTING_SLACK:
                failures.append(
                    f"{c['name']} (levels/n {c['levels_per_vertex']:.3f}, "
                    f"{cfg} config): auto routed it to "
                    f"{c['auto_backend']}, {c[f'regret_{cfg}']:.2f}x the "
                    f"faster family (frontier "
                    f"{c['frontier_wall_seconds']*1e3:.1f}ms, DFS "
                    f"{c[f'dfs_{cfg}_wall_seconds']*1e3:.1f}ms), over the "
                    f"{ROUTING_SLACK:.1f}x slack")
    failures.extend(_gate_swarm_floor(cases))
    if failures:
        for f in failures:
            print(f"CROSSOVER GATE FAIL: {f}", file=sys.stderr)
        return 1
    by_name = {c["name"]: c for c in cases}
    swarm_bits = ", ".join(
        f"{name} {by_name[name]['speedup_swarm_over_frontier']:.1f}x"
        for name in SWARM_FLAGSHIPS)
    print(f"gate: ok — frontier up to {speedups[best_wide]:.1f}x faster "
          f"({best_wide}), DFS up to {1.0 / speedups[best_narrow]:.1f}x "
          f"({best_narrow}); auto within {ROUTING_SLACK:.1f}x of the "
          f"faster family on all {len(cases)} cases at "
          f"DFS_MIN_LEVELS_PER_VERTEX {DFS_MIN_LEVELS_PER_VERTEX}; "
          f"swarm >= {SWARM_SPEEDUP_FLOOR:.1f}x per root ({swarm_bits})")
    return 0


def _gate_swarm_floor(cases: List[Dict]) -> List[str]:
    """Both flagships must clear the per-root swarm speedup floor."""
    failures = []
    by_name = {c["name"]: c for c in cases}
    for name in SWARM_FLAGSHIPS:
        case = by_name.get(name)
        if case is None:
            failures.append(f"swarm flagship {name} missing from corpus")
            continue
        got = case["speedup_swarm_over_frontier"]
        if got < SWARM_SPEEDUP_FLOOR:
            failures.append(
                f"swarm on {name}: {got:.2f}x per root vs sequential "
                f"frontier, below the {SWARM_SPEEDUP_FLOOR:.1f}x floor "
                f"(swarm {case['swarm_per_root_wall_seconds']*1e6:.0f}us"
                f"/root, frontier "
                f"{case['frontier_seq_per_root_wall_seconds']*1e6:.0f}us"
                f"/root over {case['swarm_rounds']} interleaved rounds)")
    return failures


# ---------------------------------------------------------------------------
# --widths: where the swarm starts to pay.
# ---------------------------------------------------------------------------

def _width_sides(graph, width: int):
    """``(scalar, swarm)`` thunks running ``width`` evenly spread roots
    of ``graph`` on the frontier family."""
    roots = [int(r) for r in swarm_roots(graph, width)]
    return ((lambda: [run_frontier(graph, r) for r in roots]),
            (lambda: run_swarm(graph, roots)))


def measure_widths_case(graph, widths: List[int], rounds: int) -> Dict:
    """Per-query walls of the single-root engine and the swarm at each
    width, interleaved best-of-``rounds``."""
    sides = {w: _width_sides(graph, w) for w in widths}
    for run in sides[widths[0]]:
        run()  # warm both engines + allocator
    best = {w: [float("inf"), float("inf")] for w in widths}
    for _ in range(rounds):
        for w in widths:
            for side, run in enumerate(sides[w]):
                t0 = time.perf_counter()
                run()
                best[w][side] = min(best[w][side], time.perf_counter() - t0)
    return {str(w): {"scalar_seconds": scalar / w,
                     "lockstep_seconds": lockstep / w,
                     "ratio": lockstep / scalar}
            for w, (scalar, lockstep) in best.items()}


def run_widths(*, quick: bool) -> Dict:
    """The break-even sweep over ``MICRO_CASES`` (quick: two cases and
    widths 1, 2 and ``SWARM_MIN_WIDTH``)."""
    widths = sorted({1, 2, SWARM_MIN_WIDTH}) if quick else list(WIDTHS)
    cases = [{"name": name,
              "ratios": measure_widths_case(build(), widths, WIDTH_ROUNDS)}
             for name, build, _ in MICRO_CASES
             if not quick or name in QUICK_WIDTH_CASES]
    result = {"bench": "crossover_widths", "quick": quick,
              "rounds": WIDTH_ROUNDS, "widths": widths,
              "swarm_min_width": SWARM_MIN_WIDTH, "cases": cases}
    result["break_even"] = break_even(result)
    return result


def _width_ratios(result: Dict, width: int) -> List[float]:
    return [c["ratios"][str(width)]["ratio"] for c in result["cases"]]


def break_even(result: Dict) -> Optional[int]:
    """Smallest swept width at which the swarm is no slower than the
    scalar engine on the median case and at most ``BREAK_EVEN_SLACK``
    slower on every case, or ``None``."""
    for width in result["widths"]:
        ratios = _width_ratios(result, width)
        if (statistics.median(ratios) <= 1.0
                and max(ratios) <= BREAK_EVEN_SLACK):
            return width
    return None


def apply_widths_gate(result: Dict) -> int:
    """``SWARM_MIN_WIDTH`` must sit where this sweep says the swarm
    starts to pay: not above a width-2 win, not below break-even."""
    failures = []
    lo, widths = SWARM_MIN_WIDTH, result["widths"]
    if 2 in widths and 2 < lo:
        median = statistics.median(_width_ratios(result, 2))
        if median < 1.0:
            failures.append(
                f"the swarm beats the scalar engine at width 2 "
                f"({median:.2f}x on the median case), below "
                f"SWARM_MIN_WIDTH {lo}")
    if lo not in widths:
        failures.append(f"SWARM_MIN_WIDTH {lo} was not swept")
    else:
        for case in result["cases"]:
            ratio = case["ratios"][str(lo)]["ratio"]
            if ratio > BREAK_EVEN_SLACK:
                failures.append(
                    f"at SWARM_MIN_WIDTH {lo} the swarm costs "
                    f"{ratio:.2f}x the scalar engine on {case['name']}, "
                    f"over the {BREAK_EVEN_SLACK:.1f}x slack")
    if failures:
        for f in failures:
            print(f"WIDTHS GATE FAIL: {f}", file=sys.stderr)
        return 1
    print(f"widths gate: ok — the scalar engine wins width 2 and the "
          f"swarm is within {BREAK_EVEN_SLACK:.1f}x at SWARM_MIN_WIDTH "
          f"{lo}")
    return 0


def render_widths(result: Dict) -> str:
    """Swarm/scalar per-query wall ratio per case and width."""
    widths = result["widths"]
    lines = ["frontier: swarm / single-root engine, per query",
             f"{'case':<14s}" + "".join(f"{w:>7d}" for w in widths)]
    for c in result["cases"]:
        lines.append(f"{c['name']:<14s}" + "".join(
            f"{c['ratios'][str(w)]['ratio']:>7.2f}" for w in widths))
    for label, agg in (("median", statistics.median), ("worst", max)):
        lines.append(f"{label:<14s}" + "".join(
            f"{agg(_width_ratios(result, w)):>7.2f}" for w in widths))
    lines.append(f"break-even: {result['break_even']} "
                 f"(SWARM_MIN_WIDTH {SWARM_MIN_WIDTH})")
    return "\n".join(lines)


def render(result: Dict) -> str:
    lines = [f"{'case':<14s} {'n':>6s} {'levels':>6s} {'lev/n':>6s} "
             f"{'frontier':>10s} {'dfs(def)':>10s} {'dfs(cfg)':>10s} "
             f"{'auto':>8s} {'regret':>7s}"]
    for c in result["cases"]:
        lines.append(
            f"{c['name']:<14s} {c['n_vertices']:>6d} {c['n_levels']:>6d} "
            f"{c['levels_per_vertex']:>6.3f} "
            f"{c['frontier_wall_seconds']*1e3:>8.2f}ms "
            f"{c['dfs_default_wall_seconds']*1e3:>8.2f}ms "
            f"{c['dfs_config_wall_seconds']*1e3:>8.2f}ms "
            f"{c['auto_backend']:>8s} "
            f"{max(c['regret_default'], c['regret_config']):>6.2f}x")
    lo, hi = result["bracket"]
    lines.append(f"constants within {ROUTING_SLACK:.1f}x on every case: "
                 f"levels/n in ({lo:.3f}, "
                 f"{'inf' if hi is None else f'{hi:.3f}'}]; "
                 f"DFS_MIN_LEVELS_PER_VERTEX = {DFS_MIN_LEVELS_PER_VERTEX}")
    for c in result["cases"]:
        if "speedup_swarm_over_frontier" in c:
            lines.append(
                f"swarm {c['name']}: "
                f"{c['swarm_per_root_wall_seconds']*1e3:.3f}ms/root at "
                f"width {c['swarm_batch']}, "
                f"{c['speedup_swarm_over_frontier']:.2f}x the sequential "
                f"frontier loop (interleaved best of {c['swarm_rounds']})")
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="BFS-vs-DFS crossover sweep over BFS levels per "
                    "vertex")
    parser.add_argument("--quick", action="store_true",
                        help="3-point depth axis and the two skewed_tree "
                             "points either side of the routing constant "
                             "(with --widths: two cases, widths 1, 2 and "
                             "SWARM_MIN_WIDTH)")
    parser.add_argument("--widths", action="store_true",
                        help="run the swarm break-even sweep (single-"
                             "root frontier engine vs swarm per width on "
                             "the micro cases) instead of the crossover "
                             "sweep")
    parser.add_argument("--repeats", type=int, default=5,
                        help="interleaved best-of rounds per case")
    parser.add_argument("--swarm-batch", type=int, default=256,
                        help="root-batch width for the swarm tier")
    parser.add_argument("--swarm-rounds", type=int, default=5,
                        help="interleaved best-of rounds for the swarm "
                             "protocol (quick mode drops to 3)")
    parser.add_argument("--gate", action="store_true",
                        help="fail unless frontier wins some case >= "
                             f"{SPEEDUP_FLOOR:.0f}x, DFS wins some case, "
                             "auto routes every case within "
                             f"{ROUTING_SLACK:.1f}x of the faster family, "
                             "and swarm clears "
                             f"{SWARM_SPEEDUP_FLOOR:.0f}x per root on the "
                             "flagships (with --widths: unless the scalar "
                             "engine wins width 2 and the swarm is within "
                             f"{BREAK_EVEN_SLACK:.1f}x of it at "
                             "SWARM_MIN_WIDTH)")
    parser.add_argument("--record", action="store_true",
                        help="append to benchmarks/out/trajectory.jsonl")
    parser.add_argument("--json", default=None,
                        help="write the full result payload to this file")
    args = parser.parse_args(argv)

    # Batch engines re-fault tens of MB of transient state per call
    # under the default allocator policy; retain the arena so the sweep
    # measures the engines, not the kernel's page zeroing.
    retain_large_blocks()

    if args.widths:
        result = run_widths(quick=args.quick)
        show, gate = render_widths, apply_widths_gate
    else:
        swarm_rounds = (min(args.swarm_rounds, 3) if args.quick
                        else max(1, args.swarm_rounds))
        result = run_sweep(quick=args.quick, repeats=max(1, args.repeats),
                           swarm_batch=args.swarm_batch,
                           swarm_rounds=swarm_rounds)
        show, gate = render, apply_gate
    print(show(result))
    if args.json:
        pathlib.Path(args.json).write_text(
            json.dumps(result, indent=2, sort_keys=True) + "\n")
    if args.record:
        print(f"recorded -> {record_trajectory(result)}")
    if args.gate:
        return gate(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
