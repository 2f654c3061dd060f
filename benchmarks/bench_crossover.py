"""BFS-vs-DFS crossover sweep: where each engine family wins, by depth.

The frontier engine (:mod:`repro.core.frontier`) advances whole BFS
levels with bit-packed vectors — its cost scales with the number of
levels, not the number of vertices, so shallow-wide graphs are its
winning shape.  The DFS simulation tiers amortize differently: the hive
engine's lockstep batching makes per-run cost nearly independent of
shape.  This sweep measures both families across a depth-controlled
corpus and records where the crossover sits::

    python benchmarks/bench_crossover.py --quick
    python benchmarks/bench_crossover.py --gate --record

The depth axis holds the vertex budget fixed (``wide_layers`` with
``width x depth = N``) and swings depth from a handful of huge levels to
hundreds of narrow ones, bracketed by a shallow hub-mesh anchor
(``star_mesh``) and two deep anchors (``path_graph``, ``skewed_tree``).
Per case the sweep records the frontier engine's median wall and MTEPS,
the hive-DFS per-run wall (a ``--batch``-wide lockstep batch's wall
divided by its width, the cost the calibration table prices DFS at), the
swarm engine's per-root wall over a ``--swarm-batch``-wide root batch,
and the backend the ``auto`` dispatch policy would pick for the graph.

Swarm measurement protocol: wall-clock noise on this host swings a
sequential baseline by +-20% between measurement blocks, which is fatal
to a 3x gate sitting near 3.3x.  The two flagship gate cases therefore
run an *interleaved best-of-R* protocol — each round times one
sequential ``run_frontier`` sweep over the batch roots, then one
``run_swarm`` batch over the same roots, and both sides keep their
minimum across rounds.  Alternating inside the same measurement window
means load spikes hit both engines symmetrically instead of landing on
whichever side happened to run during the spike.  Non-flagship cases
skip the (expensive) sequential sweep and report the single-root
frontier median as a proxy baseline.

``--gate`` asserts the crossover exists and the router sits on the
right side of both flagship cases:

* on at least one shallow-regime case the frontier engine is >=
  ``SPEEDUP_FLOOR`` (2x) faster than per-run hive-DFS, and ``auto``
  picks frontier there;
* on at least one deep-regime case DFS wins outright (speedup < 1),
  and ``auto`` picks DFS on the deepest win;
* on both swarm flagships (``starmesh6000``, ``layers2000x3``) the
  swarm engine's per-root wall beats the sequential frontier sweep by
  >= ``SWARM_SPEEDUP_FLOOR`` (3x, env-overridable);
* routing with the freshly fitted calibration table never picks a
  family more than ``ROUTING_SLACK`` (1.2x) slower than the best family
  measured on any anchor case, at batch hints of 1 and
  ``--swarm-batch`` (the frontier family costs its single-root wall,
  or from ``LOCKSTEP_MIN_WIDTH["frontier"]`` up the cheaper of that
  and its per-root swarm wall); with calibration disabled the decision
  falls back to the regime proxy.

Mid-sweep cases where the frontier engine leads despite a ``deep``
regime label are expected — the regime boundary is an asymptotic
proxy, while at simulation scale the measured crossover sits near the
path-graph end of the axis (see docs/PERFORMANCE.md).

``--record`` appends the run to ``benchmarks/out/trajectory.jsonl``
(kind ``crossover``) and fits the per-regime calibration table the
dispatch layer routes by, persisting it to
``benchmarks/calibration_routing.json``; the micro sweep's
``BENCH_engine.json`` snapshot is untouched.

``--widths`` runs the lockstep break-even sweep instead: on every
``MICRO_CASES`` graph with its config it times the per-query wall of the
scalar loop (the fused DFS driver, the single-root frontier engine)
against its family's lockstep tier (hive, swarm) at each width of
``WIDTHS`` over evenly spread roots, interleaved best-of-``WIDTH_ROUNDS``
(each round times both sides at each width back to back)::

    python benchmarks/bench_crossover.py --widths --record
    python benchmarks/bench_crossover.py --widths --quick --gate

A family's break-even is the smallest swept width at which lockstep is
no slower than the scalar loop on the median case and at most
``BREAK_EVEN_SLACK`` (1.2x) slower on every case;
:data:`repro.core.dispatch.LOCKSTEP_MIN_WIDTH` holds those widths.
``--quick`` sweeps road1000 and pa2000 at widths 1, 2 and each family's
``LOCKSTEP_MIN_WIDTH``.  ``--gate`` fails when lockstep beats the scalar
loop on the median case at width 2 (``run_batch``'s scalar pick would
be the slower one) or costs more than ``BREAK_EVEN_SLACK`` times the
scalar loop on any case at its family's ``LOCKSTEP_MIN_WIDTH``.
``--record`` appends the sweep to the trajectory (kind
``crossover_widths``); it never refits the calibration table.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import statistics
import sys
import time
from datetime import datetime, timezone
from typing import Dict, List, Optional

import numpy as np

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.bench.micro import MICRO_CASES  # noqa: E402
from repro.core.config import DiggerBeesConfig  # noqa: E402
from repro.core.diggerbees import run_diggerbees  # noqa: E402
from repro.core.dispatch import (  # noqa: E402
    LOCKSTEP_MIN_WIDTH,
    calibration_path,
    choose_backend,
)
from repro.core.frontier import run_frontier  # noqa: E402
from repro.core.hive import run_hive  # noqa: E402
from repro.core.swarm import run_swarm  # noqa: E402
from repro.graphs import generators as gen  # noqa: E402
from repro.utils.malloc import retain_large_blocks  # noqa: E402

#: Shallow-case frontier speedup the gate requires on >= 1 case.
SPEEDUP_FLOOR = 2.0

#: Per-root swarm-over-sequential-frontier floor on the flagship cases
#: (override with the SWARM_SPEEDUP_FLOOR environment variable).
SWARM_SPEEDUP_FLOOR = 3.0

#: Calibrated routing may pick a backend at most this much slower than
#: the best backend measured on an anchor case.
ROUTING_SLACK = 1.2

#: Cases that run the full interleaved swarm-vs-sequential protocol and
#: carry the SWARM_SPEEDUP_FLOOR gate.
SWARM_FLAGSHIPS = ("starmesh6000", "layers2000x3")

#: Decisive-winner cases the ROUTING_SLACK check anchors on (mid-sweep
#: cases sit too close to the crossover for a regime-median table to
#: bound per-case regret).
ROUTING_ANCHORS = ("starmesh6000", "layers2000x3", "path6000",
                   "skew6000")

TRAJECTORY_PATH = REPO_ROOT / "benchmarks" / "out" / "trajectory.jsonl"

#: Fixed vertex budget of the depth sweep (width x depth = N).
SWEEP_N = 6000

#: Depth axis: few huge levels -> hundreds of narrow ones.
SWEEP_DEPTHS = (3, 6, 12, 30, 75, 150, 300)

QUICK_DEPTHS = (3, 30, 300)

#: Batch widths of the ``--widths`` break-even sweep.
WIDTHS = (1, 2, 4, 8, 16, 32, 64, 128, 256)

#: ``MICRO_CASES`` the quick ``--widths`` sweep runs.
QUICK_WIDTH_CASES = ("road1000", "pa2000")

#: Interleaved best-of rounds per (case, width) of the ``--widths`` sweep.
WIDTH_ROUNDS = 3

#: At its break-even width lockstep may cost at most this much more
#: per query than the scalar loop on any case.
BREAK_EVEN_SLACK = 1.2


def build_corpus(quick: bool) -> List:
    """Depth-controlled sweep graphs plus the shallow/deep anchors."""
    graphs = []
    for depth in (QUICK_DEPTHS if quick else SWEEP_DEPTHS):
        width = SWEEP_N // depth
        graphs.append(gen.wide_layers(width, depth, seed=depth,
                                      name=f"layers{width}x{depth}"))
    graphs.append(gen.star_mesh(300, leaves_per_hub=19, seed=41,
                                name="starmesh6000"))
    graphs.append(gen.path_graph(SWEEP_N, name="path6000"))
    # skew -> 1 keeps nearly every vertex on one spine: thousands of
    # near-singleton BFS levels, the frontier engine's worst case.
    graphs.append(gen.skewed_tree(SWEEP_N, skew=0.999, seed=43,
                                  name="skew6000"))
    return graphs


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
        "swarm_protocol": "interleaved",
        "swarm_rounds": rounds,
        "swarm_per_root_wall_seconds": swarm_best / swarm_batch,
        "frontier_seq_per_root_wall_seconds": seq_best / swarm_batch,
    }


def measure_swarm_proxy(graph, *, swarm_batch: int, rounds: int,
                        frontier_wall: float) -> Dict:
    """Swarm per-root wall with the single-root frontier median as the
    baseline (skips the sequential sweep, which on the deep anchors
    costs tens of seconds per round)."""
    roots = swarm_roots(graph, swarm_batch)
    run_swarm(graph, roots)
    best = float("inf")
    for _ in range(rounds):
        t0 = time.perf_counter()
        run_swarm(graph, roots)
        best = min(best, time.perf_counter() - t0)
    return {
        "swarm_protocol": "proxy-baseline",
        "swarm_rounds": rounds,
        "swarm_per_root_wall_seconds": best / swarm_batch,
        "frontier_seq_per_root_wall_seconds": frontier_wall,
    }


def measure_case(graph, *, repeats: int, batch: int, swarm_batch: int,
                 swarm_rounds: int, config: DiggerBeesConfig) -> Dict:
    """All three engine families on one graph."""
    f_walls, d_walls = [], []
    fres = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        fres = run_frontier(graph, 0)
        f_walls.append(time.perf_counter() - t0)
    tasks = [(0, config)] * batch
    for _ in range(repeats):
        t0 = time.perf_counter()
        run_hive(graph, tasks)
        d_walls.append((time.perf_counter() - t0) / batch)
    frontier_wall = statistics.median(f_walls)
    dfs_wall = statistics.median(d_walls)
    if graph.name in SWARM_FLAGSHIPS:
        swarm = measure_swarm_interleaved(graph, swarm_batch=swarm_batch,
                                          rounds=swarm_rounds)
    else:
        swarm = measure_swarm_proxy(graph, swarm_batch=swarm_batch,
                                    rounds=swarm_rounds,
                                    frontier_wall=frontier_wall)
    # calibration={} pins the decision to the regime proxy so the sweep
    # reads the same regardless of any artifact already on disk; the
    # gate exercises calibrated routing separately against the table
    # fitted from this very run.
    decision = choose_backend(graph, requested="auto", calibration={})
    auto_wall = (frontier_wall if decision.backend == "frontier"
                 else dfs_wall)
    seq_wall = swarm["frontier_seq_per_root_wall_seconds"]
    return {
        **swarm,
        "swarm_batch": swarm_batch,
        "speedup_swarm_over_frontier": (
            seq_wall / swarm["swarm_per_root_wall_seconds"]
            if swarm["swarm_per_root_wall_seconds"] > 0
            else float("inf")),
        "name": graph.name,
        "n_vertices": int(graph.n_vertices),
        "n_levels": int(fres.n_levels),
        "regime": decision.regime,
        "frontier_wall_seconds": frontier_wall,
        "frontier_mteps": (fres.edges_scanned / frontier_wall / 1e6
                           if frontier_wall > 0 else 0.0),
        "pushes": int(fres.pushes),
        "pulls": int(fres.pulls),
        "dfs_wall_seconds": dfs_wall,
        "batch": batch,
        # > 1 means the frontier engine is faster on this graph.
        "speedup_frontier_over_dfs": (dfs_wall / frontier_wall
                                      if frontier_wall > 0
                                      else float("inf")),
        "auto_backend": decision.backend,
        "auto_wall_seconds": auto_wall,
    }


def run_sweep(*, quick: bool, repeats: int, batch: int,
              swarm_batch: int, swarm_rounds: int) -> Dict:
    config = DiggerBeesConfig(n_blocks=8, warps_per_block=4, seed=9)
    cases = [measure_case(g, repeats=repeats, batch=batch,
                          swarm_batch=swarm_batch,
                          swarm_rounds=swarm_rounds, config=config)
             for g in build_corpus(quick)]
    return {
        "bench": "crossover",
        "quick": quick,
        "repeats": repeats,
        "batch": batch,
        "swarm_batch": swarm_batch,
        "swarm_rounds": swarm_rounds,
        "sweep_n": SWEEP_N,
        "cases": cases,
    }


def fit_calibration(result: Dict) -> Dict:
    """Per-regime median wall per execution tier, in the dispatch table
    schema.

    ``frontier`` is the single-root engine's median wall, ``dfs`` the
    per-run wall of a lockstep hive batch, ``swarm`` the per-root wall
    of a ``swarm_batch``-wide root batch — all directly comparable
    per-query costs.  The dispatch layer prices each answer family at
    its cheapest eligible tier for a query's regime
    (:func:`repro.core.dispatch.choose_backend`).
    """
    per_regime: Dict[str, Dict[str, List[float]]] = {}
    for c in result["cases"]:
        walls = per_regime.setdefault(c["regime"], {})
        walls.setdefault("frontier", []).append(
            c["frontier_wall_seconds"])
        walls.setdefault("dfs", []).append(c["dfs_wall_seconds"])
        walls.setdefault("swarm", []).append(
            c["swarm_per_root_wall_seconds"])
    return {
        "version": 1,
        "fitted_at": datetime.now(timezone.utc).isoformat(
            timespec="seconds"),
        "swarm_batch": result["swarm_batch"],
        "regimes": {
            regime: {backend: statistics.median(vals)
                     for backend, vals in walls.items()}
            for regime, walls in per_regime.items()
        },
    }


def write_calibration(table: Dict) -> pathlib.Path:
    path = calibration_path()
    path.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")
    return path


def apply_gate(result: Dict) -> int:
    """Assert the crossover exists and auto routes both sides of it."""
    cases = result["cases"]
    shallow = [c for c in cases if c["regime"] == "shallow"]
    deep = [c for c in cases if c["regime"] == "deep"]
    failures: List[str] = []
    if not shallow or not deep:
        failures.append(
            f"corpus degenerated: {len(shallow)} shallow / {len(deep)} "
            f"deep cases (need both regimes to bracket a crossover)")
    best_shallow = max(shallow,
                       key=lambda c: c["speedup_frontier_over_dfs"],
                       default=None)
    if best_shallow is not None:
        if best_shallow["speedup_frontier_over_dfs"] < SPEEDUP_FLOOR:
            failures.append(
                f"no shallow case reaches the {SPEEDUP_FLOOR:.0f}x "
                f"frontier speedup floor (best: "
                f"{best_shallow['name']} at "
                f"{best_shallow['speedup_frontier_over_dfs']:.2f}x)")
        elif best_shallow["auto_backend"] != "frontier":
            failures.append(
                f"auto routed {best_shallow['name']} to "
                f"{best_shallow['auto_backend']} but the frontier engine "
                f"measured {best_shallow['speedup_frontier_over_dfs']:.2f}x "
                f"faster there")
    best_deep = min(deep, key=lambda c: c["speedup_frontier_over_dfs"],
                    default=None)
    if best_deep is not None:
        if best_deep["speedup_frontier_over_dfs"] >= 1.0:
            failures.append(
                f"DFS wins no deep case (closest: {best_deep['name']}, "
                f"frontier still "
                f"{best_deep['speedup_frontier_over_dfs']:.2f}x ahead) — "
                f"no crossover to route around")
        elif best_deep["auto_backend"] != "dfs":
            failures.append(
                f"auto routed {best_deep['name']} to "
                f"{best_deep['auto_backend']} but DFS measured "
                f"{1.0 / best_deep['speedup_frontier_over_dfs']:.2f}x "
                f"faster there")
    failures.extend(_gate_swarm_floor(cases))
    failures.extend(_gate_calibrated_routing(result))
    if failures:
        for f in failures:
            print(f"CROSSOVER GATE FAIL: {f}", file=sys.stderr)
        return 1
    floor = _swarm_floor()
    flagship = {c["name"]: c for c in cases}
    swarm_bits = ", ".join(
        f"{name} {flagship[name]['speedup_swarm_over_frontier']:.1f}x"
        for name in SWARM_FLAGSHIPS if name in flagship)
    print(f"gate: ok — frontier wins shallow "
          f"({best_shallow['name']} "
          f"{best_shallow['speedup_frontier_over_dfs']:.1f}x), DFS wins "
          f"deep ({best_deep['name']} "
          f"{1.0 / best_deep['speedup_frontier_over_dfs']:.1f}x), auto "
          f"on the winner both times; swarm >= {floor:.1f}x per root "
          f"({swarm_bits}); calibrated routing within "
          f"{ROUTING_SLACK:.1f}x of best on all anchors")
    return 0


def _swarm_floor() -> float:
    return float(os.environ.get("SWARM_SPEEDUP_FLOOR",
                                SWARM_SPEEDUP_FLOOR))


def _gate_swarm_floor(cases: List[Dict]) -> List[str]:
    """Both flagships must clear the per-root swarm speedup floor."""
    floor = _swarm_floor()
    failures = []
    by_name = {c["name"]: c for c in cases}
    for name in SWARM_FLAGSHIPS:
        case = by_name.get(name)
        if case is None:
            failures.append(f"swarm flagship {name} missing from corpus")
            continue
        got = case["speedup_swarm_over_frontier"]
        if got < floor:
            failures.append(
                f"swarm on {name}: {got:.2f}x per root vs sequential "
                f"frontier, below the {floor:.1f}x floor "
                f"(swarm {case['swarm_per_root_wall_seconds']*1e6:.0f}us"
                f"/root, frontier "
                f"{case['frontier_seq_per_root_wall_seconds']*1e6:.0f}us"
                f"/root over {case['swarm_rounds']} interleaved rounds)")
    return failures


def _gate_calibrated_routing(result: Dict) -> List[str]:
    """Calibrated family picks stay within ROUTING_SLACK of the measured
    best family on every anchor case, at single-query and swarm-batch
    hints; with calibration disabled the decision falls back to the
    regime proxy."""
    table = fit_calibration(result)
    swarm_batch = result["swarm_batch"]
    failures = []
    by_name = {c["name"]: c for c in result["cases"]}
    for name in ROUTING_ANCHORS:
        case = by_name.get(name)
        if case is None:
            continue
        for hint in (1, swarm_batch):
            frontier = case["frontier_wall_seconds"]
            if hint >= LOCKSTEP_MIN_WIDTH["frontier"]:
                frontier = min(frontier,
                               case["swarm_per_root_wall_seconds"])
            eligible = {"dfs": case["dfs_wall_seconds"],
                        "frontier": frontier}
            best_backend = min(eligible, key=eligible.get)
            decision = choose_backend(regime=case["regime"],
                                      batch_hint=hint,
                                      calibration=table)
            if decision.reason != "calibrated":
                failures.append(
                    f"routing {name} (hint={hint}): expected a "
                    f"calibrated decision, got reason "
                    f"{decision.reason!r}")
                continue
            picked = eligible[decision.backend]
            if picked > ROUTING_SLACK * eligible[best_backend]:
                failures.append(
                    f"routing {name} (hint={hint}): calibrated pick "
                    f"{decision.backend} measured {picked*1e3:.2f}ms "
                    f"vs best {best_backend} "
                    f"{eligible[best_backend]*1e3:.2f}ms — "
                    f"{picked/eligible[best_backend]:.2f}x, over the "
                    f"{ROUTING_SLACK:.1f}x slack")
    # No artifact -> the regime proxy must still answer.
    fallback = choose_backend(regime="shallow", batch_hint=swarm_batch,
                              calibration={})
    if fallback.reason != "regime" or fallback.backend != "frontier":
        failures.append(
            f"regime-proxy fallback broken: expected frontier/regime for "
            f"a shallow batch, got {fallback.backend}/{fallback.reason}")
    return failures


# ---------------------------------------------------------------------------
# --widths: where lockstep starts to pay, per family.
# ---------------------------------------------------------------------------

def _width_sides(graph, config: DiggerBeesConfig, family: str,
                 width: int):
    """``(scalar, lockstep)`` thunks running ``width`` evenly spread
    roots of ``graph`` on one family."""
    roots = [int(r) for r in swarm_roots(graph, width)]
    if family == "dfs":
        tasks = [(r, config) for r in roots]
        return ((lambda: [run_diggerbees(graph, r, config=config)
                          for r in roots]),
                (lambda: run_hive(graph, tasks)))
    return ((lambda: [run_frontier(graph, r) for r in roots]),
            (lambda: run_swarm(graph, roots)))


def measure_widths_case(graph, config: DiggerBeesConfig,
                        widths: Dict[str, List[int]],
                        rounds: int) -> Dict:
    """Per-query walls of the scalar loop and the lockstep tier at each
    width, interleaved best-of-``rounds`` per family."""
    out: Dict[str, Dict] = {}
    for family, fam_widths in widths.items():
        sides = {w: _width_sides(graph, config, family, w)
                 for w in fam_widths}
        for run in sides[fam_widths[0]]:
            run()  # warm both engines + allocator
        best = {w: [float("inf"), float("inf")] for w in fam_widths}
        for _ in range(rounds):
            for w in fam_widths:
                for side, run in enumerate(sides[w]):
                    t0 = time.perf_counter()
                    run()
                    best[w][side] = min(best[w][side],
                                        time.perf_counter() - t0)
        out[family] = {
            str(w): {"scalar_seconds": scalar / w,
                     "lockstep_seconds": lockstep / w,
                     "ratio": lockstep / scalar}
            for w, (scalar, lockstep) in best.items()}
    return out


def run_widths(*, quick: bool) -> Dict:
    """The break-even sweep over ``MICRO_CASES`` (quick: two cases and
    widths 1, 2 and each family's ``LOCKSTEP_MIN_WIDTH``)."""
    widths = {family: (sorted({1, 2, LOCKSTEP_MIN_WIDTH[family]})
                       if quick else list(WIDTHS))
              for family in LOCKSTEP_MIN_WIDTH}
    cases = []
    for name, build, config in MICRO_CASES:
        if quick and name not in QUICK_WIDTH_CASES:
            continue
        cases.append({"name": name,
                      **measure_widths_case(build(), config, widths,
                                            WIDTH_ROUNDS)})
    result = {"bench": "crossover_widths", "quick": quick,
              "rounds": WIDTH_ROUNDS, "widths": widths,
              "lockstep_min_width": dict(LOCKSTEP_MIN_WIDTH),
              "cases": cases}
    result["break_even"] = {family: break_even(result, family)
                            for family in widths}
    return result


def _width_ratios(result: Dict, family: str, width: int) -> List[float]:
    return [c[family][str(width)]["ratio"] for c in result["cases"]]


def break_even(result: Dict, family: str) -> Optional[int]:
    """Smallest swept width at which lockstep is no slower than the
    scalar loop on the median case and at most ``BREAK_EVEN_SLACK``
    slower on every case, or ``None``."""
    for width in result["widths"][family]:
        ratios = _width_ratios(result, family, width)
        if (statistics.median(ratios) <= 1.0
                and max(ratios) <= BREAK_EVEN_SLACK):
            return width
    return None


def apply_widths_gate(result: Dict) -> int:
    """``LOCKSTEP_MIN_WIDTH`` must sit where this sweep says lockstep
    starts to pay: not above a width-2 win, not below break-even."""
    failures = []
    for family, widths in result["widths"].items():
        lo = LOCKSTEP_MIN_WIDTH[family]
        if 2 in widths and 2 < lo:
            median = statistics.median(_width_ratios(result, family, 2))
            if median < 1.0:
                failures.append(
                    f"{family}: lockstep beats the scalar loop at width "
                    f"2 ({median:.2f}x on the median case), below "
                    f"LOCKSTEP_MIN_WIDTH {lo}")
        if lo not in widths:
            failures.append(f"{family}: LOCKSTEP_MIN_WIDTH {lo} was not "
                            f"swept")
            continue
        for case in result["cases"]:
            ratio = case[family][str(lo)]["ratio"]
            if ratio > BREAK_EVEN_SLACK:
                failures.append(
                    f"{family}: at LOCKSTEP_MIN_WIDTH {lo} lockstep costs "
                    f"{ratio:.2f}x the scalar loop on {case['name']}, "
                    f"over the {BREAK_EVEN_SLACK:.1f}x slack")
    if failures:
        for f in failures:
            print(f"WIDTHS GATE FAIL: {f}", file=sys.stderr)
        return 1
    print(f"widths gate: ok — scalar wins width 2 and lockstep is within "
          f"{BREAK_EVEN_SLACK:.1f}x at LOCKSTEP_MIN_WIDTH "
          f"{dict(LOCKSTEP_MIN_WIDTH)}")
    return 0


def render_widths(result: Dict) -> str:
    """Lockstep/scalar per-query wall ratio per case and width."""
    lines = []
    for family, widths in result["widths"].items():
        tier = "hive" if family == "dfs" else "swarm"
        lines.append(f"{family}: {tier} / scalar loop, per query")
        lines.append(f"{'case':<14s}" + "".join(f"{w:>7d}"
                                               for w in widths))
        for c in result["cases"]:
            lines.append(f"{c['name']:<14s}" + "".join(
                f"{c[family][str(w)]['ratio']:>7.2f}" for w in widths))
        for label, agg in (("median", statistics.median), ("worst", max)):
            lines.append(f"{label:<14s}" + "".join(
                f"{agg(_width_ratios(result, family, w)):>7.2f}"
                for w in widths))
        lines.append(f"break-even: {result['break_even'][family]} "
                     f"(LOCKSTEP_MIN_WIDTH {LOCKSTEP_MIN_WIDTH[family]})")
    return "\n".join(lines)


def append_trajectory(result: Dict) -> None:
    TRAJECTORY_PATH.parent.mkdir(parents=True, exist_ok=True)
    entry = dict(result)
    entry["timestamp"] = datetime.now(timezone.utc).isoformat(
        timespec="seconds")
    with TRAJECTORY_PATH.open("a", encoding="utf-8") as f:
        f.write(json.dumps(entry) + "\n")
    print(f"recorded -> {TRAJECTORY_PATH}")


def record_run(result: Dict) -> None:
    append_trajectory(result)
    path = write_calibration(fit_calibration(result))
    print(f"calibration -> {path}")


def render(result: Dict) -> str:
    lines = [f"{'case':<16s} {'n':>6s} {'levels':>6s} {'regime':<8s} "
             f"{'frontier':>10s} {'dfs/run':>10s} {'speedup':>8s} "
             f"{'swarm/root':>11s} {'sw-spdup':>9s} {'auto':>8s}"]
    for c in result["cases"]:
        flag = "*" if c["swarm_protocol"] == "interleaved" else " "
        lines.append(
            f"{c['name']:<16s} {c['n_vertices']:>6d} {c['n_levels']:>6d} "
            f"{c['regime']:<8s} {c['frontier_wall_seconds']*1e3:>8.2f}ms "
            f"{c['dfs_wall_seconds']*1e3:>8.2f}ms "
            f"{c['speedup_frontier_over_dfs']:>7.2f}x "
            f"{c['swarm_per_root_wall_seconds']*1e3:>9.3f}ms "
            f"{c['speedup_swarm_over_frontier']:>7.2f}x{flag} "
            f"{c['auto_backend']:>8s}")
    lines.append("(* = interleaved sequential baseline; others compare "
                 "against the single-root median)")
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="BFS-vs-DFS crossover sweep over a depth-controlled "
                    "corpus")
    parser.add_argument("--quick", action="store_true",
                        help="3-point depth axis, single repeat (with "
                             "--widths: two cases, widths 1, 2 and "
                             "LOCKSTEP_MIN_WIDTH)")
    parser.add_argument("--widths", action="store_true",
                        help="run the lockstep break-even sweep (scalar "
                             "loop vs hive/swarm per width on the micro "
                             "cases) instead of the crossover sweep")
    parser.add_argument("--repeats", type=int, default=3,
                        help="per-case repeats; the median wall is kept")
    parser.add_argument("--batch", type=int, default=32,
                        help="hive lockstep width; DFS cost is per run "
                             "(the width the calibration table's dfs "
                             "row prices)")
    parser.add_argument("--swarm-batch", type=int, default=256,
                        help="root-batch width for the swarm tier")
    parser.add_argument("--swarm-rounds", type=int, default=5,
                        help="interleaved best-of rounds for the swarm "
                             "protocol (quick mode drops to 3)")
    parser.add_argument("--gate", action="store_true",
                        help="fail unless frontier wins shallow >= "
                             f"{SPEEDUP_FLOOR:.0f}x, DFS wins deep, "
                             "auto picks the winner on both, swarm "
                             f"clears {SWARM_SPEEDUP_FLOOR:.0f}x per "
                             "root on the flagships, and calibrated "
                             "routing stays within "
                             f"{ROUTING_SLACK:.1f}x of best (with "
                             "--widths: unless the scalar loop wins "
                             "width 2 and lockstep is within "
                             f"{BREAK_EVEN_SLACK:.1f}x of it at "
                             "LOCKSTEP_MIN_WIDTH)")
    parser.add_argument("--record", action="store_true",
                        help="append to benchmarks/out/trajectory.jsonl "
                             "and (without --widths) refit benchmarks/"
                             "calibration_routing.json")
    parser.add_argument("--json", default=None,
                        help="write the full result payload to this file")
    args = parser.parse_args(argv)

    # Batch engines re-fault tens of MB of transient state per call
    # under the default allocator policy; retain the arena so the sweep
    # measures the engines, not the kernel's page zeroing.
    retain_large_blocks()

    if args.widths:
        result = run_widths(quick=args.quick)
        show, record, gate = (render_widths, append_trajectory,
                              apply_widths_gate)
    else:
        repeats = 1 if args.quick else max(1, args.repeats)
        swarm_rounds = (min(args.swarm_rounds, 3) if args.quick
                        else max(1, args.swarm_rounds))
        result = run_sweep(quick=args.quick, repeats=repeats,
                           batch=args.batch, swarm_batch=args.swarm_batch,
                           swarm_rounds=swarm_rounds)
        show, record, gate = render, record_run, apply_gate
    print(show(result))
    if args.json:
        pathlib.Path(args.json).write_text(
            json.dumps(result, indent=2, sort_keys=True) + "\n")
    if args.record:
        record(result)
    if args.gate:
        return gate(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
