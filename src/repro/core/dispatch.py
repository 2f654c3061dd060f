"""Backend dispatch: the paper's BFS/DFS crossover, productionized.

The crossover analysis says level-synchronous BFS wins on shallow-wide
graphs (few levels, huge frontiers) and collapses on deep ones (every
level pays a launch, and there are thousands); hierarchical work-
stealing DFS is the mirror image.  :func:`choose_backend` turns that
into a routing policy over the two answer families this repo has — the
DFS simulation (``"dfs"``) and the bit-packed BFS (``"frontier"``) —
keyed on the structural regime from
:func:`repro.graphs.properties.classify_regime`.

Routing rules, in order:

1. an explicit ``requested`` backend (``"dfs"``/``"frontier"``) wins;
2. under ``"auto"``, a query that carries engine-config overrides is
   pinned to ``"dfs"`` — a client that parameterizes grid shape, steal
   cutoffs, or schedule perturbation is asking for a specific DFS
   *simulation* (cycles, counters and all), which the frontier family
   cannot answer;
3. degenerate graphs (no vertices, a single vertex, or zero edges —
   which covers the all-isolated case) route straight to the frontier
   family without paying the regime BFS: every backend answers them in
   one trivial level, and the regime classifier's depth heuristics are
   meaningless on them;
4. with a calibration table available (fitted from
   ``bench_crossover.py --record`` artifacts, persisted at
   ``benchmarks/calibration_routing.json``), the family with the
   smallest *measured* per-query wall for the graph's regime wins; the
   table prices execution tiers, and a family costs its cheapest
   tier — ``frontier`` counts its ``swarm`` row only once
   ``batch_hint`` reaches the family's :data:`LOCKSTEP_MIN_WIDTH`;
5. otherwise the regime proxy: shallow graphs go to the frontier
   family and deep/mid graphs to DFS.

Decisions are pure functions of ``(regime, requested, overrides,
batch_hint, calibration)``, so a resolved backend is stable per graph
fingerprint — the serve layer caches the regime per resident graph and
bakes the resolved backend into result-cache keys.

How a family runs the batch it is handed is not the router's choice:
:func:`run_batch` runs a batch in lockstep (one hive batch or one
swarm) only from its family's :data:`LOCKSTEP_MIN_WIDTH` up — the
measured width at which lockstep stops costing more per query than the
scalar loop — and narrower batches task by task, so every caller gets
the same tier for the same batch.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, List, Mapping, Optional, Sequence, Tuple

from repro.errors import ReproError, SimulationError
from repro.graphs.csr import CSRGraph
from repro.sim.device import DeviceSpec, H100

__all__ = ["BACKENDS", "BACKEND_CHOICES", "LOCKSTEP_MIN_WIDTH",
           "BackendDecision", "choose_backend", "run_batch",
           "graph_regime", "calibration_path", "load_calibration"]

#: Engine families a query can resolve to.
BACKENDS = ("dfs", "frontier")

#: Valid values for the ``ServeConfig.backend`` knob / ``--backend`` flags.
BACKEND_CHOICES = ("auto",) + BACKENDS

#: Narrowest batch :func:`run_batch` runs in lockstep, per family: the
#: smallest width of ``bench_crossover.py --widths`` at which the
#: lockstep tier (hive, swarm) is no slower per query than the scalar
#: loop on the median micro case and at most 1.2x slower on every case
#: (docs/PERFORMANCE.md).  Below it a lockstep tick's fixed NumPy cost
#: has too few lanes to amortize over.
LOCKSTEP_MIN_WIDTH = {"dfs": 256, "frontier": 16}

#: Where ``bench_crossover.py --record`` persists the fitted table.
CALIBRATION_FILENAME = "calibration_routing.json"

# (path, mtime_ns) -> parsed table.  One stat per call keeps routing
# decisions hot-reloadable after a fresh --record without re-parsing.
_CALIBRATION_CACHE: dict = {}


@dataclass(frozen=True)
class BackendDecision:
    """One routing decision and why it was made."""

    backend: str      # "dfs" | "frontier"
    regime: str       # "deep" | "mid" | "shallow" | "degenerate" | "unknown"
    reason: str       # "forced" | "config-pinned" | "degenerate"
    #                 # | "calibrated" | "regime"


def graph_regime(graph: CSRGraph, root: int = 0) -> str:
    """Structural regime of ``graph`` (one BFS; cache per fingerprint)."""
    from repro.graphs.properties import regime

    return regime(graph, root)


def calibration_path() -> Path:
    """Default location of the persisted routing-calibration artifact."""
    return Path(__file__).resolve().parents[3] / "benchmarks" \
        / CALIBRATION_FILENAME


def load_calibration(path: Optional[Path] = None) -> Optional[dict]:
    """Parsed calibration table, or ``None`` when no artifact exists.

    The table maps regimes to measured per-run walls per execution tier
    (``dfs``, ``frontier``, ``swarm``; see ``bench_crossover.py
    --record``).  Results are cached per file
    mtime, so a fresh recording takes effect without a restart and a
    missing file costs one ``stat`` per decision.
    """
    path = Path(path) if path is not None else calibration_path()
    try:
        mtime = path.stat().st_mtime_ns
    except OSError:
        return None
    key = (str(path), mtime)
    if key not in _CALIBRATION_CACHE:
        try:
            table = json.loads(path.read_text())
        except (OSError, ValueError):
            return None
        if not isinstance(table, dict) or \
                not isinstance(table.get("regimes"), dict):
            return None
        _CALIBRATION_CACHE.clear()
        _CALIBRATION_CACHE[key] = table
    return _CALIBRATION_CACHE[key]


def _is_degenerate(graph: CSRGraph) -> bool:
    """No vertices, one vertex, or no edges (covers all-isolated)."""
    return graph.n_vertices <= 1 or graph.n_edges == 0


def _calibrated_choice(table: Mapping[str, Any], regime: str,
                       batch_hint: int) -> Optional[str]:
    """Cheapest measured family for ``regime``, or ``None``.

    Each family costs its cheapest measured tier row: ``frontier`` is
    the single-root engine, or the swarm once ``batch_hint`` reaches
    the frontier family's lockstep width.
    """
    entry = table.get("regimes", {}).get(regime)
    if not isinstance(entry, Mapping):
        return None
    lockstep = batch_hint >= LOCKSTEP_MIN_WIDTH["frontier"]
    tiers = {"dfs": ("dfs",),
             "frontier": ("frontier", "swarm") if lockstep else ("frontier",)}
    costs = {}
    for family, rows in tiers.items():
        walls = [float(entry[r]) for r in rows
                 if isinstance(entry.get(r), (int, float)) and entry[r] > 0]
        if walls:
            costs[family] = min(walls)
    if not costs:
        return None
    # Deterministic tie-break by declaration order.
    return min(costs, key=lambda b: (costs[b], BACKENDS.index(b)))


def choose_backend(graph: Optional[CSRGraph] = None, *,
                   requested: str = "auto",
                   overrides: Optional[Mapping[str, Any]] = None,
                   regime: Optional[str] = None,
                   batch_hint: int = 1,
                   calibration: Optional[Mapping[str, Any]] = None
                   ) -> BackendDecision:
    """Resolve the backend for one traversal query.

    ``regime`` short-circuits the BFS probe when the caller already
    profiled the graph (the serve layer memoizes it per resident
    entry); otherwise ``graph`` is profiled on the spot.  ``batch_hint``
    is how many same-graph roots the caller can coalesce into one
    engine invocation (the serve admission window, a bench batch); from
    ``LOCKSTEP_MIN_WIDTH["frontier"]`` up the frontier family is priced
    at its swarm row when that is cheaper.  ``calibration`` overrides the
    on-disk table (``None`` loads the default artifact; an empty mapping
    disables calibration).
    """
    if requested not in BACKEND_CHOICES:
        raise SimulationError(
            f"backend must be one of {BACKEND_CHOICES}, got {requested!r}")
    if requested != "auto":
        return BackendDecision(backend=requested,
                               regime=regime or "unknown",
                               reason="forced")
    if overrides:
        return BackendDecision(backend="dfs",
                               regime=regime or "unknown",
                               reason="config-pinned")
    if graph is not None and _is_degenerate(graph):
        return BackendDecision(backend="frontier", regime="degenerate",
                               reason="degenerate")
    if regime is None:
        if graph is None:
            raise SimulationError(
                "auto dispatch needs a graph or a precomputed regime")
        regime = graph_regime(graph)
    table = calibration if calibration is not None else load_calibration()
    if table:
        backend = _calibrated_choice(table, regime, batch_hint)
        if backend is not None:
            return BackendDecision(backend=backend, regime=regime,
                                   reason="calibrated")
    backend = "frontier" if regime == "shallow" else "dfs"
    return BackendDecision(backend=backend, regime=regime, reason="regime")


def run_batch(graph: CSRGraph, backend: str,
              tasks: Sequence[Tuple[int, Any]], *,
              device: DeviceSpec = H100,
              stats: Optional[dict] = None) -> List[Any]:
    """Run ``[(root, config), ...]`` on ``graph`` with one engine family.

    The one place that picks scalar or lockstep execution.  A batch at
    least its family's :data:`LOCKSTEP_MIN_WIDTH` wide runs as one hive
    batch (``backend="dfs"``, when the configs are hive-eligible and
    compatible) or as one swarm (``backend="frontier"``, which ignores
    the configs: a BFS answer does not depend on DFS simulation knobs);
    anything else runs task by task on the DFS driver or the single-root
    frontier engine.  Either lockstep engine is bit-identical per task
    to its scalar engine, so the choice only moves wall time.

    Returns one entry per task, in order: the engine result, or the
    :class:`~repro.errors.ReproError` that task raised.  A lockstep
    batch that raises is re-run task by task, so each error lands on
    the task that caused it.  ``stats`` receives ``"tier"`` — the tier
    whose results are returned (``"hive"``, ``"swarm"`` or
    ``"scalar"``, the last also after a lockstep error or an ineligible
    hive group) — plus the hive engine's execution-path accounting
    (:func:`repro.core.hive.run_hive`).  Engines are looked up at call
    time, so instrumented copies apply.
    """
    if backend not in BACKENDS:
        raise SimulationError(
            f"backend must be one of {BACKENDS}, got {backend!r}")
    out: Optional[List[Any]] = None
    tier = "scalar"
    if len(tasks) >= LOCKSTEP_MIN_WIDTH[backend]:
        try:
            if backend == "frontier":
                from repro.core import swarm

                out = swarm.run_swarm(graph, [root for root, _ in tasks])
                tier = "swarm"
            else:
                from repro.core import hive

                base = tasks[0][1]
                if all(hive.hive_eligible(c)
                       and hive.hive_compatible(base, c) for _, c in tasks):
                    out = hive.run_hive(graph, list(tasks), device=device,
                                        stats=stats)
                    tier = "hive"
        except ReproError:
            pass  # settle task by task below
    if stats is not None:
        stats["tier"] = tier
    if out is not None:
        return out
    if backend == "frontier":
        from repro.core import frontier

        def run(root, cfg):
            return frontier.run_frontier(graph, root)
    else:
        from repro.core import diggerbees

        def run(root, cfg):
            return diggerbees.run_diggerbees(graph, root, config=cfg,
                                             device=device)
    out = []
    for root, cfg in tasks:
        try:
            out.append(run(root, cfg))
        except ReproError as exc:
            out.append(exc)
    return out
