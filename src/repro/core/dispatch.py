"""Backend dispatch: the paper's BFS/DFS crossover, productionized.

The crossover analysis (the paper's Figure 6) says level-synchronous
BFS pays a fixed cost per level, so it wins where every level holds
plenty of work and collapses where thousands of levels hold a vertex or
two each; hierarchical work-stealing DFS is the mirror image.
:func:`choose_backend` turns that into a routing rule over the two
answer families this repo has — the DFS simulation (``"dfs"``) and the
bit-packed BFS (``"frontier"``) — keyed on BFS levels per vertex.

Routing rules, in order:

1. an explicit ``requested`` backend (``"dfs"``/``"frontier"``) wins;
2. under ``"auto"``, a query that carries engine-config overrides is
   pinned to ``"dfs"`` — a client that parameterizes grid shape, steal
   cutoffs, or schedule perturbation is asking for a specific DFS
   *simulation* (cycles, counters and all), which the frontier family
   cannot answer;
3. degenerate graphs (no vertices, a single vertex, or zero edges —
   which covers the all-isolated case) route straight to the frontier
   family without paying the BFS probe: every backend answers them in
   one trivial level;
4. otherwise the query goes to ``"dfs"`` exactly when the BFS from
   vertex 0 has at least :data:`DFS_MIN_LEVELS_PER_VERTEX` ``· n``
   levels — :func:`graph_regime` labels such a graph ``"narrow"`` and
   any other ``"wide"``.

Every query is priced as if it runs alone (width 1).  The family
decides the payload's tree and results are cached per family, so the
decision cannot depend on how many queries happen to coalesce; width 1
is also the one width at which the routed family is never slower than
the scalar alternative.  Decisions are pure functions of ``(regime,
requested, overrides)``, so a resolved backend is stable per graph
fingerprint — the serve layer memoizes the regime per resident graph
and bakes the resolved backend into result-cache keys.

How a family runs the batch it is handed is not the router's choice:
:func:`run_batch` runs a frontier-family batch as one lockstep swarm
only from :data:`SWARM_MIN_WIDTH` up — the measured width at which the
swarm stops costing more per query than the single-root engine — and
every other batch task by task (DFS batches always run on the fused
scalar loop), so every caller gets the same tier for the same batch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Mapping, Optional, Sequence, Tuple

from repro.errors import ReproError, SimulationError
from repro.graphs.csr import CSRGraph

__all__ = ["BACKENDS", "BACKEND_CHOICES", "DFS_MIN_LEVELS_PER_VERTEX",
           "SWARM_MIN_WIDTH", "BackendDecision", "choose_backend",
           "run_batch", "graph_regime"]

#: Engine families a query can resolve to.
BACKENDS = ("dfs", "frontier")

#: Valid values for the ``ServeConfig.backend`` knob / ``--backend`` flags.
BACKEND_CHOICES = ("auto",) + BACKENDS

#: Narrowest frontier-family batch :func:`run_batch` runs as one swarm:
#: the smallest width of ``bench_crossover.py --widths`` at which the
#: swarm is no slower per query than the single-root frontier engine on
#: the median micro case and at most 1.2x slower on every case
#: (docs/PERFORMANCE.md).  Below it a level's fixed NumPy cost has too
#: few lanes to amortize over.  The DFS family has no lockstep tier.
SWARM_MIN_WIDTH = 16

#: BFS levels per vertex (from vertex 0) from which an override-free
#: query routes to the DFS family.  ``bench_crossover.py`` times both
#: families at width 1: on its skewed_tree points the frontier engine
#: is the faster family at 0.138 levels per vertex and DFS at 0.224;
#: 0.18 sits between the two (docs/PERFORMANCE.md).
DFS_MIN_LEVELS_PER_VERTEX = 0.18


@dataclass(frozen=True)
class BackendDecision:
    """One routing decision and why it was made."""

    backend: str      # "dfs" | "frontier"
    regime: str       # "narrow" | "wide" | "degenerate" | "unknown"
    reason: str       # "forced" | "config-pinned" | "degenerate" | "regime"


def graph_regime(graph: CSRGraph, root: int = 0) -> str:
    """``"narrow"`` when the BFS from ``root`` has at least
    :data:`DFS_MIN_LEVELS_PER_VERTEX` levels per vertex, else
    ``"wide"`` (one BFS; cache per fingerprint)."""
    from repro.graphs.properties import num_bfs_levels

    n = graph.n_vertices
    if n and num_bfs_levels(graph, root) >= DFS_MIN_LEVELS_PER_VERTEX * n:
        return "narrow"
    return "wide"


def _is_degenerate(graph: CSRGraph) -> bool:
    """No vertices, one vertex, or no edges (covers all-isolated)."""
    return graph.n_vertices <= 1 or graph.n_edges == 0


def choose_backend(graph: Optional[CSRGraph] = None, *,
                   requested: str = "auto",
                   overrides: Optional[Mapping[str, Any]] = None,
                   regime: Optional[str] = None,
                   batch_hint: int = 1) -> BackendDecision:
    """Resolve the backend for one traversal query.

    ``regime`` (a :func:`graph_regime` label) short-circuits the BFS
    probe when the caller already profiled the graph (the serve layer
    memoizes it per resident entry); otherwise ``graph`` is profiled on
    the spot.  ``batch_hint`` is accepted and ignored: every query is
    priced as if it runs alone.
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
    backend = "dfs" if regime == "narrow" else "frontier"
    return BackendDecision(backend=backend, regime=regime, reason="regime")


def run_batch(graph: CSRGraph, backend: str,
              tasks: Sequence[Tuple[int, Any]]) -> List[Any]:
    """Run ``[(root, config), ...]`` on ``graph`` with one engine family.

    The one place that picks scalar or lockstep execution.  A
    ``backend="frontier"`` batch at least :data:`SWARM_MIN_WIDTH` wide
    runs as one swarm (which ignores the configs: a BFS answer does not
    depend on DFS simulation knobs); anything else runs task by task on
    the fused DFS loop or the single-root frontier engine.  The swarm
    is bit-identical per task to the single-root engine, so the choice
    only moves wall time.

    Returns one entry per task, in order: the engine result, or the
    :class:`~repro.errors.ReproError` that task raised.  A swarm that
    raises is re-run task by task, so each error lands on the task that
    caused it.  Engines are looked up at call time, so instrumented
    copies apply.
    """
    if backend not in BACKENDS:
        raise SimulationError(
            f"backend must be one of {BACKENDS}, got {backend!r}")
    if backend == "frontier" and len(tasks) >= SWARM_MIN_WIDTH:
        from repro.core import swarm

        try:
            return swarm.run_swarm(graph, [root for root, _ in tasks])
        except ReproError:
            pass  # settle task by task below
    if backend == "frontier":
        from repro.core import frontier

        def run(root, cfg):
            return frontier.run_frontier(graph, root)
    else:
        from repro.core import diggerbees

        def run(root, cfg):
            return diggerbees.run_diggerbees(graph, root, config=cfg)
    out = []
    for root, cfg in tasks:
        try:
            out.append(run(root, cfg))
        except ReproError as exc:
            out.append(exc)
    return out
