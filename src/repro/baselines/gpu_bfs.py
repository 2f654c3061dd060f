"""GPU BFS baselines: Gunrock-style and BerryBees-style (paper §4.3).

Both are level-synchronous: the traversal itself is computed exactly
(frontier-vectorized BFS producing ``visited`` + ``level``, the Table 2
output of these methods), and the *time* comes from the kernel cost
model of DESIGN.md §4.1::

    time = sum over levels [ kernel_launch + frontier_edges / throughput ]

This is the faithful abstraction for level-synchronous GPU algorithms,
and it is exactly what makes BFS collapse on deep graphs: 'euro_osm'
needs 17,346 launches in the paper, so launch overhead dominates however
fast each kernel streams — the regime where DiggerBees wins.

* **Gunrock** (Wang et al., PPoPP'16): general frontier-based engine;
  per-level cost has the full launch + load-balancing overhead.
* **BerryBees** (Niu & Casas, PPoPP'25): bit-tensor-core frontiers;
  modelled as a throughput multiplier on large frontiers plus a slightly
  cheaper per-level fixed cost (bitmap frontier generation avoids the
  queue compaction pass).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro.graphs.csr import CSRGraph
from repro.graphs.properties import bfs_levels
from repro.sim.device import DeviceSpec, H100
from repro.sim.metrics import mteps as _mteps
from repro.validate.reference import ROOT_PARENT, UNVISITED_PARENT, TraversalResult

__all__ = ["GpuBfsResult", "run_gunrock_bfs", "run_berrybees_bfs", "best_bfs"]


@dataclass(frozen=True)
class GpuBfsResult:
    """Outcome of a GPU BFS run (reachability + levels + timing)."""

    traversal: TraversalResult
    level: np.ndarray
    cycles: int
    seconds: float
    n_levels: int
    device: DeviceSpec
    method: str

    @property
    def mteps(self) -> float:
        return _mteps(self.traversal.edges_traversed, self.seconds)


def _frontier_edge_counts(graph: CSRGraph, level: np.ndarray) -> List[int]:
    """Edges expanded per BFS level (degree sum of each level's frontier).

    One int64 pass over the reached vertices, so the cost does not grow
    with the number of levels.
    """
    reached = level >= 0
    if not np.any(reached):
        return []
    lv = level[reached]
    counts = np.zeros(int(lv.max()) + 1, dtype=np.int64)
    np.add.at(counts, lv, graph.degree()[reached])
    return counts.tolist()


def _run_bfs(graph: CSRGraph, root: int, device: DeviceSpec, sim_scale: float,
             method: str) -> GpuBfsResult:
    graph._check_vertex(root)
    level = bfs_levels(graph, root)
    per_level_edges = _frontier_edge_counts(graph, level)
    n_levels = len(per_level_edges)
    costs = device.costs
    sms = max(1, device.default_blocks(sim_scale))

    cycles = 0.0
    if method == "BerryBees":
        # Bitmap frontier: cheaper fixed per-level cost, and the
        # bit-tensor-core formulation multiplies streaming throughput on
        # wide frontiers (its advantage vanishes on tiny frontiers).
        launch = 0.8 * costs.kernel_launch
        for fe in per_level_edges:
            width_bonus = costs.bfs_bitmap_speedup if fe >= 4 * sms else 1.0
            throughput = costs.bfs_edge_throughput * width_bonus * sms
            cycles += launch + fe / throughput
    else:
        launch = costs.kernel_launch
        throughput = costs.bfs_edge_throughput * sms
        for fe in per_level_edges:
            cycles += launch + fe / throughput
    cycles = int(cycles) if n_levels else costs.kernel_launch

    visited = level >= 0
    n = graph.n_vertices
    parent = np.full(n, UNVISITED_PARENT, dtype=np.int64)
    parent[root] = ROOT_PARENT  # reachability + level output only (Table 2)
    edges = int(sum(per_level_edges))
    traversal = TraversalResult(
        root=root,
        visited=visited,
        parent=parent,
        order=np.empty(0, dtype=np.int64),
        edges_traversed=edges,
    )
    return GpuBfsResult(
        traversal=traversal,
        level=level,
        cycles=int(cycles),
        seconds=device.cycles_to_seconds(int(cycles)),
        n_levels=n_levels,
        device=device,
        method=method,
    )


def run_gunrock_bfs(graph: CSRGraph, root: int, *, device: DeviceSpec = H100,
                    sim_scale: float = 1.0) -> GpuBfsResult:
    """Gunrock-style frontier BFS under the kernel cost model."""
    return _run_bfs(graph, root, device, sim_scale, "Gunrock")


def run_berrybees_bfs(graph: CSRGraph, root: int, *, device: DeviceSpec = H100,
                      sim_scale: float = 1.0) -> GpuBfsResult:
    """BerryBees-style bit-tensor-core BFS under the kernel cost model."""
    return _run_bfs(graph, root, device, sim_scale, "BerryBees")


def best_bfs(graph: CSRGraph, root: int, *, device: DeviceSpec = H100,
             sim_scale: float = 1.0) -> GpuBfsResult:
    """The better-performing of the two BFS baselines (paper Figure 6's
    'Best BFS' series)."""
    g = run_gunrock_bfs(graph, root, device=device, sim_scale=sim_scale)
    b = run_berrybees_bfs(graph, root, device=device, sim_scale=sim_scale)
    return g if g.cycles <= b.cycles else b
