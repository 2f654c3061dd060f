"""Sharded execution tier: one engine per district, rounds over cut edges.

This lifts the paper's inter-block steal protocol one level up.  A
:class:`~repro.graphs.partition.PartitionedCSR` splits the graph into
``k`` balanced districts (:mod:`repro.graphs.partition`); each district
runs its own DiggerBees engine (turbo/fastpath, selected exactly as in
:func:`repro.core.diggerbees.run_diggerbees`) over the *unvisited* part
of its subgraph, and a message-passing round protocol over the cut-edge
halo tables replaces inter-block leader steals at the top level:

1. **Round** — every district holding activation roots runs one engine
   over the induced subgraph of its unvisited vertices.  A *virtual
   super-root* (local vertex 0) wired to that round's activation roots
   models the leader warp injecting stolen work, so a single engine run
   drains all activations at once.  District runs within a round are
   independent and fan out over the persistent worker pool
   (:func:`repro.bench.harness.lease_pool`), each district's subgraph
   exported once into shared memory (:mod:`repro.graphs.shm`).
2. **Barrier** — newly visited vertices are merged; cut arcs leaving
   them become messages.  A message whose target is still unvisited is
   a *delivered activation*: the target becomes one of the receiving
   district's roots next round.  Delivered activations are accounted as
   remote steals (``remote_steal_successes`` / ``_entries``) and priced
   with the device's NVLink cost table (``steal_remote_base`` per
   communicating district pair, ``steal_remote_per_entry`` per
   activation).
3. **Termination** — no activations survive the barrier.

Modeled time is ``sum over rounds of (max district cycles + barrier
communication)`` — the makespan of a fleet of k devices running in
lockstep rounds.

Merged results are *canonical*: a schedule-dependent DFS parent array
cannot be simultaneously partition-invariant and equal to any one
engine's steal schedule (lexicographic DFS is P-complete — there is no
shortcut), so the sharded tier reports the repository's established
order-independent tree instead: ``visited`` is bit-identical to the
unsharded engines (it is the reachable set), ``parent`` is the
deterministic min-parent tree over BFS levels (the same canonical tree
:mod:`repro.core.frontier` emits, pinned by oracle rung 5e), ``levels``
are hop distances, and ``edges_traversed`` equals the unsharded
engines' count (every visited vertex's adjacency is inspected exactly
once, in exactly one district-round).  The whole result is therefore
bit-identical across every ``k`` and every ``jobs`` value, which is
what lets it slot into the differential-oracle ladder (rung 5f).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.config import DiggerBeesConfig
from repro.core.diggerbees import run_diggerbees
from repro.errors import SimulationError
from repro.graphs.csr import CSRGraph, from_edges
from repro.graphs.partition import PartitionedCSR, partition_graph
from repro.sim.device import DeviceSpec, H100
from repro.sim.engine import EngineResult
from repro.sim.metrics import mteps as _mteps
from repro.sim.trace import SimCounters
from repro.validate.reference import (
    ROOT_PARENT,
    UNVISITED_PARENT,
    TraversalResult,
)

__all__ = ["ShardedResult", "run_sharded", "sharded_levels",
           "canonical_parent"]

_IDX = np.int64


# ----------------------------------------------------------------------
# Canonical merge oracles (levels + min-parent tree), computed shard-wise
# ----------------------------------------------------------------------
def sharded_levels(part: PartitionedCSR, root: int) -> np.ndarray:
    """Hop distance from ``root`` per vertex (-1 unreachable), computed
    as a distributed level-synchronous BFS: districts expand their local
    frontier over internal arcs and exchange cut-arc candidates at each
    level barrier.  Equals ``graphs.properties.bfs_levels`` exactly.
    """
    graph = part.graph
    n = graph.n_vertices
    level = np.full(n, -1, dtype=_IDX)
    level[root] = 0
    frontiers: Dict[int, np.ndarray] = {
        int(part.labels[root]): np.array([part.local_ids[root]], dtype=_IDX)
    }
    depth = 0
    while frontiers:
        depth += 1
        candidates: List[np.ndarray] = []
        for d, local_front in frontiers.items():
            dist = part.districts[d]
            sub = dist.subgraph
            rp, ci = sub.row_ptr, sub.column_idx
            starts, ends = rp[local_front], rp[local_front + 1]
            deg = ends - starts
            total = int(deg.sum())
            if total:
                # Gather all adjacency slices in one vectorized pass:
                # element j of the output is ci[starts[v] + offset] for
                # the v-th frontier vertex it falls under.
                base = np.repeat(starts - np.concatenate(
                    ([0], np.cumsum(deg)[:-1])), deg)
                out = ci[base + np.arange(total, dtype=_IDX)]
                candidates.append(dist.global_ids[np.unique(out)])
            if dist.cut_src_local.size:
                in_front = np.zeros(sub.n_vertices, dtype=bool)
                in_front[local_front] = True
                candidates.append(dist.cut_dst_global[
                    in_front[dist.cut_src_local]])
        if not candidates:
            break
        cand = np.unique(np.concatenate(candidates))
        new = cand[level[cand] < 0]
        if new.size == 0:
            break
        level[new] = depth
        frontiers = {}
        for d in np.unique(part.labels[new]):
            members = new[part.labels[new] == d]
            frontiers[int(d)] = part.local_ids[members]
    return level


def canonical_parent(part: PartitionedCSR, levels: np.ndarray,
                     root: int) -> np.ndarray:
    """Deterministic min-parent tree over ``levels``, computed shard-wise.

    ``parent[v]`` is the smallest global id ``u`` with a stored arc
    ``u -> v`` and ``levels[u] == levels[v] - 1`` — the same canonical
    tree as :func:`repro.core.frontier.min_parent_tree`, but scattered
    per district (internal arcs from each subgraph, cross arcs from the
    halo tables) so no global edge array is materialized.
    """
    n = part.graph.n_vertices
    big = np.iinfo(_IDX).max
    best = np.full(n, big, dtype=_IDX)
    for dist in part.districts:
        sub = dist.subgraph
        if sub.n_edges:
            src_l = np.repeat(np.arange(sub.n_vertices, dtype=_IDX),
                              np.diff(sub.row_ptr))
            src_g = dist.global_ids[src_l]
            dst_g = dist.global_ids[sub.column_idx]
            m = (levels[src_g] >= 0) & (levels[src_g] + 1 == levels[dst_g])
            np.minimum.at(best, dst_g[m], src_g[m])
        if dist.cut_src_global.size:
            cs, cd = dist.cut_src_global, dist.cut_dst_global
            m = (levels[cs] >= 0) & (levels[cs] + 1 == levels[cd])
            np.minimum.at(best, cd[m], cs[m])
    parent = np.full(n, UNVISITED_PARENT, dtype=_IDX)
    reached = levels >= 0
    parent[reached] = np.where(best[reached] == big, UNVISITED_PARENT,
                               best[reached])
    parent[root] = ROOT_PARENT
    if np.any(reached & (parent == UNVISITED_PARENT)):
        bad = np.flatnonzero(reached & (parent == UNVISITED_PARENT))
        raise SimulationError(
            f"canonical parent undefined for reached vertices "
            f"{bad[:8].tolist()}")
    return parent


# ----------------------------------------------------------------------
# District round execution (runs in pool workers)
# ----------------------------------------------------------------------
def _run_district_round(payload) -> tuple:
    """One district, one round: engine over the unvisited induced
    subgraph behind a virtual super-root.  Module-level so the
    process-pool fan-out can pickle it; the district subgraph arrives
    as a shared-memory spec (attached + cached worker-side) or, on the
    pickle fallback, as the graph itself.
    """
    from repro.bench.harness import _resolve_task_graph

    sub_or_spec, unvisited, roots, config, device = payload
    sub = _resolve_task_graph(sub_or_spec)
    unvisited = np.asarray(unvisited, dtype=_IDX)
    roots = np.asarray(roots, dtype=_IDX)
    # Local id -> virtual-graph id (0 is the super-root).
    pos = np.full(sub.n_vertices, -1, dtype=_IDX)
    pos[unvisited] = np.arange(unvisited.size, dtype=_IDX) + 1
    src = np.repeat(np.arange(sub.n_vertices, dtype=_IDX),
                    np.diff(sub.row_ptr))
    dst = sub.column_idx
    m = (pos[src] > 0) & (pos[dst] > 0)
    internal = np.column_stack([pos[src[m]], pos[dst[m]]])
    virt = np.column_stack([np.zeros(roots.size, dtype=_IDX),
                            pos[roots]])
    vgraph = from_edges(int(unvisited.size) + 1,
                        np.vstack([virt, internal]),
                        directed=sub.directed, name=f"{sub.name}#round")
    res = run_diggerbees(vgraph, 0, config=config, device=device)
    newly = unvisited[res.traversal.visited[1:]]
    return newly, res.cycles, res.engine.steps, res.counters, int(roots.size)


def _merge_counters(agg: SimCounters, run: SimCounters, n_roots: int,
                    block_offset: int) -> None:
    """Fold one district run into the aggregate, dropping the virtual
    super-root's own artifacts (its claim, push/pop, and the ``n_roots``
    activation-arc inspections) so merged totals match an unsharded run.
    """
    agg.edges_traversed += run.edges_traversed - n_roots
    agg.vertices_visited += run.vertices_visited - 1
    agg.pushes += run.pushes - 1
    agg.pops += run.pops - 1
    for name in ("flushes", "flush_entries", "refills", "refill_entries",
                 "coldseg_compactions", "intra_steal_attempts",
                 "intra_steal_successes", "intra_steal_entries",
                 "inter_steal_attempts", "inter_steal_successes",
                 "inter_steal_entries", "cas_attempts", "cas_failures",
                 "idle_polls"):
        setattr(agg, name, getattr(agg, name) + getattr(run, name))
    agg.max_hot_depth = max(agg.max_hot_depth, run.max_hot_depth)
    agg.max_cold_depth = max(agg.max_cold_depth, run.max_cold_depth)
    for block, count in run.tasks_per_block.items():
        key = block_offset + block
        agg.tasks_per_block[key] = agg.tasks_per_block.get(key, 0) + count
    for (block, warp), count in run.tasks_per_warp.items():
        key = (block_offset + block, warp)
        agg.tasks_per_warp[key] = agg.tasks_per_warp.get(key, 0) + count


# ----------------------------------------------------------------------
# Result type + driver
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ShardedResult:
    """Merged outcome of one sharded traversal.

    Mirrors :class:`~repro.core.diggerbees.DiggerBeesResult` (traversal,
    cycles, seconds, counters, engine) so it drops into the same report
    paths, and adds the shard-tier extras: the partition, per-round
    protocol stats, and canonical BFS levels.
    """

    traversal: TraversalResult
    levels: np.ndarray
    cycles: int
    seconds: float
    counters: SimCounters
    config: DiggerBeesConfig
    device: DeviceSpec
    engine: EngineResult
    partition: PartitionedCSR
    rounds: Tuple[dict, ...] = field(default_factory=tuple)
    jobs: int = 1

    @property
    def k(self) -> int:
        return self.partition.k

    @property
    def mteps(self) -> float:
        return _mteps(self.traversal.edges_traversed, self.seconds)

    @property
    def n_visited(self) -> int:
        return self.traversal.n_visited

    @property
    def n_rounds(self) -> int:
        return len(self.rounds)

    def summary(self) -> dict:
        c = self.counters
        return {
            "mteps": self.mteps,
            "cycles": self.cycles,
            "seconds": self.seconds,
            "visited": self.n_visited,
            "edges": self.traversal.edges_traversed,
            "k": self.k,
            "rounds": self.n_rounds,
            "remote_steals": c.remote_steal_successes,
            "remote_steal_entries": c.remote_steal_entries,
            "intra_steals": c.intra_steal_successes,
            "inter_steals": c.inter_steal_successes,
            "engine_steps": self.engine.steps,
            **{f"partition_{key}": val
               for key, val in self.partition.quality().items()
               if key != "district_sizes"},
        }


def run_sharded(
    graph: CSRGraph,
    root: int,
    *,
    config: Optional[DiggerBeesConfig] = None,
    k: int = 2,
    partition: Optional[PartitionedCSR] = None,
    partition_seed: int = 0,
    jobs: int = 1,
    device: DeviceSpec = H100,
) -> ShardedResult:
    """Traverse ``graph`` from ``root`` across ``k`` concurrent districts.

    ``partition`` short-circuits the partitioner (callers reusing one
    :class:`PartitionedCSR` across roots, as ``bench_shard.py`` does);
    otherwise a seeded partition is computed.  ``jobs > 1`` fans
    district runs of each round out over the persistent worker pool;
    results are bit-identical for every ``jobs`` and every ``k``.
    """
    graph._check_vertex(root)
    config = config or DiggerBeesConfig()
    if partition is not None:
        if partition.graph.n_vertices != graph.n_vertices:
            raise SimulationError(
                f"partition is over a {partition.graph.n_vertices}-vertex "
                f"graph, got {graph.n_vertices} vertices")
        part = partition
    else:
        part = partition_graph(graph, k, seed=partition_seed)
    n = graph.n_vertices
    costs = device.costs
    visited = np.zeros(n, dtype=bool)
    counters = SimCounters()
    total_cycles = 0
    total_steps = 0
    rounds: List[dict] = []
    # Activation inboxes: district -> sorted local root ids.
    inbox: Dict[int, np.ndarray] = {
        int(part.labels[root]): np.array([part.local_ids[root]], dtype=_IDX)
    }
    use_pool = jobs > 1 and part.k > 1
    pool_handle = None
    exported: Dict[int, object] = {}
    wire_subs: Dict[int, object] = {
        d.index: d.subgraph for d in part.districts}
    try:
        if use_pool:
            from repro.bench.harness import lease_pool

            try:
                from repro.graphs.shm import export_csr

                for d in part.districts:
                    handle = export_csr(d.subgraph)
                    exported[d.index] = handle
                    wire_subs[d.index] = handle.spec
            except Exception:
                for handle in exported.values():
                    handle.close()
                exported = {}
                wire_subs = {d.index: d.subgraph for d in part.districts}
            pool_handle = lease_pool(jobs)
        while inbox:
            active = sorted(inbox)
            # Ship shm specs only on the fan-out path: resolving a spec
            # inline would attach segments into the parent's own worker
            # cache, whose views then outlive the handles at shutdown.
            fan_out = pool_handle is not None and len(active) > 1
            payloads = []
            for d in active:
                dist = part.districts[d]
                local_unvisited = np.flatnonzero(
                    ~visited[dist.global_ids]).astype(_IDX)
                sub = wire_subs[d] if fan_out else dist.subgraph
                payloads.append((sub, local_unvisited, inbox[d],
                                 config, device))
            if fan_out:
                try:
                    outs = list(pool_handle.executor.map(
                        _run_district_round, payloads))
                except Exception:
                    from repro.bench.harness import release_pool

                    release_pool(pool_handle, broken=True)
                    pool_handle = None
                    raise
            else:
                outs = [_run_district_round(p) for p in payloads]
            round_cycles = 0
            newly_global: List[np.ndarray] = []
            for d, out in zip(active, outs):
                newly, cycles, steps, run_counters, n_roots = out
                dist = part.districts[d]
                newly_global.append(dist.global_ids[newly])
                round_cycles = max(round_cycles, cycles)
                total_steps += steps
                _merge_counters(counters, run_counters, n_roots,
                                d * config.n_blocks)
            new_mask = np.zeros(n, dtype=bool)
            for arr in newly_global:
                new_mask[arr] = True
            if np.any(new_mask & visited):
                dup = np.flatnonzero(new_mask & visited)
                raise SimulationError(
                    f"round protocol revisited vertices "
                    f"{dup[:8].tolist()}")
            visited |= new_mask
            # Barrier: scan cut arcs leaving newly visited vertices.
            inbox = {}
            n_messages = 0
            delivered_global: List[np.ndarray] = []
            pairs = set()
            for d in active:
                dist = part.districts[d]
                if dist.cut_src_global.size == 0:
                    continue
                m = new_mask[dist.cut_src_global]
                if not np.any(m):
                    continue
                n_messages += int(np.count_nonzero(m))
                targets_g = dist.cut_dst_global[m]
                targets_d = dist.cut_dst_district[m]
                live = ~visited[targets_g]
                if not np.any(live):
                    continue
                delivered_global.append(targets_g[live])
                for dd in np.unique(targets_d[live]):
                    pairs.add((d, int(dd)))
            # Emitting a message IS the inspection of that cut arc: each
            # stored arc out of a visited vertex is scanned exactly once
            # (internal arcs by the district engine, cut arcs here), so
            # merged edges_traversed matches the unsharded engines.
            counters.edges_traversed += n_messages
            delivered = (np.unique(np.concatenate(delivered_global))
                         if delivered_global else np.empty(0, dtype=_IDX))
            for d in np.unique(part.labels[delivered]):
                members = delivered[part.labels[delivered] == d]
                inbox[int(d)] = np.sort(part.local_ids[members])
            comm_cycles = 0
            if delivered.size:
                counters.remote_steal_successes += len(pairs)
                counters.remote_steal_entries += int(delivered.size)
                comm_cycles = (len(pairs) * costs.steal_remote_base
                               + int(delivered.size)
                               * costs.steal_remote_per_entry)
            total_cycles += round_cycles + comm_cycles
            rounds.append({
                "round": len(rounds),
                "active_districts": active,
                "newly_visited": int(np.count_nonzero(new_mask)),
                "cut_messages": n_messages,
                "delivered_activations": int(delivered.size),
                "district_pairs": len(pairs),
                "engine_cycles": int(round_cycles),
                "comm_cycles": int(comm_cycles),
            })
    finally:
        if pool_handle is not None:
            from repro.bench.harness import release_pool

            release_pool(pool_handle)
        for handle in exported.values():
            handle.close()

    # Canonical merge: reachable set + deterministic min-parent tree.
    levels = sharded_levels(part, root)
    if not np.array_equal(levels >= 0, visited):
        raise SimulationError(
            "sharded visited set disagrees with level-sync reachability")
    parent = canonical_parent(part, levels, root)
    edges = int(np.diff(graph.row_ptr)[visited].sum())
    if counters.edges_traversed != edges:
        raise SimulationError(
            f"aggregated edge inspections ({counters.edges_traversed}) != "
            f"sum of visited out-degrees ({edges}); a district expanded "
            f"a vertex twice or skipped one")
    if counters.vertices_visited != int(np.count_nonzero(visited)):
        raise SimulationError(
            f"aggregated vertex claims ({counters.vertices_visited}) != "
            f"visited count ({int(np.count_nonzero(visited))})")
    traversal = TraversalResult(
        root=root,
        visited=visited,
        parent=parent,
        order=np.empty(0, dtype=_IDX),
        edges_traversed=edges,
    )
    engine = EngineResult(
        cycles=total_cycles,
        steps=total_steps,
        agents=config.n_blocks * config.warps_per_block * part.k,
    )
    return ShardedResult(
        traversal=traversal,
        levels=levels,
        cycles=total_cycles,
        seconds=device.cycles_to_seconds(total_cycles),
        counters=counters,
        config=config,
        device=device,
        engine=engine,
        partition=part,
        rounds=tuple(rounds),
        jobs=jobs,
    )
