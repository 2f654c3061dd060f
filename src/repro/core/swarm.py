"""Swarm frontier: lockstep direction-optimizing BFS over many roots.

This is the repo's one lockstep tier: B traversals of the *same* graph
advance level-synchronously together, one NumPy pass per level serving
every live root.  All per-root state is kept
*lane-transposed* so a 64-lane word is the unit of work:

* ``visited_T`` is an ``(n, lane-words)`` uint64 bit-matrix — row ``v``
  packs "which lanes have visited ``v``", so one AND over a shared edge
  list resolves 64 lanes at a time;
* ``parent_T`` / ``level_T`` are ``(n, B)`` matrices, so the
  destination-sorted winner scatters stream through memory row by row;
* the frontier is a flat lane-tagged ``(vertex, lane)`` pair list plus
  its transposed bit image ``front_T``, refreshed incrementally (only
  rows touched at the last commit are ever cleared).

Each level runs two grouped passes over the live lanes:

* **push** — the union of all pushing lanes' frontiers is gathered from
  CSR once; each lane's edges are carved out of that shared adjacency
  slab by per-root membership (a searchsorted slice map), then one
  combined min-reduction over ``(lane, dst)`` keys picks every lane's
  parents at once;
* **pull** — one SpMV-style gather over the union of the pulling lanes'
  unvisited sets, then a vectorized ``front_T[src] & ~visited_T[dst]``
  AND resolves every lane's active pull edges at once.  A segmented
  prefix-OR (Hillis-Steele over the lane words) down each
  ``(dst, src)``-sorted adjacency run isolates each lane's *first*
  active source — exactly the min-parent tie-break — so winners expand
  to pairs straight from the packed first-occurrence bits, with no
  per-lane Python loop and no per-edge claim scatter.

The two passes compute the same discovery relation (unvisited vertices
adjacent to the frontier, parented by the minimum frontier source), so
*which* pass serves a lane is a cost choice, not a semantic one.  When
the pushing lanes' combined frontier edge mass exceeds the whole arc
array, carving per-lane adjacency slabs costs more than the packed
pull pass the pulling lanes are already paying for — so those push
lanes **fold into the pull pass**: their lane bits join the same AND /
prefix-OR sweep at zero marginal cost, while their counters still
record a push with push edge mass (the direction decision is
semantics; the shared sweep is mechanism).

Beamer's alpha/beta direction switch runs *per lane* on exactly the
quantities the single-root engine uses (frontier edge mass, unvisited
edge mass, frontier size); both operands are carried forward from the
winner commit, so mega-frontier levels never pay a fresh reduction.
On commits both operands fall out of the discovery pair stream as two
lane bincounts (float64 sums of int64 degrees, exact).  The min-parent
tie-break matches the single-root ``_min_per_dst`` reduction — so
every lane's ``visited`` / ``level`` / ``parent`` / push-pull/edge
counters are **bit-identical** to a single-root
:func:`repro.core.frontier.run_frontier` from the same root.  Finished
roots retire by compaction: their entries simply drop out of the flat
frontier, so late levels only pay for the lanes still alive.

``seconds`` on each returned result is the batch wall clock divided by
the number of roots — the amortized per-root cost, which is the number
the crossover sweep and the serve router care about.

Directed graphs run push-only for the same reason as the single-root
engine (the pull gather reads rows as in-edges, valid only on symmetric
CSR).
"""

from __future__ import annotations

import time
from typing import List, Optional, Sequence

import numpy as np

from repro.core import bitset
from repro.core.frontier import (
    ALPHA,
    BETA,
    FrontierConfig,
    FrontierResult,
    _gather,
    _min_per_dst,
)
from repro.graphs.csr import CSRGraph
from repro.validate.reference import (
    ROOT_PARENT,
    TraversalResult,
    UNVISITED_PARENT,
)

__all__ = ["run_swarm"]


def run_swarm(graph: CSRGraph, roots: Sequence[int], *,
              config: Optional[FrontierConfig] = None
              ) -> List[FrontierResult]:
    """Traverse ``graph`` from every root in ``roots``, lockstep.

    Returns one :class:`FrontierResult` per root, in input order; each
    is bit-identical (visited / level / parent / counters) to a
    single-root :func:`repro.core.frontier.run_frontier` from that
    root.  Duplicate roots are fine — lanes are fully independent.
    """
    config = config or FrontierConfig()
    roots = np.asarray(list(roots), dtype=np.int64)
    if roots.size and (int(roots.min()) < 0
                       or int(roots.max()) >= graph.n_vertices):
        bad = roots[(roots < 0) | (roots >= graph.n_vertices)][0]
        graph._check_vertex(int(bad))
    B = roots.size
    if B == 0:
        return []

    n = graph.n_vertices
    rp, ci = graph.row_ptr, graph.column_idx
    deg = (rp[1:] - rp[:-1]).astype(np.int64)
    mode = "push" if graph.directed else config.mode
    neighbors_sorted = bool(graph.meta.get("sorted_neighbors", False))
    total_arcs = int(ci.size)

    t0 = time.perf_counter()
    lanes0 = np.arange(B, dtype=np.int64)
    visited_T = bitset.empty_bitmatrix(n, B)
    bitset.set_bits_2d(visited_T, roots, lanes0)
    # Parent and level interleave in one ``(n, B, 2)`` block: a
    # discovery writes both halves of the same (vertex, lane) slot, so
    # the commit scatter dirties one cache line per pair instead of two
    # distant ones — the scatter is line-traffic-bound, and this halves
    # it.  The block starts uninitialized: every *reached* slot is
    # overwritten by exactly one commit (or the root init), and the
    # unreached remainder gets its sentinels backfilled at assembly
    # from the visited mask — on connected graphs that remainder is
    # empty, so the whole 2·n·B sentinel sweep disappears.
    state = np.empty((n, B, 2), dtype=np.int64)
    parent_T, level_T = state[..., 0], state[..., 1]
    state_flat = state.reshape(-1)
    parent_T[roots, lanes0] = ROOT_PARENT
    level_T[roots, lanes0] = 0

    m_unvisited = np.full(B, int(deg.sum()), dtype=np.int64) - deg[roots]
    pulling = np.full(B, mode == "pull", dtype=bool)
    pushes = np.zeros(B, dtype=np.int64)
    pulls = np.zeros(B, dtype=np.int64)
    edges_scanned = np.zeros(B, dtype=np.int64)
    n_levels = np.ones(B, dtype=np.int64)

    # Flat lane-tagged frontier: vertex f_vert[i] is live in lane
    # f_lane[i].  The per-lane Beamer operands (frontier edge mass and
    # size) are carried forward from each winner commit, where they
    # fall out of reductions the commit needs anyway.
    f_vert = roots.copy()
    f_lane = lanes0.copy()
    m_front = deg[roots].astype(np.float64)
    f_size = np.ones(B, dtype=np.int64)

    # Lane-transposed frontier image, consumed by the pull pass.
    # Invariant: ``front_T`` holds bits exactly in ``touched_rows``
    # (the rows written at the last commit), so refreshing it is two
    # sparse row writes.  Push-only runs (directed) skip the upkeep.
    track_T = mode != "push"
    if track_T:
        front_T = bitset.empty_bitmatrix(n, B)
        bitset.set_bits_2d(front_T, roots, lanes0)
        touched_rows = np.unique(roots)
    depth = 0

    while f_vert.size:
        depth += 1
        if mode == "auto":
            # Per-lane Beamer switch on the exact single-root operands:
            # frontier edge mass vs unvisited edge mass (ALPHA), then
            # frontier vertex count vs n (BETA).  Inactive lanes get a
            # harmless update — their frontier is empty, so both masses
            # are zero and they never run again.
            go_pull = m_front * ALPHA > m_unvisited
            go_push = f_size * BETA < n
            pulling = (pulling & ~go_push) | (~pulling & go_pull)

        live = f_size > 0
        push_mask = live & ~pulling
        pull_mask = live & pulling
        any_push = bool(push_mask.any())
        any_pull = bool(pull_mask.any())

        # Counters are direction semantics, recorded up front — they do
        # not depend on which pass mechanically serves the lane.
        if any_push:
            pushes[push_mask] += 1
            # A pushing lane scans its whole frontier's adjacency: its
            # carried edge mass, no fresh reduction needed.
            edges_scanned[push_mask] += m_front[push_mask].astype(np.int64)
        if any_pull:
            pulls[pull_mask] += 1
            # A pulling lane scans every one of its own unvisited
            # vertices' edges, exactly like the single-root engine.
            edges_scanned[pull_mask] += m_unvisited[pull_mask]

        # Heavy push frontiers ride the packed pull pass for free: when
        # their combined edge mass tops the whole arc array, per-lane
        # slab carving is the costlier mechanism.
        fold = (any_push and any_pull
                and float(m_front[push_mask].sum()) > total_arcs)
        scan_mask = (push_mask | pull_mask) if fold else pull_mask

        push_w_vert = push_w_lane = push_w_par = None
        pull_rows = pull_bits = None
        p_lane = p_vert = p_par = None

        # ---- grouped push: one union gather, per-lane slice carving --
        if any_push and not fold:
            if any_pull:
                push_e = ~pulling[f_lane]
                c_vert = f_vert[push_e]
                c_lane = f_lane[push_e]
            else:
                c_vert, c_lane = f_vert, f_lane
            union = np.unique(c_vert)
            u_counts = (rp[union + 1] - rp[union]).astype(np.int64)
            u_row0 = np.zeros(union.size, dtype=np.int64)
            np.cumsum(u_counts[:-1], out=u_row0[1:])
            total_u = int(u_counts.sum())
            if total_u:
                flat_u = (np.repeat(rp[union] - u_row0, u_counts)
                          + np.arange(total_u, dtype=np.int64))
                neigh_u = ci[flat_u]
                # Carve each (lane, frontier-vertex) pair's adjacency
                # slice out of the shared slab.
                pos = np.searchsorted(union, c_vert)
                cnt = u_counts[pos]
                total = int(cnt.sum())
                if total:
                    row0 = np.zeros(c_vert.size, dtype=np.int64)
                    np.cumsum(cnt[:-1], out=row0[1:])
                    eflat = (np.repeat(u_row0[pos] - row0, cnt)
                             + np.arange(total, dtype=np.int64))
                    e_neigh = neigh_u[eflat]
                    e_src = np.repeat(c_vert, cnt)
                    e_lane = np.repeat(c_lane, cnt)
                    unseen = ~bitset.test_bits_2d(visited_T, e_neigh,
                                                  e_lane)
                    key = e_lane[unseen] * n + e_neigh[unseen]
                    w_key, push_w_par = _min_per_dst(key, e_src[unseen])
                    push_w_lane = w_key // n
                    push_w_vert = w_key % n

        # ---- grouped pull (plus folded push lanes): one gather over
        # the union unvisited set --------------------------------------
        if any_pull:
            # Lane-bit mask of the scanning lanes; tail bits past B stay
            # zero, so ~visited_T's garbage tail is masked off too, and
            # so are the bits non-scanning lanes left in ``front_T``.
            lane_bits = bitset.empty_bitset(B)
            bitset.set_bits(lane_bits, np.flatnonzero(scan_mask))
            unv_T = ~visited_T & lane_bits
            cand = np.flatnonzero(np.bitwise_or.reduce(unv_T, axis=1))
            neigh_u, dst_u = _gather(rp, ci, cand)
            if neigh_u.size:
                # ``dst_u`` ascends already (cand is sorted); ordering
                # each dst run by src makes "first active occurrence"
                # the min-parent tie-break.
                if neighbors_sorted:
                    neigh_s, dst_s = neigh_u, dst_u
                else:
                    order = np.lexsort((neigh_u, dst_u))
                    neigh_s, dst_s = neigh_u[order], dst_u[order]
                # One AND resolves every lane's active pull edges.
                active = front_T[neigh_s] & unv_T[dst_s]
                # Segmented exclusive prefix-OR down each dst run: a
                # lane's first active row in its run is its min-src
                # parent edge.  Hillis-Steele doubling costs
                # log2(max degree) masked OR passes over the lane
                # words — all in the packed domain.  Two rows are in
                # the same run exactly when their (sorted) dsts match,
                # so the span masks come straight off ``dst_s``.
                starts = np.empty(dst_s.size, dtype=bool)
                starts[0] = True
                np.not_equal(dst_s[1:], dst_s[:-1], out=starts[1:])
                scan = active.copy()
                span = 1
                max_run = int((rp[cand + 1] - rp[cand]).max())
                while span < max_run:
                    same = dst_s[span:] == dst_s[:-span]
                    np.bitwise_or(scan[span:], scan[:-span],
                                  out=scan[span:], where=same[:, None])
                    span <<= 1
                pre = np.zeros_like(active)
                cont = ~starts[1:]
                pre[1:][cont] = scan[:-1][cont]
                win = active & ~pre
                # Per-run OR of the active bits = lanes discovering
                # that dst this level, committed as whole bit rows so
                # the visited/frontier updates stay in the packed
                # domain.
                run_starts = np.flatnonzero(starts)
                found = np.bitwise_or.reduceat(active, run_starts,
                                               axis=0)
                keep = np.flatnonzero(np.bitwise_or.reduce(found,
                                                           axis=1))
                if keep.size:
                    pull_rows = dst_s[run_starts[keep]]
                    pull_bits = found[keep]
                    # Expand the first-occurrence bits; compressing to
                    # the rows that hold any bit first shrinks the
                    # expansion domain severalfold on long-run levels
                    # (one winner row per lane scattered across a run),
                    # while the pair count is unchanged.  The row
                    # coordinate then indexes the sorted edge arrays
                    # directly, one gather per pair array.
                    wrows = np.flatnonzero(
                        np.bitwise_or.reduce(win, axis=1))
                    wr, p_lane = bitset.nonzero_bits_2d(win[wrows])
                    prow = wrows[wr]
                    p_vert = dst_s[prow]
                    p_par = neigh_s[prow]

        if push_w_vert is None and p_vert is None:
            break

        # ---- commit: packed-row updates for the bit state, one flat
        # scatter per part for parent/level ---------------------------
        if track_T:
            front_T[touched_rows] = 0
        if pull_rows is not None:
            visited_T[pull_rows] |= pull_bits
            front_T[pull_rows] = pull_bits
        if push_w_vert is not None:
            bitset.set_bits_2d(visited_T, push_w_vert, push_w_lane)
            if track_T:
                bitset.set_bits_2d(front_T, push_w_vert, push_w_lane)
        if track_T:
            if pull_rows is None:
                touched_rows = np.unique(push_w_vert)
            elif push_w_vert is None:
                touched_rows = pull_rows
            else:
                tm = np.zeros(n, dtype=bool)
                tm[pull_rows] = True
                tm[push_w_vert] = True
                touched_rows = np.flatnonzero(tm)

        if push_w_vert is not None:
            slot = (push_w_vert * B + push_w_lane) << 1
            state_flat[slot] = push_w_par
            state_flat[slot + 1] = depth
            wdeg = np.bincount(push_w_lane, weights=deg[push_w_vert],
                               minlength=B)
            f_size = np.bincount(push_w_lane, minlength=B)
        if p_vert is not None:
            slot = (p_vert * B + p_lane) << 1
            state_flat[slot] = p_par
            state_flat[slot + 1] = depth
            # Both Beamer operands are lane sums over the discovery
            # set: each discovered (vertex, lane) pair contributes its
            # degree to the lane's next frontier edge mass and one to
            # its size.  Sparse commits take two pair-domain bincounts;
            # dense ones (mega levels where most lanes discover most
            # rows) fold both into one 2-row dgemm over the unpacked
            # discovery mask, which beats streaming the pair arrays
            # ~3x.  Either way every product and sum is a small integer
            # held exactly in float64.
            if p_lane.size > 48 * pull_rows.size:
                fm = bitset.unpack_bits_2d(pull_bits, B)
                w2 = np.empty((2, pull_rows.size), dtype=np.float64)
                w2[0] = deg[pull_rows]
                w2[1] = 1.0
                stats = w2 @ fm.astype(np.float64)
                wdeg_p = stats[0]
                fs_p = stats[1].astype(np.int64)
            else:
                wdeg_p = np.bincount(p_lane, weights=deg[p_vert],
                                     minlength=B)
                fs_p = np.bincount(p_lane, minlength=B)
            if push_w_vert is None:
                wdeg, f_size = wdeg_p, fs_p
            else:
                wdeg = wdeg + wdeg_p
                f_size = f_size + fs_p
        m_unvisited -= wdeg.astype(np.int64)
        m_front = wdeg
        # Lanes that discovered anything this level now reach ``depth``.
        n_levels[f_size > 0] = depth + 1

        # Retirement by compaction: lanes with no winners this level
        # simply vanish from the flat frontier.
        if push_w_vert is None:
            f_vert, f_lane = p_vert, p_lane
        elif p_vert is None:
            f_vert, f_lane = push_w_vert, push_w_lane
        else:
            f_vert = np.concatenate((push_w_vert, p_vert))
            f_lane = np.concatenate((push_w_lane, p_lane))

    per_root_seconds = (time.perf_counter() - t0) / B
    # Per-lane column views over the shared transposed state: lanes own
    # disjoint columns, so handing out views is alias-safe.  Every
    # cross-vertex reduction runs batched over the lane axis — the
    # per-lane Python loop below only wraps views and scalars.
    visited_all = bitset.unpack_bits_2d(visited_T, B)
    # Backfill sentinels for slots no commit ever touched (unreached
    # vertices).  ``state`` began uninitialized, so this masked write is
    # what establishes the UNVISITED_PARENT / -1 contract.
    miss = ~visited_all
    if miss.any():
        parent_T[miss] = UNVISITED_PARENT
        level_T[miss] = -1
    results: List[FrontierResult] = []
    for b in range(B):
        traversal = TraversalResult(
            root=int(roots[b]),
            visited=visited_all[:, b],
            parent=parent_T[:, b],
            order=np.empty(0, dtype=np.int64),
            edges_traversed=int(edges_scanned[b]),
        )
        results.append(FrontierResult(
            traversal=traversal,
            level=level_T[:, b],
            n_levels=int(n_levels[b]),
            pushes=int(pushes[b]),
            pulls=int(pulls[b]),
            edges_scanned=int(edges_scanned[b]),
            seconds=per_root_seconds,
        ))
    return results
