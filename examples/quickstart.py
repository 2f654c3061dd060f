#!/usr/bin/env python3
"""Quickstart: run DiggerBees on a small road network and validate it.

Demonstrates the three core public APIs:
  1. build a graph (`repro.graphs.generators` / `repro.collections`),
  2. run the simulated-GPU DFS (`repro.diggerbees`),
  3. validate the output tree (`repro.validate_traversal`).

Run:  python examples/quickstart.py
"""

from repro import diggerbees, validate_traversal
from repro.core import DiggerBeesConfig
from repro.graphs import generators as gen
from repro.sim.device import H100
from repro.utils.tables import format_kv


def main() -> None:
    # 1. A 2,000-vertex synthetic road network (deep, narrow: DFS country).
    graph = gen.road_network(2000, seed=42)
    print(f"graph: {graph}")

    # 2. DiggerBees on a simulated H100 slice: 8 blocks x 4 warps, the
    #    paper's default two-level-stack parameters.
    config = DiggerBeesConfig(n_blocks=8, warps_per_block=4, seed=42)
    result = diggerbees(graph, root=0, config=config, device=H100)

    print("\nDiggerBees run:")
    print(format_kv([
        ("vertices visited", result.n_visited),
        ("edges traversed", result.traversal.edges_traversed),
        ("simulated time", f"{result.seconds * 1e6:.1f} us"),
        ("throughput", f"{result.mteps:.1f} MTEPS"),
        ("intra-block steals", result.counters.intra_steal_successes),
        ("inter-block steals", result.counters.inter_steal_successes),
        ("HotRing flushes", result.counters.flushes),
        ("ColdSeg refills", result.counters.refills),
    ]))

    # 3. Validate: the parent array must be a spanning tree of the
    #    reachable set; the strict-DFS violation fraction is informational
    #    (unordered parallel DFS, paper Figure 1(c)).
    report = validate_traversal(graph, result.traversal)
    print("\nvalidation:")
    print(format_kv([
        ("tree valid", report.tree_valid),
        ("visited correct", report.visited_correct),
        ("strict-DFS violations", f"{report.dfs_violation_fraction:.2%}"),
    ]))

    root_children = [v for v in range(graph.n_vertices)
                     if result.traversal.parent[v] == 0]
    print(f"\nthe root has {len(root_children)} children in this DFS tree")

    # Bonus: the one-shot dashboard (repro.analysis.render_run_report)
    # bundles throughput, steal traffic, block balance and, since this
    # run is traced, its visit timeline.  Tracing changes no schedule,
    # but a traced run takes the generic event loop (slower to simulate).
    from repro.analysis import render_run_report

    traced = diggerbees(graph, root=0,
                        config=config.with_overrides(trace=True),
                        device=H100)
    print("\n" + render_run_report(traced))


if __name__ == "__main__":
    main()
