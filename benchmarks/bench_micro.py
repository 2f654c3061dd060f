"""Micro-benchmarks of the substrate itself (not a paper figure).

These time the host-side costs of the simulator: two-level stack
operations, one full DiggerBees simulation step loop, graph generation,
and the reference serial DFS.  Useful for tracking simulator performance
regressions across commits.  The fixed engine micro-sweep and its gate
against ``benchmarks/baseline_micro.json`` are ``python -m repro.bench
micro``.
"""

from repro.core import DiggerBeesConfig, run_diggerbees
from repro.core.twolevel_stack import HotRing, WarpStack
from repro.graphs import generators as gen
from repro.validate.reference import serial_dfs


def test_micro_hotring_push_pop(benchmark):
    ring = HotRing(128)

    def cycle():
        for i in range(100):
            ring.push(i, i)
        for _ in range(100):
            ring.pop()

    benchmark(cycle)
    assert ring.is_empty


def test_micro_flush_refill(benchmark):
    stack = WarpStack(hot_size=128, flush_batch=32, refill_batch=32)

    def cycle():
        for i in range(120):
            if stack.needs_flush():
                stack.flush()
            stack.hot.push(i, i)
        while len(stack):
            if stack.hot.is_empty and stack.can_refill():
                stack.refill()
            stack.hot.pop()

    benchmark(cycle)
    assert stack.is_empty


def test_micro_serial_dfs(benchmark):
    g = gen.road_network(2000, seed=1)
    result = benchmark(lambda: serial_dfs(g, 0))
    assert result.n_visited == g.n_vertices


def test_micro_diggerbees_simulation(benchmark):
    g = gen.road_network(1000, seed=1)
    cfg = DiggerBeesConfig(n_blocks=4, warps_per_block=4, seed=1)
    result = benchmark.pedantic(
        lambda: run_diggerbees(g, 0, config=cfg), rounds=2, iterations=1)
    assert result.n_visited == g.n_vertices


def test_micro_graph_generation(benchmark):
    g = benchmark(lambda: gen.preferential_attachment(2000, m=5, seed=1))
    assert g.n_vertices == 2000

