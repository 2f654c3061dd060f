"""Multi-source warm-start benchmark (extension, GAP-style sourcing).

Single-source DFS pays a ramp-up while one warp's subtree feeds the
grid; `run_diggerbees_multi` scatters k seed roots over the blocks.
Expected shape: cycles fall monotonically-ish with k on a deep graph,
with diminishing returns once every block is seeded; coverage and forest
validity always hold.
"""

from repro.core import run_diggerbees_multi
from repro.graphs import collections as col
from repro.sim.device import H100
from repro.utils.rng import derive_seed, make_rng
from repro.utils.tables import format_table


def test_multi_source_warm_start(benchmark, bench_cfg, archive, quick):
    g = col.load("euro_osm", scale=1 if quick else 2)
    rng = make_rng(derive_seed(7, "multisource", g.name))
    all_roots = [int(v) for v in rng.choice(g.n_vertices, size=16,
                                            replace=False)]
    cfg = bench_cfg.diggerbees_config()

    def run():
        rows = []
        for k in (1, 2, 4, 8, 16):
            res = run_diggerbees_multi(g, all_roots[:k], config=cfg,
                                       device=H100)
            assert res.traversal.n_visited == g.n_vertices
            rows.append([k, res.n_trees, res.cycles, res.mteps])
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    archive("multi_source_warm_start",
            format_table(["seed roots", "trees", "cycles", "MTEPS"], rows,
                         floatfmt=".1f",
                         title="Extension — multi-source warm start "
                               f"({g.name})"))

    cycles = {r[0]: r[2] for r in rows}
    # Warm starts help on a deep graph: 8 seeds beat 1 seed clearly.
    assert cycles[8] < cycles[1]
    # And the effect saturates rather than degrading badly.
    assert cycles[16] < cycles[1] * 1.1
