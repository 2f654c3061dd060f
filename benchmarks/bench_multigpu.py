"""Multi-device extension benchmark (beyond the paper).

The paper's related work cites remote work stealing for multi-GPU graph
analytics (Meng et al. ICDE'23, Lima et al. SBAC-PAD'12) as the natural
next step for DiggerBees.  The execution is *modeled*: one engine,
blocks partitioned across 1/2/4 GPUs via the ``n_gpus`` knob; stealing
stays GPU-local until a whole GPU runs dry, then the GPU's leader block
steals across NVLink at ~4x the cost of a local inter-block steal.
Everything runs in one process; the multi-device cost lives in the
cycle ledger.

Expected shape: correctness always; remote steals never happen on one
GPU; throughput never collapses from the partitioning (NVLink funnel
bounded — an honest Amdahl story).
"""

from repro.core import DiggerBeesConfig, run_diggerbees
from repro.graphs import collections as col
from repro.sim.device import H100
from repro.utils.tables import format_table
from repro.validate import validate_traversal


def _run_modeled(graph, gpus, blocks_per_gpu=8, seed=7):
    cfg = DiggerBeesConfig(n_blocks=gpus * blocks_per_gpu, warps_per_block=8,
                           n_gpus=gpus, seed=seed)
    return run_diggerbees(graph, 0, config=cfg, device=H100)


def test_multigpu_scaling(benchmark, archive, quick):
    g = col.load("euro_osm", scale=1 if quick else 2)

    def run():
        rows = []
        for gpus in (1, 2, 4):
            res = _run_modeled(g, gpus)
            validate_traversal(g, res.traversal)
            rows.append([gpus, gpus * 8, res.mteps,
                         res.counters.inter_steal_successes,
                         res.counters.remote_steal_successes])
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    archive("multigpu_scaling",
            format_table(
                ["GPUs", "blocks", "MTEPS", "inter steals", "remote steals"],
                rows, floatfmt=".1f",
                title="Extension — modeled multi-GPU DiggerBees (euro_osm)"))

    by_gpus = {r[0]: r for r in rows}
    # Remote steals never happen on one GPU; with several they only
    # happen when a whole GPU actually runs dry, which needs the
    # full-scale graph (the quick corpus drains before any GPU starves).
    assert by_gpus[1][4] == 0
    if not quick:
        assert by_gpus[2][4] > 0
    # Partitioning never collapses throughput (NVLink funnel bounded).
    assert by_gpus[2][2] > 0.7 * by_gpus[1][2]
    assert by_gpus[4][2] > 0.5 * by_gpus[1][2]
