"""Bit-identity and eligibility coverage for the hive batch engine.

The hive contract (``repro.core.hive``) extends the fused loop's
schedule identity across a batch axis: for every eligible configuration and
*every batch composition*, each run of a lockstep batch must reproduce
the scalar engines' cycles, steps, traversal output and counters
bit-for-bit.  These tests sweep that contract across every fuzz graph
family, several batch widths (so runs finish at different ticks and
compaction engages), heterogeneous batches, and the error paths.
"""

import numpy as np
import pytest

from repro.check.cases import FAMILIES, FuzzCase
from repro.core.config import DiggerBeesConfig
from repro.core.diggerbees import run_diggerbees
from repro.core.hive import hive_compatible, hive_eligible, run_hive
from repro.errors import SimulationError


def _family_case(family: str) -> FuzzCase:
    """A small high-contention case (tiny rings, adversarial victims)."""
    return FuzzCase(
        seed=0, family=family, n_vertices=96, graph_seed=7,
        n_blocks=2, warps_per_block=2, hot_size=8, hot_cutoff=2,
        cold_cutoff=2, flush_batch=2, refill_batch=2,
        adversarial_victims=True,
    )


def _assert_same(ref, res, label):
    assert res.cycles == ref.cycles, label
    assert res.engine.steps == ref.engine.steps, label
    assert np.array_equal(res.traversal.parent, ref.traversal.parent), label
    assert np.array_equal(res.traversal.visited, ref.traversal.visited), label
    assert res.counters == ref.counters, label


def _run_in_batches(graph, tasks, width):
    """``run_hive`` over ``tasks`` split into lockstep batches of ``width``."""
    return [res for lo in range(0, len(tasks), width)
            for res in run_hive(graph, tasks[lo:lo + width])]


@pytest.mark.parametrize("family", FAMILIES)
def test_hive_bit_identical_across_families(family):
    """Every run of a full-width batch == the scalar (fused) driver."""
    case = _family_case(family)
    graph = case.build_graph()
    cfg = case.build_config()
    assert hive_eligible(cfg)
    scalar = run_diggerbees(graph, case.root, config=cfg)
    results = run_hive(graph, [(case.root, cfg)] * 4)
    for i, res in enumerate(results):
        _assert_same(scalar, res, f"{family} run {i}")


@pytest.mark.parametrize("batch", [1, 4, 16])
def test_hive_batch_width_invariance(batch):
    """The same 16 tasks split into any batch width give identical runs."""
    case = _family_case("road_network")
    graph = case.build_graph()
    cfg = case.build_config()
    scalar = run_diggerbees(graph, case.root, config=cfg)
    results = _run_in_batches(graph, [(case.root, cfg)] * 16, batch)
    assert len(results) == 16
    for i, res in enumerate(results):
        _assert_same(scalar, res, f"batch={batch} run {i}")


@pytest.mark.parametrize("batch", [16, 5])
def test_hive_heterogeneous_batch_compaction(batch):
    """Different roots and seeds per run: runs finish at different ticks,
    so slots compact mid-drain; each run must still match its own scalar
    reference exactly."""
    case = _family_case("road_network").with_(n_vertices=300, graph_seed=11)
    graph = case.build_graph()
    cfg = case.build_config()
    roots = [0, 17, 50, 123, 250, 299, 5, 80, 160, 40, 220, 90, 10]
    tasks = [(r, cfg.with_overrides(seed=r)) for r in roots]
    refs = [run_diggerbees(graph, r, config=c) for r, c in tasks]
    results = _run_in_batches(graph, tasks, batch)
    for i, (ref, res) in enumerate(zip(refs, results)):
        _assert_same(ref, res, f"hetero run {i} (root {roots[i]})")


def test_hive_over_budget_error_identical():
    """A run blowing its cycle budget aborts the batch with the exact
    message the scalar engine raises for that run."""
    case = _family_case("road_network")
    graph = case.build_graph()
    cfg = case.build_config(max_cycles=500)
    with pytest.raises(SimulationError) as scalar:
        run_diggerbees(graph, case.root, config=cfg)
    with pytest.raises(SimulationError) as hive:
        run_hive(graph, [(case.root, cfg)] * 3)
    assert str(hive.value) == str(scalar.value)


def test_hive_empty_task_list():
    case = _family_case("path")
    assert run_hive(case.build_graph(), []) == []


class TestEligibility:
    def test_default_config_is_eligible(self):
        assert hive_eligible(DiggerBeesConfig())

    @pytest.mark.parametrize("overrides", [
        {"fastpath": False},
        {"two_level": False},
        {"perturb_seed": 3},
        {"perturb_seed": 0},  # a falsy seed still perturbs
        {"trace": True},
    ])
    def test_ineligible_conditions(self, overrides):
        assert not hive_eligible(DiggerBeesConfig(**overrides))

    def test_run_hive_rejects_ineligible_config(self):
        case = _family_case("path")
        cfg = case.build_config(fastpath=False)
        with pytest.raises(SimulationError, match="not hive-eligible"):
            run_hive(case.build_graph(), [(0, cfg)])

    def test_compatible_modulo_seed_only(self):
        a = DiggerBeesConfig(seed=1)
        assert hive_compatible(a, a)
        assert hive_compatible(a, a.with_overrides(seed=99))
        assert not hive_compatible(a, a.with_overrides(n_blocks=8))

    def test_run_hive_rejects_mixed_geometry(self):
        case = _family_case("path")
        cfg = case.build_config()
        other = cfg.with_overrides(warps_per_block=4)
        with pytest.raises(SimulationError, match="differs from the batch"):
            run_hive(case.build_graph(), [(0, cfg), (0, other)])
