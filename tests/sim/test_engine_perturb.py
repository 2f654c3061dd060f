"""Schedule-perturbation tests: fuzzing must stay deterministic per seed
and only ever produce alternative *legal* interleavings."""

import numpy as np
import pytest

from repro.core import DiggerBeesConfig, run_diggerbees
from repro.core.diggerbees import run_reference
from repro.errors import SimulationError
from repro.graphs import generators as gen
from repro.sim.engine import EventLoop
from repro.validate.reference import serial_dfs
from repro.validate.tree import validate_traversal

CFG = DiggerBeesConfig(n_blocks=2, warps_per_block=4, hot_size=8,
                       hot_cutoff=2, cold_cutoff=2, flush_batch=2,
                       refill_batch=2, cold_reserve=16, seed=11)


def perturbed(seed, jitter=2):
    return CFG.with_overrides(perturb_seed=seed, jitter=jitter)


class TestDeterminism:
    def test_same_perturb_seed_is_bit_identical(self):
        g = gen.delaunay_mesh(200, seed=11)
        a = run_diggerbees(g, 0, config=perturbed(42))
        b = run_diggerbees(g, 0, config=perturbed(42))
        assert a.cycles == b.cycles
        assert a.engine.steps == b.engine.steps
        assert np.array_equal(a.traversal.parent, b.traversal.parent)

    def test_different_perturb_seeds_explore_different_schedules(self):
        """Across a handful of seeds the perturber must actually change
        the interleaving (otherwise it fuzzes nothing)."""
        g = gen.delaunay_mesh(200, seed=11)
        runs = {run_diggerbees(g, 0, config=perturbed(s)).engine.steps
                for s in range(5)}
        assert len(runs) > 1


class TestLegality:
    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_perturbed_runs_remain_valid(self, seed):
        g = gen.road_network(300, seed=11)
        res = run_diggerbees(g, 0, config=perturbed(seed, jitter=3),
                             check_invariants=True)
        validate_traversal(g, res.traversal)
        ref = serial_dfs(g, 0)
        assert np.array_equal(ref.visited, res.traversal.visited)

    def test_adversarial_victims_remain_valid(self):
        g = gen.preferential_attachment(240, m=3, seed=11)
        cfg = CFG.with_overrides(perturb_seed=5, jitter=2,
                                 adversarial_victims=True)
        res = run_diggerbees(g, 0, config=cfg, check_invariants=True)
        ref = serial_dfs(g, 0)
        assert np.array_equal(ref.visited, res.traversal.visited)


class TestValidation:
    def test_jitter_without_seed_rejected_by_config(self):
        with pytest.raises(SimulationError, match="jitter"):
            CFG.with_overrides(jitter=1)

    def test_negative_jitter_rejected_by_config(self):
        with pytest.raises(SimulationError, match="jitter"):
            CFG.with_overrides(jitter=-1, perturb_seed=0)

    def test_engine_rejects_inconsistent_fuzz_args(self):
        agent = object()  # constructor-arg validation fires before use
        with pytest.raises(SimulationError, match="jitter"):
            EventLoop([agent], is_terminated=lambda: True, jitter=-1)
        with pytest.raises(SimulationError, match="jitter"):
            EventLoop([agent], is_terminated=lambda: True, jitter=2)


class TestDefaultPathUnchanged:
    def test_unperturbed_schedule_matches_pre_fuzz_engine(self):
        """perturb_seed=None must take the production path: the fused
        loop replays the generic loop with the reference expand."""
        g = gen.road_network(300, seed=11)
        fused = run_diggerbees(g, 0, config=CFG)
        generic = run_reference(g, 0, config=CFG)
        assert fused.cycles == generic.cycles
        assert fused.engine.steps == generic.engine.steps
        assert np.array_equal(fused.traversal.parent,
                              generic.traversal.parent)
