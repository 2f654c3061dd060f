"""Unit tests for DiggerBeesConfig (paper parameters and §4.5 versions)."""

import pytest

from repro.core.config import DiggerBeesConfig
from repro.errors import SimulationError
from repro.sim.device import A100, H100


class TestDefaults:
    def test_paper_defaults(self):
        cfg = DiggerBeesConfig()
        assert cfg.hot_size == 128
        assert cfg.hot_cutoff == 32
        assert cfg.cold_cutoff == 64

    def test_steal_amounts_are_half_cutoffs(self):
        cfg = DiggerBeesConfig()
        assert cfg.intra_steal_amount == 16
        assert cfg.inter_steal_amount == 32

    def test_n_warps(self):
        cfg = DiggerBeesConfig(n_blocks=3, warps_per_block=5)
        assert cfg.n_warps == 15


class TestValidation:
    @pytest.mark.parametrize("kwargs", [
        dict(n_blocks=0),
        dict(warps_per_block=0),
        dict(warps_per_block=33),      # 32-bit active mask
        dict(hot_size=2),
        dict(hot_cutoff=0),
        dict(hot_cutoff=128),          # must be < hot_size
        dict(cold_cutoff=1),
        dict(flush_batch=0),
        dict(flush_batch=128),
        dict(refill_batch=200),
        dict(victim_policy="fastest"),
        dict(cold_reserve=10),         # < cold_cutoff
        dict(seed=-1),
    ])
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(SimulationError):
            DiggerBeesConfig(**kwargs)

    def test_fits_device(self):
        DiggerBeesConfig(hot_size=128, warps_per_block=8).check_fits_device(H100)

    def test_too_big_for_smem(self):
        cfg = DiggerBeesConfig(hot_size=2**16, warps_per_block=32,
                               flush_batch=32, refill_batch=32)
        with pytest.raises(SimulationError, match="shared memory"):
            cfg.check_fits_device(H100)

    def test_one_level_skips_smem_check(self):
        cfg = DiggerBeesConfig(hot_size=2**16, warps_per_block=32,
                               flush_batch=32, refill_batch=32,
                               two_level=False)
        cfg.check_fits_device(H100)  # stack lives in global memory


class TestVersions:
    def test_v1(self):
        cfg = DiggerBeesConfig.v1(H100)
        assert cfg.n_blocks == 1
        assert not cfg.two_level
        assert not cfg.enable_inter_steal

    def test_v2(self):
        cfg = DiggerBeesConfig.v2(H100)
        assert cfg.n_blocks == 1
        assert cfg.two_level
        assert not cfg.enable_inter_steal

    def test_v3_half_sms(self):
        cfg = DiggerBeesConfig.v3(H100)
        assert cfg.n_blocks == 66
        assert cfg.enable_inter_steal

    def test_v4_one_block_per_sm(self):
        assert DiggerBeesConfig.v4(H100).n_blocks == 132
        assert DiggerBeesConfig.v4(A100).n_blocks == 108

    def test_sim_scale_preserves_ratio(self):
        h = DiggerBeesConfig.v4(H100, sim_scale=0.25).n_blocks
        a = DiggerBeesConfig.v4(A100, sim_scale=0.25).n_blocks
        assert h == 33 and a == 27
        assert abs(h / a - 132 / 108) < 0.02

    def test_version_dispatch(self):
        for v in (1, 2, 3, 4):
            cfg = DiggerBeesConfig.version(v, H100)
            assert isinstance(cfg, DiggerBeesConfig)
        with pytest.raises(SimulationError):
            DiggerBeesConfig.version(5, H100)

    def test_overrides(self):
        cfg = DiggerBeesConfig.v4(H100, seed=99, hot_cutoff=16)
        assert cfg.seed == 99
        assert cfg.hot_cutoff == 16

    def test_with_overrides(self):
        base = DiggerBeesConfig()
        mod = base.with_overrides(victim_policy="random")
        assert mod.victim_policy == "random"
        assert base.victim_policy == "two_choice"
