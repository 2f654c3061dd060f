"""Tests for the differential oracle ladder and fuzz-case generation."""

import threading

import pytest

from repro.check.cases import FAMILIES, FuzzCase, case_from_seed
from repro.check.differential import (
    case_from_json,
    case_to_json,
    check_case,
)
from repro.core import diggerbees
from repro.sim.engine import EventLoop


class TestCaseGeneration:
    def test_seed_determinism(self):
        for seed in range(30):
            assert case_from_seed(seed) == case_from_seed(seed)
            assert (case_from_seed(seed, stress=True)
                    == case_from_seed(seed, stress=True))

    @pytest.mark.parametrize("stress", [False, True])
    def test_every_seed_yields_a_buildable_case(self, stress):
        """Config validation and graph construction must never reject a
        generated case — an invalid case would crash the fuzz loop
        instead of testing the protocol."""
        for seed in range(60):
            case = case_from_seed(seed, stress=stress)
            case.build_config()  # raises SimulationError if inconsistent
            if seed < 20:
                g = case.build_graph()
                assert g.n_vertices >= 4

    def test_seed_space_covers_families_and_modes(self):
        cases = [case_from_seed(s) for s in range(120)]
        assert {c.family for c in cases} == set(FAMILIES)
        assert any(c.perturb_seed is not None for c in cases)
        assert any(c.perturb_seed is None for c in cases)
        assert any(c.adversarial_victims for c in cases)
        assert any(not c.two_level for c in cases)
        assert any(c.n_gpus > 1 for c in cases)

    def test_json_roundtrip(self):
        case = case_from_seed(17, stress=True).with_(shrunk_from=17)
        assert case_from_json(case_to_json(case)) == case

    def test_describe_mentions_key_parameters(self):
        case = case_from_seed(4, stress=True)
        desc = case.describe()
        assert f"seed={case.seed}" in desc
        assert case.family in desc


class TestOracleLadder:
    # The fuzz smoke's seeds (``repro.check fuzz --cases 40``), every stage.
    @pytest.mark.parametrize("seed", range(40))
    def test_clean_seeds_pass(self, seed):
        assert check_case(case_from_seed(seed)) is None

    @pytest.mark.parametrize("seed", range(4))
    def test_clean_stress_seeds_pass(self, seed):
        assert check_case(case_from_seed(seed, stress=True),
                          stress=True) is None

    def test_failure_report_and_repro_command(self):
        case = case_from_seed(0, stress=True)
        failure = check_case(case, mutation="flush_publish_drop",
                             stress=True)
        assert failure is not None
        assert failure.stage == "invariants"
        cmd = failure.repro_command
        assert cmd == ("python -m repro.check repro 0 "
                       "--stress --mutation flush_publish_drop")
        report = failure.report()
        assert "FAIL [invariants]" in report
        assert cmd in report

    def test_repro_command_replays_identically(self):
        """The command the fuzzer prints must rebuild the exact case and
        hit the same failure stage."""
        original = check_case(case_from_seed(0, stress=True),
                              mutation="refill_double_pop", stress=True)
        replay = check_case(case_from_seed(0, stress=True),
                            mutation="refill_double_pop", stress=True)
        assert original is not None and replay is not None
        assert replay.stage == original.stage
        assert replay.message == original.message

    def test_shrunk_case_repro_uses_json_spec(self):
        case = case_from_seed(0, stress=True).with_(shrunk_from=0)
        failure = check_case(case, mutation="flush_publish_drop",
                             stress=True)
        assert failure is not None
        assert "--case '" in failure.repro_command
        # The embedded spec must round-trip to the same case.
        spec = failure.repro_command.split("--case '")[1].split("'")[0]
        assert case_from_json(spec) == case


class TestReferenceStage:
    """The generic loop runs once per case: as the primary pass of a case
    the fused loop cannot take, or as the reference-diff oracle of one
    it can.

    Only drains on the calling thread count: the serve-diff stage runs
    the case again on its daemon's engine thread."""

    @pytest.fixture
    def drains(self, monkeypatch):
        counts = {"fused": 0, "generic": 0}
        run_turbo = diggerbees.run_turbo
        run_loop = EventLoop.run
        caller = threading.get_ident()

        def fused(*args, **kwargs):
            if threading.get_ident() == caller:
                counts["fused"] += 1
            return run_turbo(*args, **kwargs)

        def generic(self):
            if threading.get_ident() == caller:
                counts["generic"] += 1
            return run_loop(self)

        monkeypatch.setattr(diggerbees, "run_turbo", fused)
        monkeypatch.setattr(EventLoop, "run", generic)
        return counts

    @pytest.mark.parametrize("overrides", [
        pytest.param({}, id="perturbed"),
        pytest.param({"perturb_seed": None, "jitter": 0, "two_level": False},
                     id="one-level"),
    ])
    def test_generic_primary_drains_once(self, drains, overrides):
        case = case_from_seed(1).with_(**overrides)
        assert check_case(case) is None
        assert drains == {"fused": 0, "generic": 1}

    def test_fused_primary_is_replayed_by_the_reference(self, drains):
        case = case_from_seed(1).with_(perturb_seed=None, jitter=0)
        assert check_case(case) is None
        assert drains == {"fused": 1, "generic": 1}


def test_check_case_builds_the_graph_once(monkeypatch):
    """Every stage, the reference-diff stage's second monitored run
    included, reads one build of the case's graph."""
    calls = []
    build = FuzzCase.build_graph

    def spy(case):
        calls.append(case.seed)
        return build(case)

    monkeypatch.setattr(FuzzCase, "build_graph", spy)
    for seed in range(6):
        calls.clear()
        assert check_case(case_from_seed(seed)) is None
        assert calls == [seed], seed
