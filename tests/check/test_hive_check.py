"""Coverage for the hive rung of the differential oracle ladder."""

import pytest

from repro.check.cases import FuzzCase, case_from_seed
from repro.check.cli import build_parser, run_mutant
from repro.check.differential import CheckFailure, check_case
from repro.core import intra_steal


def _eligible_case() -> FuzzCase:
    """A small unperturbed two-level case — the hive rung executes."""
    return FuzzCase(
        seed=0, family="road_network", n_vertices=96, graph_seed=7,
        n_blocks=2, warps_per_block=2, hot_size=8, hot_cutoff=2,
        cold_cutoff=2, flush_batch=2, refill_batch=2,
        adversarial_victims=True,
    )


def _vector_case() -> FuzzCase:
    """Same geometry but honest victim choice, so the hive rung runs the
    vectorized steal protocol against the fused scalar driver."""
    return FuzzCase(
        seed=0, family="preferential_attachment", n_vertices=200,
        graph_seed=6, n_blocks=2, warps_per_block=2, hot_size=8,
        hot_cutoff=2, cold_cutoff=2, flush_batch=2, refill_batch=2,
    )


def test_clean_case_passes_hive_ladder():
    assert check_case(_eligible_case(), rungs={"hive"}) is None


def test_seeded_cases_pass_hive_ladder():
    for seed in range(3):
        case = case_from_seed(seed)
        assert check_case(case, rungs={"hive"}) is None, seed


def test_vector_steal_case_passes_hive_ladder():
    """A case with real vector-protocol traffic clears the hive rung
    (vector hive lanes vs the fused scalar driver)."""
    assert check_case(_vector_case(), rungs={"hive"}) is None


def test_vector_steal_bug_caught_by_hive_ladder(monkeypatch):
    """A bug injected into the *batched* victim selection — thieves
    accept victims one entry below the cutoff — must surface through
    the ladder's hive rung, not be masked by the scalar oracle."""
    orig = intra_steal.select_victims_batch

    def too_eager(heads, tails, hot_size, thief_warps, cutoff):
        return orig(heads, tails, hot_size, thief_warps, max(1, cutoff - 1))

    monkeypatch.setattr(intra_steal, "select_victims_batch", too_eager)
    failure = check_case(_vector_case(), rungs={"hive"})
    assert failure is not None
    assert failure.stage == "hive-diff"


def test_repro_command_carries_hive_flag():
    failure = CheckFailure(case=_eligible_case(), stage="hive-diff",
                           message="boom", rungs=frozenset({"hive"}))
    assert " --rungs hive" in failure.repro_command
    plain = CheckFailure(case=_eligible_case(), stage="fastpath-diff",
                         message="boom")
    assert "--rungs" not in plain.repro_command


@pytest.mark.parametrize("mutation", [
    "claim_lost_store",
    "inter_skip_cas_validation",
])
def test_mutations_caught_under_hive(mutation):
    """The hive rung must not mask injected protocol bugs: the ladder
    still reports each mutation within a small fuzz budget."""
    failure = run_mutant(mutation, budget=12, rungs={"hive"})
    assert failure is not None
    assert failure.mutation == mutation
    # The replayed failure is hive-mode, so the repro command round-trips.
    assert failure.rungs == {"hive"}
    assert " --rungs hive" in failure.repro_command


def test_cli_accepts_hive_flag():
    parser = build_parser()
    for argv in (["fuzz"], ["repro", "3"], ["mutants"]):
        args = parser.parse_args([*argv, "--rungs", "hive"])
        assert args.rungs == {"hive"}
