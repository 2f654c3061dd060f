"""Deep differential fuzz sweep (deselected by default; run with
``pytest -m fuzz``).  Every case runs every stage of the oracle ladder.
Tier-1 runs the smoke-budget equivalents: ``test_clean_seeds_pass``
(the fuzz smoke's seeds 0-39) and ``test_mutation_is_caught`` (every
mutant at the suite's 12-case budget)."""

import pytest

from repro.check.cases import case_from_seed
from repro.check.cli import run_mutant
from repro.check.differential import check_case
from repro.check.mutations import MUTATIONS

pytestmark = pytest.mark.fuzz


@pytest.mark.parametrize("stress", [False, True])
def test_deep_fuzz_sweep(stress):
    for seed in range(300):
        failure = check_case(case_from_seed(seed, stress=stress),
                             stress=stress)
        assert failure is None, failure.report()


@pytest.mark.parametrize("name", sorted(MUTATIONS))
def test_mutations_caught_with_generous_budget(name):
    assert run_mutant(name, budget=40) is not None
