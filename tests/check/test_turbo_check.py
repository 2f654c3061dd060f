"""Checker coverage for the fused loop as the ladder's primary.

Unperturbed two-level cases run the fused loop (``repro.core.turbo``)
in the monitored primary pass, and the reference-diff stage replays
them on the generic loop with the reference expand.  Two obligations: clean
cases pass that comparison, and every injected steal-protocol bug is
still caught when the fused loop executes the mutated protocol — i.e.
the default driver has no blind spot.
"""

import pytest

from repro.check.cases import case_from_seed
from repro.check.cli import MUTANT_CASE_BUDGET
from repro.check.differential import check_case
from repro.check.mutations import MUTATIONS
from repro.core.turbo import turbo_eligible


def _fused_stress_case(seed):
    """A stress case with its perturbation stripped, so the fused loop
    runs the primary pass."""
    case = case_from_seed(seed, stress=True).with_(perturb_seed=None,
                                                   jitter=0)
    assert turbo_eligible(case.build_config())
    return case


def test_clean_cases_pass_with_turbo_primary():
    for seed in range(4):
        case = case_from_seed(seed).with_(perturb_seed=None, jitter=0)
        failure = check_case(case)
        assert failure is None, failure.report()


@pytest.mark.parametrize("name", sorted(MUTATIONS))
def test_mutation_is_caught_under_turbo(name):
    """Every injected protocol bug must be detected with the fused loop
    executing the primary pass."""
    failure = None
    for seed in range(MUTANT_CASE_BUDGET):
        failure = check_case(_fused_stress_case(seed), mutation=name,
                             stress=True)
        if failure is not None:
            break
    assert failure is not None, (
        f"injected bug {name!r} ({MUTATIONS[name].description}) survived "
        f"{MUTANT_CASE_BUDGET} fused-loop stress cases — the fused loop "
        f"has a blind spot; expected detector: "
        f"{MUTATIONS[name].expected_detector}"
    )
    assert f"--mutation {name}" in failure.repro_command
