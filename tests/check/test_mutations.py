"""Mutation sanity suite: every injected protocol bug must be caught.

This is the test that tests the checker.  Each registered mutation is a
hand-written, realistic steal-protocol bug (lost CAS write-back, skipped
reservation validation, dropped fence, double-pop, ...); the stress
fuzzer must detect every one within a small case budget.  A mutation the
suite cannot catch is a blind spot in the oracle ladder — the test
fails, pointing at exactly which invariant is missing.
"""

from contextlib import contextmanager

import pytest

from repro.check.cli import MUTANT_CASE_BUDGET, run_mutant
from repro.check.differential import check_case
from repro.check.cases import case_from_seed
from repro.check.mutations import MUTATIONS, apply_mutation
from repro.core import inter_steal, intra_steal
from repro.core.turbo import turbo_eligible

#: The two DFS drivers a stress case's primary pass can run: the
#: generic event loop (stress cases are perturbed) and the fused loop
#: (the same case unperturbed).
DRIVERS = {
    "generic": lambda seed: case_from_seed(seed, stress=True),
    "fused": lambda seed: case_from_seed(seed, stress=True).with_(
        perturb_seed=None, jitter=0),
}


def test_at_least_six_protocol_bugs_registered():
    assert len(MUTATIONS) >= 6


@pytest.mark.parametrize("name", sorted(MUTATIONS))
def test_mutation_is_caught(name):
    failure = run_mutant(name, budget=MUTANT_CASE_BUDGET)
    assert failure is not None, (
        f"injected bug {name!r} ({MUTATIONS[name].description}) survived "
        f"{MUTANT_CASE_BUDGET} stress cases — the checker has a blind spot; "
        f"expected detector: {MUTATIONS[name].expected_detector}"
    )
    # Acceptance criterion: every failure prints a one-line repro command.
    cmd = failure.repro_command
    assert cmd.startswith("python -m repro.check repro ")
    assert f"--mutation {name}" in cmd


@pytest.mark.parametrize("name", ["intra_skip_cas_validation",
                                  "inter_skip_cas_validation"])
def test_skip_cas_bugs_fail_at_the_monitor_stage(name):
    """The skipped-reservation bugs move well-formed entries, so only
    the monitor's CAS-linearizability hook can see them; they must be
    reported by the invariants stage with a linearizability message."""
    failure = run_mutant(name)
    assert failure is not None
    assert failure.stage == "invariants"
    assert "linearizability" in failure.message


def test_mutation_context_restores_protocol():
    live = {(owner, attr): getattr(owner, attr)
            for m in MUTATIONS.values() for owner, attr, _ in m.patches}
    # The steal mutants patch the protocol's named steps.
    assert {(intra_steal, "_cas"), (intra_steal, "_take"),
            (intra_steal, "_deliver"), (inter_steal, "_cas")} <= set(live)
    for name, mutation in MUTATIONS.items():
        with apply_mutation(name):
            for owner, attr, _ in mutation.patches:
                assert getattr(owner, attr) is not live[owner, attr]
        with pytest.raises(RuntimeError):
            with apply_mutation(name):
                raise RuntimeError("a failing case")
        for (owner, attr), original in live.items():
            assert getattr(owner, attr) is original, (name, attr)
    # And a clean case still passes after all that patching.
    assert check_case(case_from_seed(0, stress=True), stress=True) is None


@pytest.mark.parametrize("driver", sorted(DRIVERS))
def test_dropped_transfer_is_caught_by_the_sweep(driver):
    """The steal hook sees the entries the thief reserved, so only the
    global sweep's entry count can see that they never reached it."""
    for seed in range(MUTANT_CASE_BUDGET):
        failure = check_case(DRIVERS[driver](seed), stress=True,
                             mutation="intra_dropped_transfer")
        if failure is not None:
            break
    assert failure is not None and failure.stage == "invariants"
    assert "entries were lost" in failure.message


@contextmanager
def _counting(patches, calls):
    """Count calls to each attribute ``patches`` names, as installed now
    (the mutant's replacement), in ``calls[i]``; restore it on exit."""
    installed = [getattr(owner, attr) for owner, attr, _ in patches]

    def counted(i, fn):
        def wrapper(*args):
            calls[i] += 1
            return fn(*args)
        return wrapper

    try:
        for i, ((owner, attr, _), fn) in enumerate(zip(patches, installed)):
            setattr(owner, attr, counted(i, fn))
        yield
    finally:
        for (owner, attr, _), fn in zip(patches, installed):
            setattr(owner, attr, fn)


@pytest.mark.parametrize("driver", sorted(DRIVERS))
@pytest.mark.parametrize("name", sorted(MUTATIONS))
def test_mutant_patches_a_step_its_catching_case_calls(name, driver):
    """A mutant that patched a name the protocol stopped calling would
    be a no-op that no case catches, or one caught only by accident:
    on the case that catches it, each name it patches must be called."""
    patches = MUTATIONS[name].patches
    for seed in range(MUTANT_CASE_BUDGET):
        case = DRIVERS[driver](seed)
        assert turbo_eligible(case.build_config()) == (driver == "fused")
        calls = [0] * len(patches)
        with apply_mutation(name), _counting(patches, calls):
            failure = check_case(case, stress=True)
        if failure is not None:
            break
    assert failure is not None, f"{name} survived on the {driver} loop"
    assert failure.stage == "invariants"
    assert all(calls), [(attr, n) for (_, attr, _), n in zip(patches, calls)]


def test_apply_unknown_mutation_raises():
    with pytest.raises(KeyError, match="unknown mutation"):
        with apply_mutation("not_a_bug"):
            pass


def test_apply_none_is_noop():
    with apply_mutation(None):
        pass
