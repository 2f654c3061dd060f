"""Tests for the greedy failure shrinker."""

import numpy as np

from repro.check.cases import case_from_seed
from repro.check.differential import check_case
from repro.check.shrink import shrink_case


def test_shrinks_a_mutant_failure_to_a_smaller_failing_case():
    case = case_from_seed(0, stress=True)
    failure = check_case(case, mutation="intra_lost_cas_writeback",
                         stress=True)
    assert failure is not None
    shrunk = shrink_case(failure, max_evals=20)
    # The shrinker must keep a *failing* case and never grow the input.
    assert shrunk.case.n_vertices <= case.n_vertices
    assert shrunk.mutation == "intra_lost_cas_writeback"
    if shrunk.case != case:  # something was simplified
        assert shrunk.case.shrunk_from == case.seed
        assert "--case '" in shrunk.repro_command
    # The reported shrunk case must still reproduce a failure.
    assert check_case(shrunk.case, mutation=shrunk.mutation,
                      stress=shrunk.stress) is not None


def test_shrinker_budget_is_respected():
    case = case_from_seed(0, stress=True)
    failure = check_case(case, mutation="flush_publish_drop", stress=True)
    assert failure is not None
    evals = []

    def counting_log(msg):
        evals.append(msg)

    shrunk = shrink_case(failure, max_evals=3, log=counting_log)
    assert len(evals) <= 3
    assert shrunk is not None


def test_swarm_diff_failure_shrinks(monkeypatch):
    """Every candidate runs the whole ladder, so a failure only the
    swarm-diff stage sees keeps failing — and keeps shrinking — on
    smaller candidates."""
    import repro.core.swarm as swarm_mod

    real = swarm_mod.run_swarm

    def corrupted(graph, roots, config=None):
        results = real(graph, roots, config=config)
        deep = np.flatnonzero(results[0].level >= 1)
        if deep.size:
            results[0].traversal.parent[deep[0]] = deep[0]  # self-parent
        return results

    monkeypatch.setattr(swarm_mod, "run_swarm", corrupted)
    case = case_from_seed(0)
    failure = check_case(case)
    assert failure is not None and failure.stage == "swarm-diff"
    kept = []
    shrunk = shrink_case(failure, log=kept.append)
    assert kept, "no shrink step kept the swarm-diff failure"
    assert shrunk.case.n_vertices == 8  # the halving floor
    assert shrunk.stage == "swarm-diff"
