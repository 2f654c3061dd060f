"""The swarm-diff stage of the oracle ladder: corrupted engines caught."""

import numpy as np
import pytest

from repro.check.cases import case_from_seed
from repro.check.differential import check_case
from repro.errors import SimulationError


def _case_with_depth():
    """First fuzz seed whose graph has >= 2 BFS levels from the root,
    so a level corruption is actually observable."""
    from repro.graphs.properties import num_bfs_levels

    for seed in range(20):
        case = case_from_seed(seed)
        if num_bfs_levels(case.build_graph(), case.root) >= 2:
            return case
    raise AssertionError("no fuzz seed with a multi-level graph")


@pytest.mark.parametrize("seed", range(4))
def test_clean_cases_pass_with_swarm_rung(seed, monkeypatch):
    # Every case runs the swarm stage once: the case root as lanes 0
    # and 2, a different root between them.
    import repro.core.swarm as swarm_mod

    real = swarm_mod.run_swarm
    batches = []

    def spy(graph, roots, config=None):
        batches.append(list(roots))
        return real(graph, roots, config=config)

    monkeypatch.setattr(swarm_mod, "run_swarm", spy)
    case = case_from_seed(seed)
    assert check_case(case) is None
    assert len(batches) == 1
    first, middle, last = batches[0]
    assert first == last == case.root and middle != case.root


def test_lane_parent_corruption_is_caught(monkeypatch):
    import repro.core.swarm as swarm_mod

    case = _case_with_depth()
    real = swarm_mod.run_swarm

    def corrupted(graph, roots, config=None):
        results = real(graph, roots, config=config)
        res = results[0]
        deep = np.flatnonzero(res.level >= 1)
        res.traversal.parent[deep[0]] = deep[0]  # bogus self-parent
        return results

    monkeypatch.setattr(swarm_mod, "run_swarm", corrupted)
    failure = check_case(case)
    assert failure is not None
    assert failure.stage == "swarm-diff"
    assert failure.repro_command == f"python -m repro.check repro {case.seed}"


def test_duplicate_lane_divergence_is_caught(monkeypatch):
    # The stage pins *every* case-root lane, so corruption that only
    # touches the trailing duplicate lane (the cross-lane leakage
    # signature) must be caught too.
    import repro.core.swarm as swarm_mod

    case = _case_with_depth()
    real = swarm_mod.run_swarm

    def corrupted(graph, roots, config=None):
        results = real(graph, roots, config=config)
        res = results[-1]
        deep = np.flatnonzero(res.level >= 1)
        res.level[deep[0]] += 1  # off-by-one on one reached vertex
        return results

    monkeypatch.setattr(swarm_mod, "run_swarm", corrupted)
    failure = check_case(case)
    assert failure is not None
    assert failure.stage == "swarm-diff"
    assert "lane 2" in failure.message


def test_profile_divergence_is_caught(monkeypatch):
    import repro.core.swarm as swarm_mod

    case = _case_with_depth()
    real = swarm_mod.run_swarm

    def corrupted(graph, roots, config=None):
        import dataclasses

        results = real(graph, roots, config=config)
        # Analytics drift with all arrays intact.
        results[0] = dataclasses.replace(
            results[0], edges_scanned=results[0].edges_scanned + 1)
        return results

    monkeypatch.setattr(swarm_mod, "run_swarm", corrupted)
    failure = check_case(case)
    assert failure is not None
    assert failure.stage == "swarm-diff"
    assert "profile" in failure.message


def test_engine_error_is_caught(monkeypatch):
    import repro.core.swarm as swarm_mod

    def broken(graph, roots, config=None):
        raise SimulationError("swarm engine exploded")

    monkeypatch.setattr(swarm_mod, "run_swarm", broken)
    failure = check_case(case_from_seed(0))
    assert failure is not None
    assert failure.stage == "swarm-diff"
    assert "SimulationError" in failure.message
