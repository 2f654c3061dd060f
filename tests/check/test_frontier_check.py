"""The frontier-diff stage of the oracle ladder: corrupted engines caught."""

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
def test_clean_cases_pass_with_frontier_rung(seed, monkeypatch):
    # Every case runs the frontier stage: auto mode always, and the
    # forced push and pull modes on undirected graphs.
    import repro.core.frontier as frontier_mod

    real = frontier_mod.run_frontier
    modes = []

    def spy(graph, root, config=None):
        modes.append(None if config is None else config.mode)
        return real(graph, root, config=config)

    monkeypatch.setattr(frontier_mod, "run_frontier", spy)
    case = case_from_seed(seed)
    assert check_case(case) is None
    forced = [] if case.build_graph().directed else ["push", "pull"]
    assert modes == [None, *forced]


def test_level_corruption_is_caught(monkeypatch):
    import repro.core.frontier as frontier_mod

    case = _case_with_depth()
    real = frontier_mod.run_frontier

    def corrupted(graph, root, config=None):
        res = real(graph, root, config=config)
        deep = np.flatnonzero(res.level >= 1)
        res.level[deep[0]] += 1  # off-by-one on one reached vertex
        return res

    monkeypatch.setattr(frontier_mod, "run_frontier", corrupted)
    failure = check_case(case)
    assert failure is not None
    assert failure.stage == "frontier-diff"
    assert "bfs_levels" in failure.message
    assert failure.repro_command == f"python -m repro.check repro {case.seed}"


def test_engine_error_is_caught(monkeypatch):
    import repro.core.frontier as frontier_mod

    def broken(graph, root, config=None):
        raise SimulationError("frontier engine exploded")

    monkeypatch.setattr(frontier_mod, "run_frontier", broken)
    failure = check_case(case_from_seed(0))
    assert failure is not None
    assert failure.stage == "frontier-diff"
    assert "SimulationError" in failure.message
