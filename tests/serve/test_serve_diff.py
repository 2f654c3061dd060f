"""Serve-diff acceptance: daemon responses bit-identical to direct runs.

Every fuzz graph family must pass the full oracle ladder, whose
serve-diff stage demands that the daemon (real socket, admission, cache,
dispatch) reproduce direct execution exactly, parents, visited sets,
step counts and counters included.
"""

import os
import tempfile
from dataclasses import asdict

import pytest

from repro.check import serve_oracle
from repro.check.cases import FAMILIES, case_from_seed
from repro.check.differential import check_case
from repro.core.diggerbees import run_diggerbees
from repro.errors import ServeError
from repro.serve.protocol import dfs_result_to_dict


def _seed_for_family(family: str, limit: int = 4000) -> int:
    for seed in range(limit):
        if case_from_seed(seed).family == family:
            return seed
    raise AssertionError(f"no seed below {limit} maps to {family!r}")


@pytest.mark.parametrize("family", FAMILIES)
def test_serve_diff_green_on_family(family):
    """The oracle ladder, serve-diff included, passes on every family."""
    case = case_from_seed(_seed_for_family(family))
    failure = check_case(case)
    assert failure is None, failure.report()


def test_serve_diff_green_on_stress_and_perturbed_cases():
    base = case_from_seed(1, stress=True)
    assert check_case(base, stress=True) is None
    perturbed = case_from_seed(2).with_(perturb_seed=77, jitter=2)
    assert check_case(perturbed) is None


def test_oracle_payload_equals_direct_execution():
    """The oracle daemon's payload is the canonical payload, both on the
    compute path and on the repeat (cached) path."""
    case = case_from_seed(5)
    graph = case.build_graph()
    config = case.build_config()
    expected = dfs_result_to_dict(
        run_diggerbees(graph, case.root, config=config))
    # A fresh daemon per call: its first answer computes, the repeat
    # hits the result cache the first populated.
    assert serve_oracle.query_dfs(graph, case.root, asdict(config)) == [
        (expected, False), (expected, True)]


def test_a_served_case_leaves_no_socket_directory(monkeypatch):
    made = []
    mkdtemp = tempfile.mkdtemp

    def recording(*args, **kwargs):
        made.append(mkdtemp(*args, **kwargs))
        return made[-1]

    monkeypatch.setattr(tempfile, "mkdtemp", recording)
    case = case_from_seed(9)
    graph = case.build_graph()
    serve_oracle.query_dfs(graph, case.root)
    # A failing query (a root outside the graph) cleans up too.
    with pytest.raises(ServeError):
        serve_oracle.query_dfs(graph, graph.n_vertices)
    assert len(made) == 2
    for sock_dir in made:
        assert os.path.basename(sock_dir).startswith("repro-serve-oracle-")
        assert not os.path.exists(sock_dir)


def test_serve_rung_detects_payload_drift(monkeypatch):
    """If serving ever changed a payload, the ladder must fail loudly.

    Simulated by corrupting the client-visible payload of the oracle's
    query — the ladder should report a serve-diff failure, proving the
    comparison has teeth (it is not comparing a value to itself).
    """
    real = serve_oracle.query_dfs

    def corrupting(*args, **kwargs):
        return [({**result, "cycles": result.get("cycles", 0) + 1}, cached)
                for result, cached in real(*args, **kwargs)]

    monkeypatch.setattr(serve_oracle, "query_dfs", corrupting)
    case = case_from_seed(3)
    failure = check_case(case)
    assert failure is not None and failure.stage == "serve-diff"
    assert "cycles" in failure.message
    assert failure.repro_command == "python -m repro.check repro 3"
