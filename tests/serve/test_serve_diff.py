"""Serve-diff acceptance: daemon responses bit-identical to direct runs.

Every fuzz graph family must pass the full oracle ladder, whose
serve-diff stage demands that the daemon (real socket, admission, cache,
dispatch) reproduce direct execution exactly, parents, visited sets,
step counts and counters included.
"""

import os

import pytest

from repro.check.cases import FAMILIES, case_from_seed
from repro.check.differential import check_case
from repro.check.serve_oracle import ServeOracle, serve_oracle
from repro.core.diggerbees import run_diggerbees
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
    from dataclasses import asdict

    case = case_from_seed(5)
    graph = case.build_graph()
    config = case.build_config()
    expected = dfs_result_to_dict(
        run_diggerbees(graph, case.root, config=config))
    served, _ = serve_oracle().query_dfs(graph, case.root, asdict(config),
                                         no_cache=True)
    assert served == expected
    cached, was_cached = serve_oracle().query_dfs(
        graph, case.root, asdict(config))
    # First cache-path query may miss (the no_cache one didn't populate)
    # but the payload must be identical either way; the second must hit.
    assert cached == expected
    again, was_cached2 = serve_oracle().query_dfs(
        graph, case.root, asdict(config))
    assert was_cached2 and again == expected


def test_oracle_reuses_resident_graph_by_fingerprint():
    case = case_from_seed(9)
    g1 = case.build_graph()
    g2 = case.build_graph()
    oracle = serve_oracle()
    assert oracle.register(g1) == oracle.register(g2)


def test_stopped_oracle_removes_its_socket_directory():
    oracle = ServeOracle()  # a fresh daemon, not the process singleton
    sock_dir = os.path.dirname(oracle.socket_path)
    assert os.path.isdir(sock_dir)
    oracle.stop()
    assert not os.path.exists(sock_dir)


def test_serve_rung_detects_payload_drift(monkeypatch):
    """If serving ever changed a payload, the ladder must fail loudly.

    Simulated by corrupting the client-visible payload of the oracle's
    query — the ladder should report a serve-diff failure, proving the
    comparison has teeth (it is not comparing a value to itself).
    """
    from repro.check import serve_oracle as oracle_mod

    real = oracle_mod.ServeOracle.query_dfs

    def corrupting(self, graph, root, overrides=None, **kwargs):
        result, cached = real(self, graph, root, overrides, **kwargs)
        bad = dict(result)
        bad["cycles"] = bad.get("cycles", 0) + 1
        return bad, cached

    monkeypatch.setattr(oracle_mod.ServeOracle, "query_dfs", corrupting)
    case = case_from_seed(3)
    failure = check_case(case)
    assert failure is not None and failure.stage == "serve-diff"
    assert "cycles" in failure.message
    assert failure.repro_command == "python -m repro.check repro 3"
