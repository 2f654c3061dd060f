"""Micro-sweep coverage: lockstep ``--batch`` mode, phase accounting,
and the ``--compare`` trajectory diff."""

import json

import pytest

from repro.bench import micro
from repro.bench.micro import compare_trajectory, render, run_micro
from repro.errors import BenchmarkError


@pytest.fixture(scope="module")
def scalar_payload():
    return run_micro(repeats=1)


@pytest.fixture(scope="module")
def batch_payload():
    # Width-2 hive batches, so the replicas below are lockstep ones.
    from repro.core import dispatch

    with pytest.MonkeyPatch.context() as mp:
        mp.setitem(dispatch.LOCKSTEP_MIN_WIDTH, "dfs", 2)
        return run_micro(repeats=1, batch=2)


@pytest.fixture(scope="module")
def narrow_payload():
    return run_micro(repeats=1, batch=2)


def test_batch_payload_matches_scalar_schedule(scalar_payload, batch_payload):
    """Hive replicas must reproduce the scalar engine's exact schedule —
    the same committed baseline gates every execution mode."""
    assert batch_payload["batch"] == 2
    assert scalar_payload["batch"] == 0
    assert {c["tier"] for c in batch_payload["cases"]} == {"hive"}
    for ca, cb in zip(scalar_payload["cases"], batch_payload["cases"]):
        assert ca["name"] == cb["name"]
        assert ca["cycles"] == cb["cycles"], ca["name"]
        assert ca["steps"] == cb["steps"], ca["name"]


@pytest.mark.parametrize("payload_fixture",
                         ["scalar_payload", "batch_payload"])
def test_phases_simulate_matches_total_wall(payload_fixture, request):
    """phases.simulate accumulates the per-case *median*, so it must
    agree with total_wall_seconds (the pre-fix code summed every repeat,
    overstating simulate by ~repeats x)."""
    payload = request.getfixturevalue(payload_fixture)
    simulate = payload["phases"]["simulate"]
    total = payload["total_wall_seconds"]
    assert abs(simulate - total) <= max(1e-6, 0.01 * total)


def test_narrow_batches_run_the_scalar_loop(narrow_payload):
    # Below LOCKSTEP_MIN_WIDTH["dfs"] the fused loop runs each replica.
    assert {c["tier"] for c in narrow_payload["cases"]} == {"scalar"}


def test_render_tags_hive_mode(batch_payload, narrow_payload):
    # The label names the tier that ran, not the one --batch suggests.
    assert "[hive batch=2]" in render(batch_payload)
    assert "[scalar batch=2]" in render(narrow_payload)


def test_frontier_batch_runs_one_swarm_per_case(tier_calls, lockstep_from):
    lockstep_from(2)
    payload = run_micro(repeats=1, batch=2, backend="frontier")
    assert tier_calls == {"swarm": len(micro.MICRO_CASES)}
    assert {c["backend"] for c in payload["cases"]} == {"frontier"}
    assert {c["tier"] for c in payload["cases"]} == {"swarm"}
    assert "[frontier/swarm batch=2]" in render(payload)


# ---------------------------------------------------------------------------
# --compare trajectory diff
# ---------------------------------------------------------------------------

def _entry(mode, cases, ts):
    entry = {"bench": "engine_micro", "repeats": 3, "timestamp": ts,
             "batch": 16 if mode == "hive" else 0,
             "cases": cases}
    return entry


def _case(name, wall, steps, cycles):
    return {"name": name, "wall_seconds": wall, "steps": steps,
            "cycles": cycles, "steps_per_second": steps / wall}


@pytest.fixture
def trajectory(tmp_path):
    a = _entry("scalar", [
        _case("road1000", 0.020, 2576, 130728),
        _case("pa2000", 0.030, 5209, 124828),
        _case("mesh1500", 0.020, 3989, 111898),
        _case("retired", 0.010, 1000, 5000),
    ], "2026-08-01T00:00:00+00:00")
    b = _entry("hive", [
        _case("road1000", 0.008, 2576, 130728),   # >5% faster
        _case("pa2000", 0.040, 5209, 124828),     # >5% slower
        _case("mesh1500", 0.020, 4001, 111898),   # schedule drift
        _case("brandnew", 0.010, 1000, 5000),
    ], "2026-08-02T00:00:00+00:00")
    path = tmp_path / "trajectory.jsonl"
    with path.open("w", encoding="utf-8") as f:
        for entry in (a, b):
            f.write(json.dumps(entry) + "\n")
    return path


def test_compare_flags_and_modes(trajectory):
    out = compare_trajectory(0, 1, path=trajectory)
    assert "A: entry 0 [scalar]" in out
    assert "B: entry 1 [hive:16]" in out
    road = next(line for line in out.splitlines()
                if line.startswith("road1000"))
    assert "improvement" in road
    pa = next(line for line in out.splitlines() if line.startswith("pa2000"))
    assert "regression" in pa
    mesh = next(line for line in out.splitlines()
                if line.startswith("mesh1500"))
    assert "SCHEDULE DRIFT" in mesh
    assert "(new case)" in out
    assert "cases only in A: retired" in out
    assert "flagged: 2" in out


def test_compare_negative_indices(trajectory):
    assert compare_trajectory(-2, -1, path=trajectory) == \
        compare_trajectory(0, 1, path=trajectory)


def test_compare_missing_file(tmp_path):
    with pytest.raises(BenchmarkError, match="no trajectory"):
        compare_trajectory(0, 1, path=tmp_path / "absent.jsonl")


def test_compare_out_of_range(trajectory):
    with pytest.raises(BenchmarkError, match="out\nof range|out of range"):
        compare_trajectory(0, 7, path=trajectory)


def test_compare_labels_modes_by_recorded_tier(tmp_path):
    narrow = _entry("hive", [_case("road1000", 0.01, 2576, 130728)], "t0")
    narrow["cases"][0]["tier"] = "scalar"
    wide = dict(_entry("scalar", [], "t1"), backend="frontier", batch=16,
                cases=[{"name": "road1000", "backend": "frontier",
                        "tier": "swarm", "wall_seconds": 0.001}])
    path = tmp_path / "trajectory.jsonl"
    path.write_text("".join(json.dumps(e) + "\n" for e in (narrow, wide)))
    out = compare_trajectory(0, 1, path=path)
    assert "A: entry 0 [scalar:16]" in out
    assert "B: entry 1 [frontier/swarm:16]" in out
