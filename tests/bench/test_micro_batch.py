"""Micro-sweep coverage: phase accounting and the ``--compare``
trajectory diff."""

import json

import pytest

from repro.bench.micro import compare_trajectory, run_micro
from repro.errors import BenchmarkError


def test_phases_simulate_matches_total_wall():
    """phases.simulate accumulates the per-case *median*, so it must
    agree with total_wall_seconds (the pre-fix code summed every repeat,
    overstating simulate by ~repeats x)."""
    payload = run_micro(repeats=1)
    simulate = payload["phases"]["simulate"]
    total = payload["total_wall_seconds"]
    assert abs(simulate - total) <= max(1e-6, 0.01 * total)


# ---------------------------------------------------------------------------
# --compare trajectory diff
# ---------------------------------------------------------------------------

def _entry(cases, ts):
    return {"bench": "engine_micro", "repeats": 3, "timestamp": ts,
            "cases": cases}


def _case(name, wall, steps, cycles):
    return {"name": name, "wall_seconds": wall, "steps": steps,
            "cycles": cycles, "steps_per_second": steps / wall}


@pytest.fixture
def trajectory(tmp_path):
    a = _entry([
        _case("road1000", 0.020, 2576, 130728),
        _case("pa2000", 0.030, 5209, 124828),
        _case("mesh1500", 0.020, 3989, 111898),
        _case("retired", 0.010, 1000, 5000),
    ], "2026-08-01T00:00:00+00:00")
    b = _entry([
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
    assert "A: entry 0 2026-08-01T00:00:00+00:00" in out
    assert "B: entry 1 2026-08-02T00:00:00+00:00" in out
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


def test_compare_reads_retired_batch_and_backend_entries(tmp_path):
    # Entries recorded by the retired --batch/--backend modes: DFS rows
    # still compare; frontier and swarm rows carry no steps/s.
    scalar = _entry([_case("road1000", 0.01, 2576, 130728),
                     _case("pa2000", 0.02, 5209, 124828)], "t0")
    batched = dict(_entry([_case("road1000", 0.01, 2576, 130728)], "t1"),
                   batch=256, backend="dfs")
    batched["cases"][0]["backend"] = "dfs"
    swarm = dict(_entry([], "t2"), batch=256, backend="swarm", cases=[
        {"name": "road1000", "backend": "swarm", "wall_seconds": 0.001,
         "cycles": None, "steps": None, "steps_per_second": None},
        {"name": "pa2000", "backend": "frontier", "tier": "swarm",
         "wall_seconds": 0.001}])
    path = tmp_path / "trajectory.jsonl"
    path.write_text("".join(json.dumps(e) + "\n"
                            for e in (scalar, batched, swarm)))
    out = compare_trajectory(0, 1, path=path)
    road = next(line for line in out.splitlines()
                if line.startswith("road1000"))
    assert "+0.0%" in road
    for a, b in ((0, 2), (2, 0)):
        out = compare_trajectory(a, b, path=path)
        rows = [line for line in out.splitlines()
                if line.startswith(("road1000", "pa2000"))]
        assert len(rows) == 2
        assert all("not comparable (no steps/s)" in r for r in rows)
        assert "flagged: 0" in out
