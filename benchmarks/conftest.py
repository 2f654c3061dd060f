"""Shared fixtures for the benchmark suite.

Every benchmark regenerates one paper table/figure: it runs the
experiment once under ``benchmark.pedantic`` (the experiment itself is
the timed unit), prints the paper-shaped table, archives it under
``benchmarks/out/``, and asserts the DESIGN.md shape criteria.

Environment knobs:

* ``REPRO_BENCH_QUICK=1`` — shrink corpora/repeats for a fast smoke run.
  Quick runs print their tables but archive nothing, so a smoke run
  never overwrites the recorded full-size tables.
"""

from __future__ import annotations

import os
import pathlib

import pytest

from repro.bench.harness import BenchConfig

OUT_DIR = pathlib.Path(__file__).parent / "out"

QUICK = os.environ.get("REPRO_BENCH_QUICK", "0") == "1"


@pytest.fixture(scope="session")
def bench_cfg() -> BenchConfig:
    """The calibrated default configuration (DESIGN.md §4.3)."""
    return BenchConfig(sim_scale=0.125, warps_per_block=8,
                       n_roots=1 if QUICK else 2, seed=7)


@pytest.fixture(scope="session")
def quick() -> bool:
    return QUICK


@pytest.fixture(scope="session")
def archive():
    """Print a rendered experiment report; full runs also write it to
    benchmarks/out/<name>.txt."""

    def _write(name: str, text: str) -> None:
        if not QUICK:
            OUT_DIR.mkdir(exist_ok=True)
            (OUT_DIR / f"{name}.txt").write_text(text + "\n")
        print()
        print(text)

    return _write
