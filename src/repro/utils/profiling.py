"""Lightweight profiling hooks for the benchmark harness.

Three tools, all optional and all zero-cost when unused:

* :class:`PhaseTimer` — named wall-clock phase accumulation (generation
  vs. simulation vs. aggregation) with a one-line-per-phase summary.
* :func:`steps_per_second` — the simulator's primary throughput metric
  (simulated warp actions per wall second).
* :func:`profile_to` — a context manager wrapping a block in
  :mod:`cProfile` and dumping binary stats to a file for ``snakeviz`` /
  ``pstats`` analysis; a ``None`` path disables it entirely.

The benchmark CLI exposes these via ``--profile`` (see
``python -m repro.bench --help``); ``repro.bench.micro`` uses
:class:`PhaseTimer` to separate corpus generation from engine time in
its payload's ``"phases"``.
"""

from __future__ import annotations

import cProfile
import time
from contextlib import contextmanager
from typing import Dict, Iterator, Optional

__all__ = ["PhaseTimer", "steps_per_second", "profile_to"]


class PhaseTimer:
    """Accumulate wall-clock time per named phase.

    ::

        timer = PhaseTimer()
        with timer.phase("generate"):
            corpus = build_corpus()
        with timer.phase("simulate"):
            run_graph(...)
        print(timer.summary())

    Re-entering a phase name accumulates into the same bucket.
    """

    def __init__(self) -> None:
        self._elapsed: Dict[str, float] = {}
        self._counts: Dict[str, int] = {}

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        start = time.perf_counter()
        try:
            yield
        finally:
            dt = time.perf_counter() - start
            self._elapsed[name] = self._elapsed.get(name, 0.0) + dt
            self._counts[name] = self._counts.get(name, 0) + 1

    def add(self, name: str, seconds: float) -> None:
        """Accumulate an externally-measured duration into a phase.

        For call sites that derive the representative duration from
        several raw timings (e.g. a median over repeats) instead of
        timing a ``with`` block directly: the derived value lands in
        the same bucket ``phase(name)`` would use.
        """
        self._elapsed[name] = self._elapsed.get(name, 0.0) + seconds
        self._counts[name] = self._counts.get(name, 0) + 1

    def elapsed(self, name: str) -> float:
        """Total seconds accumulated in one phase (0.0 if never entered)."""
        return self._elapsed.get(name, 0.0)

    @property
    def total(self) -> float:
        return sum(self._elapsed.values())

    def as_dict(self) -> Dict[str, float]:
        """Phase -> seconds, insertion-ordered."""
        return dict(self._elapsed)

    def summary(self) -> str:
        """Human-readable per-phase breakdown."""
        if not self._elapsed:
            return "(no phases recorded)"
        total = self.total or 1e-12
        lines = []
        for name, secs in self._elapsed.items():
            lines.append(
                f"{name:<16s} {secs:8.3f}s  {100 * secs / total:5.1f}%  "
                f"({self._counts[name]}x)"
            )
        lines.append(f"{'total':<16s} {self.total:8.3f}s")
        return "\n".join(lines)


def steps_per_second(steps: int, seconds: float) -> float:
    """Simulated warp actions per wall second (0.0 for degenerate input)."""
    if seconds <= 0.0:
        return 0.0
    return steps / seconds


@contextmanager
def profile_to(path: Optional[str]) -> Iterator[Optional[cProfile.Profile]]:
    """Profile the enclosed block with cProfile, dumping stats to ``path``.

    ``path=None`` is a no-op (yields None), so call sites can wrap
    unconditionally::

        with profile_to(args.profile):
            run_experiments()
    """
    if path is None:
        yield None
        return
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        yield profiler
    finally:
        profiler.disable()
        profiler.dump_stats(path)
