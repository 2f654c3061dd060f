"""DiggerBees driver: assemble the grid, run the engine, package results.

This is the public entry point of the core package::

    from repro.core import DiggerBeesConfig, run_diggerbees
    result = run_diggerbees(graph, root=0,
                            config=DiggerBeesConfig.v4(H100, sim_scale=0.25))
    print(result.mteps)

:func:`run_reference` is the fused loop's named oracle: the same run on
the generic event loop with the reference expand.
:func:`run_diggerbees_multi` seeds several roots before the same drain.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from repro.core.config import DiggerBeesConfig
from repro.core.state import RunState
from repro.core.turbo import run_turbo, turbo_eligible
from repro.core.warp_dfs import WarpAgent
from repro.errors import SimulationError
from repro.graphs.csr import CSRGraph
from repro.sim.device import DeviceSpec, H100
from repro.sim.engine import EngineResult, EventLoop
from repro.sim.metrics import mteps as _mteps
from repro.sim.trace import SimCounters, TraceLog
from repro.validate.reference import TraversalResult

__all__ = ["DiggerBeesResult", "run_diggerbees", "run_diggerbees_multi",
           "run_reference"]


@dataclass(frozen=True)
class DiggerBeesResult:
    """Complete outcome of one DiggerBees run.

    ``roots`` are the seeds that claimed a tree: ``(root,)`` for a
    single-root run; a multi-source run's ``traversal`` is a spanning
    forest whose ``root`` field is the first seed.
    """

    traversal: TraversalResult
    roots: Tuple[int, ...]
    cycles: int
    seconds: float
    counters: SimCounters
    config: DiggerBeesConfig
    device: DeviceSpec
    engine: EngineResult
    trace: Optional[TraceLog] = None

    @property
    def mteps(self) -> float:
        """Million traversed edges per second (simulated)."""
        return _mteps(self.traversal.edges_traversed, self.seconds)

    @property
    def n_visited(self) -> int:
        return self.traversal.n_visited

    @property
    def n_trees(self) -> int:
        return len(self.roots)

    def summary(self) -> dict:
        """Flat metrics dict for reports."""
        c = self.counters
        return {
            "mteps": self.mteps,
            "cycles": self.cycles,
            "seconds": self.seconds,
            "visited": self.n_visited,
            "edges": self.traversal.edges_traversed,
            "intra_steals": c.intra_steal_successes,
            "inter_steals": c.inter_steal_successes,
            "flushes": c.flushes,
            "refills": c.refills,
            "idle_polls": c.idle_polls,
            "engine_steps": self.engine.steps,
        }


def run_diggerbees(
    graph: CSRGraph,
    root: int,
    *,
    config: Optional[DiggerBeesConfig] = None,
    device: DeviceSpec = H100,
    check_invariants: bool = False,
    record_order: bool = False,
    instrument: Optional[Callable[[RunState], Optional[Callable[[int], None]]]] = None,
) -> DiggerBeesResult:
    """Run DiggerBees on ``graph`` from ``root`` on the simulated ``device``.

    Parameters
    ----------
    config:
        A :class:`DiggerBeesConfig`; defaults to a small v4-style grid
        (4 blocks) suitable for interactive use.  For paper-shaped
        experiments build configs with ``DiggerBeesConfig.version(...)``.
    check_invariants:
        Run the (expensive) post-run consistency checks; used by tests.
    record_order:
        Also populate ``traversal.order`` with the global discovery
        sequence (claim order across all warps).  This is an extension
        beyond the paper's Table 2 semantics — the order is a valid
        discovery order of *this* unordered run, not a lexicographic
        one.  The run state appends each claimed vertex as it is
        claimed; no trace is kept and the schedule does not change.
    instrument:
        Optional instrumentation factory (``repro.check``): called with
        the freshly built :class:`RunState` before the engine starts; it
        may attach an invariant monitor and return a per-step observer
        callback (or None) that the engine invokes after every step.

    Returns
    -------
    DiggerBeesResult
        Traversal output, simulated time, MTEPS, and full counters.
    """
    return _run(graph, (root,), config, device, check_invariants,
                record_order, instrument, reference=False)


def run_diggerbees_multi(
    graph: CSRGraph,
    roots: Sequence[int],
    *,
    config: Optional[DiggerBeesConfig] = None,
    device: DeviceSpec = H100,
    check_invariants: bool = False,
) -> DiggerBeesResult:
    """Run DiggerBees seeded from several roots in one simulation.

    Root ``i`` is seeded on warp 0 of block ``i % n_blocks`` before the
    grid starts, as a launcher would scatter seed vertices.  Two uses
    beyond the paper's single-source runs: covering a disconnected
    graph in one run (a spanning forest), and warm starts that skip the
    single-source ramp-up, as GAP-style many-source benchmarks run.
    All roots are claimed up front, so distinct roots in one component
    partition it into several trees; exact duplicates are dropped.  A
    single-root call replays :func:`run_diggerbees` exactly, schedule
    perturbation included.
    """
    roots = tuple(int(r) for r in roots)
    if not roots:
        raise SimulationError("run_diggerbees_multi needs at least one root")
    for r in roots:
        graph._check_vertex(r)
    return _run(graph, roots, config, device, check_invariants,
                False, None, reference=False)


def run_reference(
    graph: CSRGraph,
    root: int,
    *,
    config: Optional[DiggerBeesConfig] = None,
    device: DeviceSpec = H100,
    check_invariants: bool = False,
    record_order: bool = False,
    instrument: Optional[Callable[[RunState], Optional[Callable[[int], None]]]] = None,
) -> DiggerBeesResult:
    """The fused loop's oracle: :func:`run_diggerbees` on the generic loop.

    Every warp steps through :meth:`WarpAgent.step` and its reference
    expand on the generic :class:`EventLoop`, whatever the config.  On
    a config the fused loop takes (:func:`turbo_eligible`) the result
    must equal :func:`run_diggerbees`'s bit for bit — cycles, steps,
    counters, DFS tree — which the ``repro.check`` reference-diff stage
    and the golden determinism tests assert; on any other config the two
    functions run the same code.  Parameters as for
    :func:`run_diggerbees`.
    """
    return _run(graph, (root,), config, device, check_invariants,
                record_order, instrument, reference=True)


def _run(graph, roots, config, device, check_invariants, record_order,
         instrument, *, reference: bool) -> DiggerBeesResult:
    """Seed, drain and package one run (see :func:`run_diggerbees`).

    The fused loop drains eligible configs unless ``reference``; the
    rest run the generic :class:`EventLoop` with the reference expand.
    """
    config = config or DiggerBeesConfig()
    state = RunState(graph, roots[0], config, device,
                     record_order=record_order)
    claimed = roots[:1] + tuple(
        r for i, r in enumerate(roots[1:], start=1)
        if state.seed_root(r, i % config.n_blocks))
    on_step = instrument(state) if instrument is not None else None
    agents = [
        WarpAgent(state, b, w)
        for b in range(config.n_blocks)
        for w in range(config.warps_per_block)
    ]
    if not reference and turbo_eligible(config):
        engine = run_turbo(state, agents, max_cycles=config.max_cycles,
                           on_step=on_step)
    else:
        engine = EventLoop(
            agents,
            is_terminated=state.is_terminated,
            max_cycles=config.max_cycles,
            perturb_seed=config.perturb_seed,
            jitter=config.jitter,
            on_step=on_step,
        ).run()
    if state.pending != 0:
        raise SimulationError(
            f"engine stopped with {state.pending} entries pending"
        )
    if check_invariants:
        state.check_invariants()
    traversal = TraversalResult(
        root=roots[0],
        visited=state.visited.astype(bool),
        parent=state.parent,
        order=np.asarray(state.order or (), dtype=np.int64),
        edges_traversed=state.counters.edges_traversed,
    )
    return DiggerBeesResult(
        traversal=traversal,
        roots=claimed,
        cycles=engine.cycles,
        seconds=device.cycles_to_seconds(engine.cycles),
        counters=state.counters,
        config=config,
        device=device,
        engine=engine,
        trace=state.trace,
    )
