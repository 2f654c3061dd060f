"""Benchmark harness: method dispatch, multi-root runs, aggregation.

Mirrors the paper's §4.1 methodology: every method runs from a set of
source vertices (the paper uses 64 GAP-style sources; the default here
is smaller for simulator time) and reports the average MTEPS per
(method, graph, device).  Failures (NVG-DFS memory exhaustion) are
recorded as failed samples, exactly as the paper plots them.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.baselines.gpu_bfs import run_berrybees_bfs, run_gunrock_bfs
from repro.baselines.naive_gpu import run_naive_gpu_dfs
from repro.baselines.nvg_dfs import run_nvg_dfs
from repro.baselines.pdfs_cpu import run_acr_pdfs, run_ckl_pdfs
from repro.baselines.serial import run_serial_dfs
from repro.core.config import DiggerBeesConfig
from repro.core.diggerbees import run_diggerbees
from repro.errors import BenchmarkError, MemoryLimitExceeded
from repro.graphs.csr import CSRGraph
from repro.graphs.shm import resolve_graph
from repro.sim.device import DeviceSpec, H100, XEON_MAX_9462
from repro.sim.metrics import PerfSample
from repro.utils.rng import derive_seed, make_rng
from repro.utils.stats import geometric_mean

__all__ = [
    "BenchConfig",
    "DFS_METHODS",
    "BFS_METHODS",
    "ALL_METHODS",
    "run_method",
    "run_graph",
    "run_sweep",
    "lease_pool",
    "release_pool",
    "MethodSummary",
    "summarize_method",
    "geomean_speedup",
    "pick_roots",
]


@dataclass(frozen=True)
class BenchConfig:
    """Knobs shared by every experiment (DESIGN.md §4.3 calibration).

    ``sim_scale`` shrinks both simulated machines proportionally
    (H100: 132 -> 17 blocks; Xeon: 64 -> 8 cores at the 0.125 default),
    and ``warps_per_block = 8`` keeps the GPU:CPU worker ratio at the
    paper's ~16:1.
    """

    sim_scale: float = 0.125
    warps_per_block: int = 8
    n_roots: int = 2
    seed: int = 7
    device: DeviceSpec = H100
    #: Worker processes for sweep fan-out (1 = in-process, no pool).
    #: Results are jobs-invariant: every sample is a pure function of
    #: (method, graph, root, cfg) and collection preserves task order.
    jobs: int = 1
    #: Batch width (1 = scalar execution).  > 1 groups Frontier
    #: samples that share a graph into batches of at most ``batch``
    #: runs, each run by :func:`repro.core.dispatch.run_batch` (one
    #: swarm from ``SWARM_MIN_WIDTH`` up); batches compose with
    #: ``jobs`` as processes x batches.  Every other method runs task by
    #: task.  Samples are batch-invariant: the swarm is bit-identical to
    #: the single-root engine per run (only measured ``seconds``
    #: amortize the batch wall).
    batch: int = 1

    def with_(self, **kwargs) -> "BenchConfig":
        return replace(self, **kwargs)

    def diggerbees_config(self, version: int = 4,
                          **overrides) -> DiggerBeesConfig:
        """The §4.5 ``version`` config (v4 by default) at this scale."""
        kwargs = dict(warps_per_block=self.warps_per_block, seed=self.seed)
        kwargs.update(overrides)
        return DiggerBeesConfig.version(
            version, self.device, sim_scale=self.sim_scale, **kwargs,
        )


def pick_roots(graph: CSRGraph, cfg: BenchConfig) -> List[int]:
    """GAP-style deterministic source sampling: prefer vertices with
    outgoing edges (the GAP suite samples non-isolated vertices)."""
    rng = make_rng(derive_seed(cfg.seed, "roots", graph.name))
    deg = graph.degree()
    candidates = np.flatnonzero(deg > 0)
    if candidates.size == 0:
        return [0]
    k = min(cfg.n_roots, candidates.size)
    picked = rng.choice(candidates, size=k, replace=False)
    return [int(v) for v in picked]


# ---------------------------------------------------------------------------
# Method registry.  Each runner: (graph, root, cfg) -> PerfSample.
# ---------------------------------------------------------------------------

def _sample(method: str, graph: CSRGraph, device_name: str, root: int,
            edges: int, cycles: int, seconds: float) -> PerfSample:
    return PerfSample(method=method, graph=graph.name, device=device_name,
                      root=root, edges_traversed=edges, cycles=cycles,
                      seconds=seconds)


def _frontier_sample(graph, root, res) -> PerfSample:
    # Real host traversal, not a device simulation: seconds is measured
    # wall clock (a swarm lane's share of its batch wall) and "cycles"
    # has no meaning (recorded as 0).
    return _sample("Frontier", graph, "host", root,
                   res.edges_scanned, 0, res.seconds)


def _run_diggerbees(graph, root, cfg: BenchConfig) -> PerfSample:
    res = run_diggerbees(graph, root, config=cfg.diggerbees_config(),
                         device=cfg.device)
    return _sample("DiggerBees", graph, cfg.device.name, root,
                   res.traversal.edges_traversed, res.cycles, res.seconds)


def _run_ckl(graph, root, cfg: BenchConfig) -> PerfSample:
    res = run_ckl_pdfs(graph, root, sim_scale=cfg.sim_scale, seed=cfg.seed)
    return _sample("CKL-PDFS", graph, res.device.name, root,
                   res.traversal.edges_traversed, res.cycles, res.seconds)


def _run_acr(graph, root, cfg: BenchConfig) -> PerfSample:
    res = run_acr_pdfs(graph, root, sim_scale=cfg.sim_scale, seed=cfg.seed)
    return _sample("ACR-PDFS", graph, res.device.name, root,
                   res.traversal.edges_traversed, res.cycles, res.seconds)


def _run_nvg(graph, root, cfg: BenchConfig) -> PerfSample:
    try:
        res = run_nvg_dfs(graph, root, device=cfg.device,
                          sim_scale=cfg.sim_scale)
    except MemoryLimitExceeded as exc:
        return PerfSample.failure("NVG-DFS", graph.name, cfg.device.name,
                                  root, str(exc))
    return _sample("NVG-DFS", graph, cfg.device.name, root,
                   res.traversal.edges_traversed, res.cycles, res.seconds)


def _run_gunrock(graph, root, cfg: BenchConfig) -> PerfSample:
    res = run_gunrock_bfs(graph, root, device=cfg.device,
                          sim_scale=cfg.sim_scale)
    return _sample("Gunrock", graph, cfg.device.name, root,
                   res.traversal.edges_traversed, res.cycles, res.seconds)


def _run_berrybees(graph, root, cfg: BenchConfig) -> PerfSample:
    res = run_berrybees_bfs(graph, root, device=cfg.device,
                            sim_scale=cfg.sim_scale)
    return _sample("BerryBees", graph, cfg.device.name, root,
                   res.traversal.edges_traversed, res.cycles, res.seconds)


def _run_naive_gpu(graph, root, cfg: BenchConfig) -> PerfSample:
    warps = max(1, int(cfg.device.sm_count * cfg.sim_scale)
                * cfg.warps_per_block)
    res = run_naive_gpu_dfs(graph, root, n_warps=warps, device=cfg.device)
    return _sample("Naive-GPU-DFS", graph, cfg.device.name, root,
                   res.traversal.edges_traversed, res.cycles, res.seconds)


def _run_serial(graph, root, cfg: BenchConfig) -> PerfSample:
    res = run_serial_dfs(graph, root, device=XEON_MAX_9462)
    return _sample("Serial-DFS", graph, res.device.name, root,
                   res.traversal.edges_traversed, res.cycles, res.seconds)


def _run_frontier_method(graph, root, cfg: BenchConfig) -> PerfSample:
    from repro.core.frontier import run_frontier

    return _frontier_sample(graph, root, run_frontier(graph, root))


DFS_METHODS: Dict[str, Callable] = {
    "CKL-PDFS": _run_ckl,
    "ACR-PDFS": _run_acr,
    "NVG-DFS": _run_nvg,
    "DiggerBees": _run_diggerbees,
}
BFS_METHODS: Dict[str, Callable] = {
    "Gunrock": _run_gunrock,
    "BerryBees": _run_berrybees,
}
ALL_METHODS: Dict[str, Callable] = {
    **DFS_METHODS, **BFS_METHODS,
    "Serial-DFS": _run_serial,
    "Naive-GPU-DFS": _run_naive_gpu,
    "Frontier": _run_frontier_method,
}


def run_method(method: str, graph: CSRGraph, root: int,
               cfg: Optional[BenchConfig] = None) -> PerfSample:
    """Run one method once; unknown names raise :class:`BenchmarkError`."""
    cfg = cfg or BenchConfig()
    if method not in ALL_METHODS:
        raise BenchmarkError(
            f"unknown method {method!r}; available: {sorted(ALL_METHODS)}"
        )
    return ALL_METHODS[method](graph, root, cfg)


def _execute_task(task) -> PerfSample:
    """Run one (method, graph-or-spec, root, cfg) task: one sample."""
    method, graph, root, cfg = task
    return ALL_METHODS[method](resolve_graph(graph), root, cfg)


#: The one method whose samples :func:`repro.core.dispatch.run_batch`
#: can run in lockstep (one swarm) under ``batch > 1``.  Every other
#: method has no lockstep tier, so batching its roots into one unit
#: would only serialize them in one worker.
_LOCKSTEP_METHOD = "Frontier"


def _execute_unit(unit) -> List[PerfSample]:
    """Module-level worker (picklable) for the fan-out.

    A unit is ``(method, graph, roots, cfg)``: one root runs as a plain
    task through :func:`_execute_task`; several (Frontier roots on one
    graph) go to :func:`repro.core.dispatch.run_batch` as one batch,
    which runs them as one swarm when wide enough.  Either way the
    result is the unit's samples in root order.
    """
    method, graph, roots, cfg = unit
    if len(roots) == 1:
        return [_execute_task((method, graph, roots[0], cfg))]
    from repro.core.dispatch import run_batch

    graph = resolve_graph(graph)
    results = run_batch(graph, "frontier", [(r, None) for r in roots])
    samples = []
    for root, res in zip(roots, results):
        if isinstance(res, Exception):
            raise res
        samples.append(_frontier_sample(graph, root, res))
    return samples


#: Persistent fan-out pool.  Spinning up a ProcessPoolExecutor per call
#: costs worker spawns plus interpreter warm-up; sweeps issue many
#: fan-outs back to back, so the pool lives across calls and is resized
#: only when ``jobs`` changes.  ``atexit`` tears it down.
#:
#: Concurrent users (sweep threads, the :mod:`repro.serve` daemon) lease
#: the pool through :func:`lease_pool`/:func:`release_pool`.  A resize
#: while leases are outstanding *retires* the current pool instead of
#: shutting it down: already-submitted work keeps running on the old
#: executor, which is reclaimed when its last lease is released.  The
#: historical code shut the old pool down eagerly, so a resize racing an
#: in-flight submit raised "cannot schedule new futures after shutdown"
#: and dropped that fan-out on the floor
#: (``tests/bench/test_harness_resize.py`` is the regression test).


class _PoolHandle:
    """One leased ProcessPoolExecutor generation."""

    __slots__ = ("executor", "jobs", "users", "retired")

    def __init__(self, jobs: int):
        from concurrent.futures import ProcessPoolExecutor

        self.executor = ProcessPoolExecutor(max_workers=jobs)
        self.jobs = jobs
        self.users = 0
        self.retired = False


_POOL_LOCK = threading.Lock()
_HANDLE: Optional[_PoolHandle] = None
_ATEXIT_REGISTERED = False


def lease_pool(jobs: int) -> _PoolHandle:
    """Borrow the persistent pool, (re)sized to ``jobs`` workers.

    Returns a handle whose ``.executor`` stays submittable until the
    matching :func:`release_pool` — even if another thread resizes the
    pool in between.  Every lease must be released exactly once.
    """
    global _HANDLE, _ATEXIT_REGISTERED
    with _POOL_LOCK:
        if _HANDLE is not None and _HANDLE.jobs != jobs:
            _retire_locked(_HANDLE)
            _HANDLE = None
        if _HANDLE is None:
            _HANDLE = _PoolHandle(jobs)
            if not _ATEXIT_REGISTERED:
                import atexit

                atexit.register(_shutdown_pool)
                _ATEXIT_REGISTERED = True
        _HANDLE.users += 1
        return _HANDLE


def release_pool(handle: _PoolHandle, *, broken: bool = False) -> None:
    """Return a lease.  ``broken=True`` marks the executor unusable (a
    killed worker poisons every later submit on the same executor), so
    the next lease starts a fresh pool while other current holders
    drain and release this one."""
    global _HANDLE
    with _POOL_LOCK:
        handle.users -= 1
        if broken:
            handle.retired = True
            if _HANDLE is handle:
                _HANDLE = None
        if handle.retired and handle.users <= 0:
            # Last holder reclaims the retired generation.  Pending
            # futures of a healthy retirement still run to completion
            # (no cancel); a broken pool cancels what it can.
            handle.executor.shutdown(wait=False, cancel_futures=broken)


def _retire_locked(handle: _PoolHandle) -> None:
    handle.retired = True
    if handle.users <= 0:
        handle.executor.shutdown(wait=False)


def _shutdown_pool() -> None:
    """Stop the pool and unlink the graph exports its fan-outs used."""
    global _HANDLE
    from repro.graphs import shm

    with _POOL_LOCK:
        if _HANDLE is not None:
            _HANDLE.retired = True
            _HANDLE.executor.shutdown(wait=False, cancel_futures=True)
            _HANDLE = None
    shm.release_shared()


def _fan_out(tasks: List[tuple], jobs: int, batch: int = 1,
             ) -> List[PerfSample]:
    """Run (method, graph, root, cfg) tasks, preserving task order.

    Every task is an independent, deterministic simulation — each method
    derives its randomness from ``cfg.seed`` (and the per-sample stream
    identified by (method, graph, root), cf. ``utils.rng.derive_seed`` in
    ``pick_roots``) — so executing them across a
    :class:`~concurrent.futures.ProcessPoolExecutor` and collecting with
    order-preserving ``Executor.map`` yields byte-identical aggregates
    for any ``jobs`` value.

    ``batch`` > 1 groups Frontier samples that share a graph and
    config into units of at most ``batch`` roots, each one
    :func:`repro.core.dispatch.run_batch` call (a swarm from
    ``SWARM_MIN_WIDTH`` up, the single-root engine otherwise); the
    units fan out across the same pool, so batching composes with
    ``jobs`` as processes x batches.  Samples are identical for any
    ``batch``: the swarm is bit-exact per run (only a Frontier sample's
    measured ``seconds`` amortizes the batch wall).  Every other task
    runs through :func:`_execute_task`.

    Graph payloads are handed to workers zero-copy: each graph object
    is written to an export file once for its lifetime
    (:func:`repro.graphs.shm.shared_spec`) and units carry only a tiny
    spec; workers map and cache per export, so a later fan-out over
    the same graphs maps nothing.  The exports are unlinked when their
    graphs are collected, by :func:`_shutdown_pool` and at exit.  Where
    no export can be written (it raises ``OSError``) the graphs are
    pickled into the units instead — results are identical either way;
    any other export error raises.
    """
    width = max(1, batch)
    groups: Dict[tuple, List[int]] = {}
    for i, (method, graph, _, cfg) in enumerate(tasks):
        key = ((method, id(graph), id(cfg))
               if width > 1 and method == _LOCKSTEP_METHOD else (i,))
        groups.setdefault(key, []).append(i)
    owners = [idxs[lo:lo + width] for idxs in groups.values()
              for lo in range(0, len(idxs), width)]
    units = []  # (method, graph, roots, cfg), one engine call each
    for idxs in owners:
        method, graph, _, cfg = tasks[idxs[0]]
        units.append((method, graph, [tasks[j][2] for j in idxs], cfg))

    if jobs <= 1 or len(units) <= 1:
        unit_results = [_execute_unit(u) for u in units]
    else:
        from repro.graphs import shm

        try:
            # Exports outlive this fan-out (they live with the graphs),
            # so the next one sends the same specs and workers keep
            # the copies they mapped.
            wire_units = [(method, shm.shared_spec(graph), roots, cfg)
                          for method, graph, roots, cfg in units]
        except OSError:
            # No export file here (permissions, a full /dev/shm): fall
            # back to pickling the graphs into the units.  Any other
            # error is a fault.
            wire_units = units
        handle = lease_pool(jobs)
        try:
            unit_results = list(handle.executor.map(_execute_unit,
                                                    wire_units))
        except Exception:
            # A broken pool (killed worker) poisons every later map on
            # the same executor — drop it so the next lease starts
            # clean.
            release_pool(handle, broken=True)
            raise
        release_pool(handle)

    out: List[Optional[PerfSample]] = [None] * len(tasks)
    for idxs, samples in zip(owners, unit_results):
        for j, s in zip(idxs, samples):
            out[j] = s
    return out


def run_graph(methods: Sequence[str], graph: CSRGraph,
              cfg: Optional[BenchConfig] = None,
              roots: Optional[Sequence[int]] = None,
              jobs: Optional[int] = None,
              batch: Optional[int] = None,
              ) -> Dict[str, List[PerfSample]]:
    """Run several methods over the same root set on one graph.

    ``jobs`` (default: ``cfg.jobs``) > 1 fans the independent
    (method, root) samples across worker processes; ``batch`` (default:
    ``cfg.batch``) > 1 additionally runs Frontier samples in batches
    (one swarm where wide enough).  Results are
    identical to the serial scalar path either way (see
    :func:`_fan_out`).
    """
    cfg = cfg or BenchConfig()
    roots = list(roots) if roots is not None else pick_roots(graph, cfg)
    n_jobs = cfg.jobs if jobs is None else jobs
    n_batch = cfg.batch if batch is None else batch
    unknown = [m for m in methods if m not in ALL_METHODS]
    if unknown:
        raise BenchmarkError(
            f"unknown method(s) {unknown}; available: {sorted(ALL_METHODS)}"
        )
    tasks = [(m, graph, r, cfg) for m in methods for r in roots]
    flat = _fan_out(tasks, n_jobs, n_batch)
    n = len(roots)
    return {
        m: flat[i * n:(i + 1) * n]
        for i, m in enumerate(methods)
    }


def run_sweep(methods: Sequence[str], graphs: Sequence[CSRGraph],
              cfg: Optional[BenchConfig] = None,
              jobs: Optional[int] = None,
              batch: Optional[int] = None,
              ) -> Dict[str, Dict[str, List[PerfSample]]]:
    """Run a full (graph x method x root) sweep, optionally in parallel.

    Fans *all* samples of the sweep into one task list so the pool stays
    saturated across graph boundaries (a per-graph pool would drain at
    each graph's tail).  ``batch`` (default: ``cfg.batch``) > 1 runs
    Frontier samples as batches (one swarm where wide enough),
    composing with ``jobs`` as processes x batches.  Returns
    ``{graph.name: {method: [samples]}}`` with the same contents for
    any ``jobs``/``batch`` value.
    """
    cfg = cfg or BenchConfig()
    n_jobs = cfg.jobs if jobs is None else jobs
    n_batch = cfg.batch if batch is None else batch
    unknown = [m for m in methods if m not in ALL_METHODS]
    if unknown:
        raise BenchmarkError(
            f"unknown method(s) {unknown}; available: {sorted(ALL_METHODS)}"
        )
    per_graph_roots = [pick_roots(g, cfg) for g in graphs]
    tasks = [
        (m, g, r, cfg)
        for g, roots in zip(graphs, per_graph_roots)
        for m in methods
        for r in roots
    ]
    flat = _fan_out(tasks, n_jobs, n_batch)
    out: Dict[str, Dict[str, List[PerfSample]]] = {}
    i = 0
    for g, roots in zip(graphs, per_graph_roots):
        per_method: Dict[str, List[PerfSample]] = {}
        for m in methods:
            per_method[m] = flat[i:i + len(roots)]
            i += len(roots)
        out[g.name] = per_method
    return out


# ---------------------------------------------------------------------------
# Aggregation.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MethodSummary:
    """Per-(method, graph) aggregate over roots."""

    method: str
    graph: str
    mteps: float          # mean over successful roots; 0.0 if all failed
    n_roots: int
    n_failed: int

    @property
    def failed(self) -> bool:
        return self.n_failed == self.n_roots


def summarize_method(samples: Sequence[PerfSample]) -> MethodSummary:
    """Average a method's root samples (paper: mean over sources)."""
    if not samples:
        raise BenchmarkError("cannot summarize an empty sample list")
    ok = [s for s in samples if not s.failed]
    mteps = float(np.mean([s.mteps for s in ok])) if ok else 0.0
    return MethodSummary(
        method=samples[0].method,
        graph=samples[0].graph,
        mteps=mteps,
        n_roots=len(samples),
        n_failed=len(samples) - len(ok),
    )


def geomean_speedup(baseline: Sequence[MethodSummary],
                    candidate: Sequence[MethodSummary]) -> float:
    """Geometric-mean speedup of candidate over baseline across graphs.

    Pairs by graph name; graphs where either side failed are excluded
    (the paper's treatment of NVG-DFS failures).
    """
    base = {s.graph: s for s in baseline}
    ratios = []
    for cand in candidate:
        b = base.get(cand.graph)
        if b is None or b.failed or cand.failed or b.mteps <= 0:
            continue
        ratios.append(cand.mteps / b.mteps)
    if not ratios:
        raise BenchmarkError("no comparable (non-failed) graph pairs")
    return geometric_mean(ratios)
