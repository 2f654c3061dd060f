"""DiggerBees configuration (paper §3 parameters and §4.5 versions).

The defaults are the paper's: ``hot_size = 128`` entries per warp HotRing,
``hot_cutoff = 32`` for intra-block stealing, ``cold_cutoff = 64`` for
inter-block stealing.  The four progressive versions of the §4.5
breakdown are exposed as constructors:

* ``v1`` — one-level stack (global memory), single block, intra-block
  stealing only;
* ``v2`` — two-level stack, single block, intra-block stealing only;
* ``v3`` — two-level stack, half the SMs, intra- + inter-block stealing;
* ``v4`` — two-level stack, one block per SM, full mechanism.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from repro.errors import SimulationError
from repro.sim.device import DeviceSpec, H100, hotring_smem_bytes

__all__ = ["DiggerBeesConfig", "ServeConfig", "VICTIM_POLICIES"]

VICTIM_POLICIES = ("two_choice", "random")


@dataclass(frozen=True)
class DiggerBeesConfig:
    """Complete parameterization of a DiggerBees run.

    Parameters
    ----------
    n_blocks, warps_per_block:
        Grid shape.  The paper launches one block per SM (v4) with warps
        as the execution unit; ``warps_per_block`` defaults to 4 so the
        per-warp work at simulator scale matches the paper's at full
        scale.
    hot_size:
        HotRing capacity in entries (circular buffer; one slot is kept
        free to distinguish full from empty, so ``hot_size - 1`` usable).
    hot_cutoff / cold_cutoff:
        Minimum victim stack depth for intra-/inter-block stealing; a
        thief reserves half the cutoff per steal (paper §3.4/§3.5).
    flush_batch / refill_batch:
        Entries moved per HotRing<->ColdSeg transfer (paper leaves the
        value open; a quarter ring balances transfer cost and reuse).
    two_level:
        ``False`` selects the v1 ablation: each warp's whole stack is one
        :class:`~repro.core.twolevel_stack.OneLevelStack` in global
        memory, and every stack operation pays global latency.
        Such runs, like perturbed and traced ones, drain through the
        generic event loop with the reference expand; every other run
        takes the fused loop (:func:`repro.core.turbo.turbo_eligible`).
    enable_inter_steal:
        Mechanism switch for the §4.5 breakdown (v1 and v2 run one
        block with it off).  Intra-block stealing is always on: every
        version steals within blocks.
    victim_policy:
        ``"two_choice"`` (paper, load-aware power-of-two-choices) or
        ``"random"`` (the Fig 9 baseline).
    flush_policy:
        ``"tail"`` (paper §3.3: flush the oldest entries) or ``"head"``
        (ablation: flush the newest).
    cold_reserve:
        Initial per-warp ColdSeg capacity in entries; segments grow and
        compact dynamically (see :class:`repro.core.twolevel_stack.ColdSeg`).
    n_gpus:
        Multi-GPU extension (beyond the paper): blocks are partitioned
        contiguously across GPUs; stealing prefers same-GPU victims and
        falls back to NVLink-priced remote steals only when an entire
        GPU runs dry (hierarchical stealing in the spirit of the
        multi-GPU systems the paper's related work cites).
    seed:
        Seed for victim sampling; runs are fully deterministic given it.
    trace:
        Record every warp's visit, pop, steal, flush and refill events
        in a :class:`~repro.sim.trace.TraceLog`
        (``DiggerBeesResult.trace``), as the §3.6 execution example and
        the Chrome-trace export read them.  Traced runs drain through
        the generic event loop, whose
        :class:`~repro.core.warp_dfs.WarpAgent` steps record the events:
        the schedule is the untraced one, at two to three times its
        wall time.
    perturb_seed / jitter:
        Schedule-fuzzing knobs (``repro.check``): with ``perturb_seed``
        set the engine drains same-cycle events in a seeded random order
        instead of FIFO, and ``jitter`` adds up to that many random extra
        cycles to every reschedule.  Both explore alternative *legal*
        interleavings of the cost model; correctness invariants must hold
        under every one of them.  ``jitter > 0`` requires a seed.
    adversarial_victims:
        Fuzzing knob: steal-victim selection picks a *random* qualifying
        victim (seeded by ``seed``) instead of the deterministic
        max-depth victim, widening the set of steal interleavings the
        fuzzer can reach.  Off in production runs.
    """

    n_blocks: int = 4
    warps_per_block: int = 4
    n_gpus: int = 1
    hot_size: int = 128
    hot_cutoff: int = 32
    cold_cutoff: int = 64
    flush_batch: int = 32
    refill_batch: int = 32
    two_level: bool = True
    enable_inter_steal: bool = True
    victim_policy: str = "two_choice"
    flush_policy: str = "tail"
    cold_reserve: int = 256
    seed: int = 0
    trace: bool = False
    max_cycles: int = 200_000_000_000
    perturb_seed: Optional[int] = None
    jitter: int = 0
    adversarial_victims: bool = False

    def __post_init__(self) -> None:
        if self.n_blocks < 1:
            raise SimulationError(f"n_blocks must be >= 1, got {self.n_blocks}")
        if self.n_gpus < 1:
            raise SimulationError(f"n_gpus must be >= 1, got {self.n_gpus}")
        if self.n_blocks % self.n_gpus != 0:
            raise SimulationError(
                f"n_blocks ({self.n_blocks}) must divide evenly across "
                f"{self.n_gpus} GPUs"
            )
        if self.warps_per_block < 1 or self.warps_per_block > 32:
            raise SimulationError(
                f"warps_per_block must be in [1, 32] (32-bit active mask), "
                f"got {self.warps_per_block}"
            )
        if self.hot_size < 4:
            raise SimulationError(f"hot_size must be >= 4, got {self.hot_size}")
        if not (1 <= self.hot_cutoff < self.hot_size):
            raise SimulationError(
                f"hot_cutoff must be in [1, hot_size), got {self.hot_cutoff}"
            )
        if self.cold_cutoff < 2:
            raise SimulationError(f"cold_cutoff must be >= 2, got {self.cold_cutoff}")
        if not (1 <= self.flush_batch < self.hot_size):
            raise SimulationError(
                f"flush_batch must be in [1, hot_size), got {self.flush_batch}"
            )
        if not (1 <= self.refill_batch < self.hot_size):
            raise SimulationError(
                f"refill_batch must be in [1, hot_size), got {self.refill_batch}"
            )
        if self.victim_policy not in VICTIM_POLICIES:
            raise SimulationError(
                f"victim_policy must be one of {VICTIM_POLICIES}, "
                f"got {self.victim_policy!r}"
            )
        if self.flush_policy not in ("tail", "head"):
            raise SimulationError(
                f"flush_policy must be 'tail' or 'head', "
                f"got {self.flush_policy!r}"
            )
        if self.cold_reserve < self.cold_cutoff:
            raise SimulationError(
                f"cold_reserve ({self.cold_reserve}) must be >= cold_cutoff "
                f"({self.cold_cutoff})"
            )
        if self.jitter < 0:
            raise SimulationError(f"jitter must be >= 0, got {self.jitter}")
        if self.jitter and self.perturb_seed is None:
            raise SimulationError(
                "jitter > 0 requires perturb_seed (jitter samples come "
                "from the schedule-perturbation RNG)"
            )

    @property
    def n_warps(self) -> int:
        """Total warp count across the grid."""
        return self.n_blocks * self.warps_per_block

    @property
    def blocks_per_gpu(self) -> int:
        return self.n_blocks // self.n_gpus

    def gpu_of_block(self, block_id: int) -> int:
        """GPU owning ``block_id`` (contiguous partition)."""
        return block_id // self.blocks_per_gpu

    @property
    def intra_steal_amount(self) -> int:
        """Entries reserved per intra-block steal (hot_cutoff / 2)."""
        return max(1, self.hot_cutoff // 2)

    @property
    def inter_steal_amount(self) -> int:
        """Entries reserved per inter-block steal (cold_cutoff / 2)."""
        return max(1, self.cold_cutoff // 2)

    def check_fits_device(self, device: DeviceSpec) -> None:
        """Raise unless the HotRings fit the device's shared memory
        (paper issue #1: this is exactly the constraint that forces the
        two-level design)."""
        if not self.two_level:
            return  # v1 keeps the stack in global memory
        need = hotring_smem_bytes(self.hot_size, self.warps_per_block)
        if need > device.shared_mem_per_block:
            raise SimulationError(
                f"HotRings need {need} B of shared memory per block but "
                f"{device.name} provides {device.shared_mem_per_block} B"
            )

    def with_overrides(self, **kwargs) -> "DiggerBeesConfig":
        """Copy with field overrides."""
        return replace(self, **kwargs)

    # ------------------------------------------------------------------
    # The four §4.5 breakdown versions.
    # ------------------------------------------------------------------
    @classmethod
    def v1(cls, device: DeviceSpec = H100, *, sim_scale: float = 1.0,
           **overrides) -> "DiggerBeesConfig":
        """One-level (global-memory) stack, one block, intra-block stealing."""
        base = dict(n_blocks=1, two_level=False, enable_inter_steal=False)
        base.update(overrides)
        return cls(**base)

    @classmethod
    def v2(cls, device: DeviceSpec = H100, *, sim_scale: float = 1.0,
           **overrides) -> "DiggerBeesConfig":
        """Two-level stack, one block, intra-block stealing."""
        base = dict(n_blocks=1, two_level=True, enable_inter_steal=False)
        base.update(overrides)
        return cls(**base)

    @classmethod
    def v3(cls, device: DeviceSpec = H100, *, sim_scale: float = 1.0,
           **overrides) -> "DiggerBeesConfig":
        """Two-level stack, half the SMs, intra + inter stealing (66 blocks on H100)."""
        blocks = max(1, device.default_blocks(sim_scale) // 2)
        base = dict(n_blocks=blocks, two_level=True, enable_inter_steal=True)
        base.update(overrides)
        return cls(**base)

    @classmethod
    def v4(cls, device: DeviceSpec = H100, *, sim_scale: float = 1.0,
           **overrides) -> "DiggerBeesConfig":
        """Full DiggerBees: one block per SM (132 blocks on H100)."""
        blocks = device.default_blocks(sim_scale)
        base = dict(n_blocks=blocks, two_level=True, enable_inter_steal=True)
        base.update(overrides)
        return cls(**base)

    @classmethod
    def version(cls, v: int, device: DeviceSpec = H100, *, sim_scale: float = 1.0,
                **overrides) -> "DiggerBeesConfig":
        """Constructor dispatch by version number 1-4."""
        ctors = {1: cls.v1, 2: cls.v2, 3: cls.v3, 4: cls.v4}
        if v not in ctors:
            raise SimulationError(f"version must be 1-4, got {v}")
        return ctors[v](device, sim_scale=sim_scale, **overrides)


@dataclass(frozen=True)
class ServeConfig:
    """Knobs of the traversal query service (:mod:`repro.serve`).

    Lives next to :class:`DiggerBeesConfig` because the admission layer
    is an engine-level concern: frontier-family queries that arrive
    while every executor slot is busy coalesce into batches of at most
    ``max_batch``, which run as one lockstep swarm (see
    :func:`repro.core.dispatch.run_batch`) from ``SWARM_MIN_WIDTH`` up.
    No query waits while a slot is free, and DFS-family queries never
    coalesce (:mod:`repro.serve.admission`).

    Parameters
    ----------
    max_batch:
        Hard cap on requests per admission batch.  ``1`` disables
        coalescing: every query runs alone.
    jobs:
        Worker processes for query execution, and so the executor
        slots admission fills (two per worker).  ``0`` executes in the
        daemon process (two threads, two slots) — no pickling, no
        shared memory, ideal for tests and the check oracle; ``>= 1``
        routes batches through the persistent process pool in
        :mod:`repro.bench.harness` with zero-copy shm graph hand-off.
    cache_entries:
        Per-graph result-cache capacity (LRU).  ``0`` disables caching.
    cache_dir:
        Disk spill for the result cache: ``None`` resolves
        ``$REPRO_SERVE_CACHE`` (or the default user cache dir), ``"off"``
        (or ``"0"``, ``"none"``, ``"disabled"``, blank) keeps the cache
        memory-only, any other string is used as the directory path
        (:func:`repro.graphs.diskcache.resolve_cache_dir`).
    drain_timeout:
        Seconds a clean shutdown waits for in-flight batches before
        abandoning them.
    backend:
        Answer family for DFS queries: ``"dfs"`` (default) answers
        every query with the DFS simulation; ``"frontier"`` forces the
        bit-packed BFS (:mod:`repro.core.frontier`; an admission group
        of at least ``SWARM_MIN_WIDTH`` queries runs as
        one lockstep swarm, :mod:`repro.core.swarm`); ``"auto"`` routes
        per graph shape through
        :func:`repro.core.dispatch.choose_backend` — a graph whose BFS
        from vertex 0 has at least ``DFS_MIN_LEVELS_PER_VERTEX`` levels
        per vertex goes to DFS, degenerate and all other graphs to the
        frontier family, and any query carrying engine-config
        overrides stays on DFS.  Routing is a deterministic function of
        the graph fingerprint and the query, and the resolved backend is
        part of the result-cache key.
    """

    max_batch: int = 64
    jobs: int = 0
    cache_entries: int = 4096
    cache_dir: Optional[str] = None
    drain_timeout: float = 10.0
    backend: str = "dfs"

    def __post_init__(self) -> None:
        if self.max_batch < 1:
            raise SimulationError(
                f"max_batch must be >= 1, got {self.max_batch}")
        if self.jobs < 0:
            raise SimulationError(f"jobs must be >= 0, got {self.jobs}")
        if self.cache_entries < 0:
            raise SimulationError(
                f"cache_entries must be >= 0, got {self.cache_entries}")
        if self.drain_timeout < 0:
            raise SimulationError(
                f"drain_timeout must be >= 0, got {self.drain_timeout}")
        from repro.core.dispatch import BACKEND_CHOICES

        if self.backend not in BACKEND_CHOICES:
            raise SimulationError(
                f"backend must be one of {BACKEND_CHOICES}, "
                f"got {self.backend!r}")

    def with_(self, **kwargs) -> "ServeConfig":
        return replace(self, **kwargs)
