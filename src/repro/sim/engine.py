"""Deterministic event-driven execution engine.

The engine steps a set of :class:`Agent` objects (DiggerBees warps on
runs the fused loop cannot take, and the naive GPU DFS baseline's warps)
in global cycle order.  Each ``step`` performs one
atomic action against shared state and returns its cost in cycles; the
agent is then re-scheduled at ``now + cost``.  Atomicity at step
granularity gives exact CAS semantics: the winner's mutation is visible to
every later step, losers observe the new value.

Determinism: events are totally ordered by ``(ready_at, seq)`` where
``seq`` is a monotonically increasing tie-breaker, so two runs with the
same seed produce identical schedules.  (FIFO tie-breaking also mirrors
fair hardware arbitration of simultaneous requests.)

The production drain is a bucketed calendar queue: events land in a
FIFO bucket per distinct ``ready_at`` and a small heap orders only the
distinct timestamps.  Because an agent is always rescheduled at
``now + cost`` with ``cost >= 1``, insertions never target the bucket
currently draining, and because ``seq`` order equals scheduling order,
bucket FIFO order *is* ``(ready_at, seq)`` order.  DiggerBees runs that
use the expand fast path replay exactly this order in the fused loop of
:mod:`repro.core.turbo`, and the CPU baselines replay it in the fused
drain of :mod:`repro.baselines.pdfs_cpu`.

Termination is algorithm-defined via ``is_terminated``; the engine adds a
deadlock guard (progress must occur within ``deadlock_window`` consecutive
steps) and a hard ``max_cycles`` safety net.  The budget is checked
against each event's ``ready_at`` *before* the step executes, so no
over-budget step is ever run.  The predicate is polled before every
step, so cycle counts are exact and bit-for-bit reproducible.

Schedule fuzzing (``repro.check``)
----------------------------------
``perturb_seed`` switches the loop into the *perturbed* scheduler used by
the correctness fuzzer: tie-breaking among same-cycle events is
randomized (instead of FIFO) and ``jitter`` adds a random 0..jitter cycle
latency to every reschedule, both drawn from a ``random.Random`` seeded
with ``perturb_seed``.  The perturbed schedule is still a *legal*
interleaving of the cost model — every event still runs at or after its
ready time and step atomicity is preserved — so any invariant or
validation failure it surfaces is a real protocol bug, not a fuzzing
artifact.  Runs are deterministic given the seed.  ``on_step`` is an
optional observer called with the running step count after every executed
step; the invariant monitor uses it to run periodic global sweeps.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass
from typing import Callable, Optional, Protocol, Sequence

from repro.errors import DeadlockError, SimulationError

__all__ = ["Agent", "StepOutcome", "EngineResult", "EventLoop",
           "DEFAULT_MAX_CYCLES", "over_budget_error", "deadlocked_error",
           "non_positive_cost_error"]

#: Default ``max_cycles``: a runaway guard far above any calibrated run.
DEFAULT_MAX_CYCLES = 50_000_000_000


# ----------------------------------------------------------------------
# Shared error formatting.  The generic engine, the turbo fused loop,
# the hive batch engine and the CPU baselines' drain
# (``repro.baselines.pdfs_cpu._drain``) all promise *identical* failure
# behavior: one message format per failure class, asserted by the
# differential ladder and the CPU drain's white-box tests, so the four
# drains build their exceptions here.
def over_budget_error(max_cycles: int, ready_at: int,
                      steps: int) -> SimulationError:
    return SimulationError(
        f"simulation exceeded max_cycles={max_cycles} "
        f"(next event at {ready_at}, steps={steps}); cost model or "
        f"algorithm is runaway"
    )


def deadlocked_error(stale: int, now: int) -> DeadlockError:
    return DeadlockError(
        f"no progress in {stale} consecutive steps at cycle "
        f"{now} with work pending"
    )


def non_positive_cost_error(agent: object, cost: int) -> SimulationError:
    return SimulationError(
        f"agent {agent!r} returned non-positive cost "
        f"{cost} without finishing"
    )


class StepOutcome:
    """Result of one agent step.

    ``cost`` — cycles consumed (must be >= 1 unless the agent is done).
    ``made_progress`` — True when the step advanced the global computation
    (visited a vertex, moved entries, acquired work); used by the deadlock
    guard, so an algorithm in which *only* failed steal attempts and idle
    polls occur for a long window is reported as deadlocked.
    ``done`` — the agent leaves the schedule permanently.

    A plain ``__slots__`` class rather than a dataclass: one is allocated
    per simulated step, so construction cost is on the engine's critical
    path.  Treat instances as immutable once returned.
    """

    __slots__ = ("cost", "made_progress", "done")

    def __init__(self, cost: int, made_progress: bool = True,
                 done: bool = False):
        self.cost = cost
        self.made_progress = made_progress
        self.done = done

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"StepOutcome(cost={self.cost}, "
                f"made_progress={self.made_progress}, done={self.done})")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, StepOutcome):
            return NotImplemented
        return (self.cost == other.cost
                and self.made_progress == other.made_progress
                and self.done == other.done)


class Agent(Protocol):
    """Anything the event loop can schedule."""

    def step(self, now: int) -> StepOutcome:  # pragma: no cover - protocol
        """Perform one atomic action at simulated time ``now``."""
        ...


@dataclass
class EngineResult:
    """Outcome of one simulation: elapsed cycles and scheduling stats."""

    cycles: int
    steps: int
    agents: int

    def seconds(self, clock_hz: float) -> float:
        return self.cycles / clock_hz


class EventLoop:
    """Deterministic scheduler (see module docstring).

    Parameters
    ----------
    agents:
        The agents to schedule; all start ready at time 0.
    is_terminated:
        Global predicate checked between steps; when it turns True the
        loop stops immediately (remaining queued events are abandoned,
        modelling kernel exit once the done-flag is observed).
    max_cycles:
        Hard upper bound on simulated time (safety net against
        miscalibrated runs).  An event whose ``ready_at`` exceeds it
        raises ``SimulationError`` *without executing*.
    deadlock_window:
        If no step reports progress for this many consecutive steps while
        ``is_terminated`` stays False, raise ``DeadlockError``.  Sized
        generously relative to the agent count so legitimate idle phases
        (everyone polling while one warp works) never trip it.
    perturb_seed:
        When not None, run the *perturbed* scheduler: same-cycle events
        are drained in a random (seeded, deterministic) order instead of
        FIFO, exploring alternative legal interleavings.  Used by the
        ``repro.check`` schedule fuzzer.
    jitter:
        Maximum extra latency (cycles) randomly added to each reschedule
        under the perturbed scheduler.  Requires ``perturb_seed``.
    on_step:
        Optional observer called with the cumulative step count after
        every executed step (invariant-monitor hook).
    """

    def __init__(
        self,
        agents: Sequence[Agent],
        *,
        is_terminated: Callable[[], bool],
        max_cycles: int = DEFAULT_MAX_CYCLES,
        deadlock_window: Optional[int] = None,
        perturb_seed: Optional[int] = None,
        jitter: int = 0,
        on_step: Optional[Callable[[int], None]] = None,
    ):
        if not agents:
            raise SimulationError("event loop needs at least one agent")
        if jitter < 0:
            raise SimulationError(f"jitter must be >= 0, got {jitter}")
        if jitter and perturb_seed is None:
            raise SimulationError("jitter requires perturb_seed")
        self._agents = list(agents)
        self._is_terminated = is_terminated
        self._max_cycles = int(max_cycles)
        self._deadlock_window = deadlock_window or max(10_000, 200 * len(agents))
        self._perturb_seed = perturb_seed
        self._jitter = int(jitter)
        self._on_step = on_step

    def run(self) -> EngineResult:
        """Run to termination; returns elapsed cycles and step count."""
        if self._perturb_seed is not None:
            return self._run_perturbed()
        return self._run_calendar()

    # ------------------------------------------------------------------
    def _run_calendar(self) -> EngineResult:
        """Bucketed calendar-queue scheduler.

        ``buckets`` maps each distinct ``ready_at`` to a FIFO list of
        agents; ``times`` is a heap over the distinct timestamps only.
        Rescheduling appends at ``now + cost > now``, so the bucket being
        drained never grows, and appends happen in ``seq`` order — the
        drain order is exactly ``(ready_at, seq)``.
        """
        buckets = {0: list(self._agents)}
        times = [0]
        now = 0
        steps = 0
        stale = 0

        pop_time = heapq.heappop
        push_time = heapq.heappush
        is_terminated = self._is_terminated
        max_cycles = self._max_cycles
        window = self._deadlock_window
        on_step = self._on_step

        while times:
            t = times[0]
            bucket = buckets[t]
            for agent in bucket:
                # Termination is observed *before* time advances to this
                # event, so `cycles` never includes an abandoned event.
                if is_terminated():
                    return EngineResult(cycles=now, steps=steps,
                                        agents=len(self._agents))
                if t > now:
                    if t > max_cycles:
                        raise over_budget_error(max_cycles, t, steps)
                    now = t
                outcome = agent.step(now)
                steps += 1
                if on_step is not None:
                    on_step(steps)
                if outcome.made_progress:
                    stale = 0
                else:
                    stale += 1
                    if stale > window:
                        raise deadlocked_error(stale, now)
                if not outcome.done:
                    cost = outcome.cost
                    if cost < 1:
                        raise non_positive_cost_error(agent, cost)
                    t2 = now + cost
                    b2 = buckets.get(t2)
                    if b2 is None:
                        buckets[t2] = [agent]
                        push_time(times, t2)
                    else:
                        b2.append(agent)
            pop_time(times)
            del buckets[t]

        return EngineResult(cycles=now, steps=steps, agents=len(self._agents))

    # ------------------------------------------------------------------
    def _run_perturbed(self) -> EngineResult:
        """Schedule fuzzer: randomized tie-breaking plus latency jitter.

        A binary heap over ``(ready_at, rand, seq, agent)`` entries:
        ``rand`` scrambles the order of same-cycle events (FIFO in the
        calendar drain) and ``seq`` keeps the comparison total so
        agents are never compared.  With ``jitter > 0`` each reschedule
        lands ``cost + U[0, jitter]`` cycles out.  Every choice is drawn
        from ``random.Random(perturb_seed)``, so a (seed, jitter) pair
        names one concrete interleaving exactly.
        """
        rnd = random.Random(self._perturb_seed)
        randbits = rnd.getrandbits
        jitter = self._jitter
        heap = [(0, randbits(32), seq, agent)
                for seq, agent in enumerate(self._agents)]
        heapq.heapify(heap)
        next_seq = len(self._agents)
        now = 0
        steps = 0
        stale = 0

        pop = heapq.heappop
        push = heapq.heappush
        is_terminated = self._is_terminated
        max_cycles = self._max_cycles
        window = self._deadlock_window
        on_step = self._on_step

        while heap:
            if is_terminated():
                break
            ready_at, _, _, agent = pop(heap)
            if ready_at > now:
                if ready_at > max_cycles:
                    raise over_budget_error(max_cycles, ready_at, steps)
                now = ready_at
            outcome = agent.step(now)
            steps += 1
            if on_step is not None:
                on_step(steps)
            if outcome.made_progress:
                stale = 0
            else:
                stale += 1
                if stale > window:
                    raise deadlocked_error(stale, now)
            if not outcome.done:
                cost = outcome.cost
                if cost < 1:
                    raise non_positive_cost_error(agent, cost)
                if jitter:
                    cost += rnd.randrange(jitter + 1)
                push(heap, (now + cost, randbits(32), next_seq, agent))
                next_seq += 1

        return EngineResult(cycles=now, steps=steps, agents=len(self._agents))
