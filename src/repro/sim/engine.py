"""Deterministic event-driven execution engine.

The engine steps a set of :class:`Agent` objects (DiggerBees warps on
the reference path and on runs the fused loop cannot take, and the
naive GPU DFS baseline's warps) in global cycle order.  Each ``step``
performs one atomic action against shared state and returns its cost in
cycles; the agent is then re-scheduled at ``now + cost``.  Atomicity at step
granularity gives exact CAS semantics: the winner's mutation is visible to
every later step, losers observe the new value.

Determinism: events are totally ordered by ``(ready_at, seq)`` where
``seq`` is a monotonically increasing tie-breaker, so two runs with the
same seed produce identical schedules.  (FIFO tie-breaking also mirrors
fair hardware arbitration of simultaneous requests.)  The loop drains a
binary heap of ``(ready_at, tie, seq, agent)`` entries with ``tie = 0``,
which is exactly that order.  It is the reference the fused drains are
checked against: DiggerBees runs on two-level stacks replay the same
order with a calendar queue in :mod:`repro.core.turbo`, and the CPU
baselines with their own heap in :mod:`repro.baselines.pdfs_cpu`.

Termination is algorithm-defined via ``is_terminated``; the engine adds a
deadlock guard (progress must occur within :func:`deadlock_window`
consecutive steps) and a hard ``max_cycles`` safety net.  The budget is
checked against each event's ``ready_at`` *before* the step executes, so
no over-budget step is ever run.  The predicate is polled before every
step, so cycle counts are exact and bit-for-bit reproducible.

Schedule fuzzing (``repro.check``)
----------------------------------
``perturb_seed`` switches the loop into the *perturbed* schedule used by
the correctness fuzzer: ``tie`` becomes a random draw, so same-cycle
events run in a random order instead of FIFO, and ``jitter`` adds a
random 0..jitter cycle latency to every reschedule, both drawn from a
``random.Random`` seeded with ``perturb_seed``.  The perturbed schedule
is still a *legal* interleaving of the cost model — every event still
runs at or after its ready time and step atomicity is preserved — so any
invariant or validation failure it surfaces is a real protocol bug, not
a fuzzing artifact.  Runs are deterministic given the seed.  ``on_step``
is an optional observer called with the running step count after every
executed step; the invariant monitor uses it to run periodic global
sweeps.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass
from typing import Callable, Optional, Protocol, Sequence

from repro.errors import DeadlockError, SimulationError

__all__ = ["Agent", "StepOutcome", "EngineResult", "EventLoop",
           "DEFAULT_MAX_CYCLES", "over_budget_error", "deadlock_window",
           "deadlocked_error", "non_positive_cost_error"]

#: Default ``max_cycles``: a runaway guard far above any calibrated run.
DEFAULT_MAX_CYCLES = 50_000_000_000


# ----------------------------------------------------------------------
# Shared error formatting.  The generic engine, the turbo fused loop and
# the CPU baselines' drain (``repro.baselines.pdfs_cpu._drain``) all
# promise *identical* failure behavior: one message format per failure
# class, asserted by the differential ladder and the CPU drain's
# white-box tests, so the three drains build their exceptions here.
def over_budget_error(max_cycles: int, ready_at: int,
                      steps: int) -> SimulationError:
    return SimulationError(
        f"simulation exceeded max_cycles={max_cycles} "
        f"(next event at {ready_at}, steps={steps}); cost model or "
        f"algorithm is runaway"
    )


def deadlock_window(n_agents: int) -> int:
    """Consecutive no-progress steps a drain of ``n_agents`` tolerates.

    One step more raises :func:`deadlocked_error`.  Sized generously
    relative to the agent count so legitimate idle phases (everyone
    polling while one warp works) never trip it.
    """
    return max(10_000, 200 * n_agents)


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
    perturb_seed:
        When not None, run the *perturbed* schedule: same-cycle events
        are drained in a random (seeded, deterministic) order instead of
        FIFO, exploring alternative legal interleavings.  Used by the
        ``repro.check`` schedule fuzzer.
    jitter:
        Maximum extra latency (cycles) randomly added to each reschedule
        of a perturbed schedule.  Requires ``perturb_seed``.
    on_step:
        Optional observer called with the cumulative step count after
        every executed step (invariant-monitor hook).

    More than :func:`deadlock_window` consecutive steps without progress
    while ``is_terminated`` stays False raise ``DeadlockError``.
    """

    def __init__(
        self,
        agents: Sequence[Agent],
        *,
        is_terminated: Callable[[], bool],
        max_cycles: int = DEFAULT_MAX_CYCLES,
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
        self._perturb_seed = perturb_seed
        self._jitter = int(jitter)
        self._on_step = on_step

    def run(self) -> EngineResult:
        """Run to termination; returns elapsed cycles and step count.

        A binary heap over ``(ready_at, tie, seq, agent)`` entries:
        ``seq`` numbers the schedulings, so it breaks ties FIFO and keeps
        the comparison total (agents are never compared).  Unperturbed
        runs set ``tie = 0``, which leaves the drain order exactly
        ``(ready_at, seq)``.  A perturbed run draws every ``tie`` from
        ``random.Random(perturb_seed)``, scrambling the order of
        same-cycle events, and with ``jitter > 0`` each reschedule first
        draws an extra ``U[0, jitter]`` cycles, so a (seed, jitter) pair
        names one concrete interleaving exactly.
        """
        agents = self._agents
        if self._perturb_seed is None:
            rnd = randbits = None
        else:
            rnd = random.Random(self._perturb_seed)
            randbits = rnd.getrandbits
        jitter = self._jitter
        heap = [(0, 0 if randbits is None else randbits(32), seq, agent)
                for seq, agent in enumerate(agents)]
        heapq.heapify(heap)
        next_seq = len(agents)
        now = 0
        steps = 0
        stale = 0

        pop = heapq.heappop
        push = heapq.heappush
        is_terminated = self._is_terminated
        max_cycles = self._max_cycles
        window = deadlock_window(len(agents))
        on_step = self._on_step

        while heap:
            # Termination is observed *before* time advances to the next
            # event, so `cycles` never includes an abandoned event.
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
                push(heap, (now + cost,
                            0 if randbits is None else randbits(32),
                            next_seq, agent))
                next_seq += 1

        return EngineResult(cycles=now, steps=steps, agents=len(agents))
