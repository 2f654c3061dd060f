"""Property-based tests of the event engine's scheduling semantics."""

from typing import List

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import EventLoop, StepOutcome


class ScriptedAgent:
    """Executes a fixed list of step costs, recording when it ran."""

    def __init__(self, costs: List[int]):
        self.costs = list(costs)
        self.ran_at: List[int] = []

    def step(self, now: int) -> StepOutcome:
        self.ran_at.append(now)
        cost = self.costs.pop(0)
        return StepOutcome(cost=cost, done=not self.costs)


@given(st.lists(st.lists(st.integers(1, 50), min_size=1, max_size=12),
                min_size=1, max_size=6))
@settings(max_examples=80)
def test_agents_run_at_their_cumulative_cost_times(cost_lists):
    """Each agent's k-th step must occur at the sum of its first k-1
    costs — agents are independent clocks merged by the scheduler."""
    agents = [ScriptedAgent(costs) for costs in cost_lists]
    result = EventLoop(agents, is_terminated=lambda: False).run()
    for agent, costs in zip(agents, cost_lists):
        expected = [0]
        for c in costs[:-1]:
            expected.append(expected[-1] + c)
        assert agent.ran_at == expected
    assert result.steps == sum(len(c) for c in cost_lists)
    # Elapsed time is the max completion start across agents.
    assert result.cycles == max(a.ran_at[-1] for a in agents)


@given(st.lists(st.integers(1, 30), min_size=2, max_size=30))
@settings(max_examples=60)
def test_global_order_is_nondecreasing_in_time(costs):
    """Interleaved execution must be globally time-ordered."""
    order: List[int] = []

    class Recorder(ScriptedAgent):
        def step(self, now):
            order.append(now)
            return super().step(now)

    agents = [Recorder(costs), Recorder(list(reversed(costs)))]
    EventLoop(agents, is_terminated=lambda: False).run()
    assert order == sorted(order)


@given(st.integers(0, 2**31), st.lists(st.integers(1, 9), min_size=1,
                                       max_size=8))
@settings(max_examples=40)
def test_runs_are_reproducible(seed, costs):
    """Two identical schedules produce identical engine results."""
    r1 = EventLoop([ScriptedAgent(costs)], is_terminated=lambda: False).run()
    r2 = EventLoop([ScriptedAgent(costs)], is_terminated=lambda: False).run()
    assert (r1.cycles, r1.steps) == (r2.cycles, r2.steps)


@given(st.lists(st.lists(st.integers(1, 4), min_size=1, max_size=10),
                min_size=1, max_size=6))
@settings(max_examples=80)
def test_order_is_ready_at_then_scheduling_order(cost_lists):
    """Same-cycle events run in the order they were scheduled: the step
    sequence equals a brute-force ``(ready_at, seq)`` scheduler's — the
    order the fused DFS loop replays with its calendar queue."""
    order = []

    class Recorder(ScriptedAgent):
        def __init__(self, tag, costs):
            super().__init__(costs)
            self.tag = tag

        def step(self, now):
            order.append((now, self.tag))
            return super().step(now)

    EventLoop([Recorder(i, c) for i, c in enumerate(cost_lists)],
              is_terminated=lambda: False).run()

    expected = []
    left = [list(c) for c in cost_lists]
    pending = [(0, i, i) for i in range(len(left))]  # (ready_at, seq, tag)
    seq = len(pending)
    while pending:
        event = min(pending)
        pending.remove(event)
        now, _, tag = event
        expected.append((now, tag))
        cost = left[tag].pop(0)
        if left[tag]:
            pending.append((now + cost, seq, tag))
            seq += 1
    assert order == expected
