"""Unit tests for the event-driven execution engine."""

import pytest

from repro.errors import DeadlockError, SimulationError
from repro.sim.engine import EventLoop, StepOutcome, deadlock_window


class CountdownAgent:
    """Performs `work` steps of the given cost, then finishes."""

    def __init__(self, work, cost=10):
        self.work = work
        self.cost = cost
        self.steps_at = []

    def step(self, now):
        self.steps_at.append(now)
        self.work -= 1
        if self.work <= 0:
            return StepOutcome(cost=self.cost, done=True)
        return StepOutcome(cost=self.cost)


class TestEventLoop:
    def test_single_agent_runs_to_completion(self):
        a = CountdownAgent(5, cost=7)
        res = EventLoop([a], is_terminated=lambda: False).run()
        assert len(a.steps_at) == 5
        assert res.steps == 5
        assert a.steps_at == [0, 7, 14, 21, 28]

    def test_cycles_reflect_last_event_time(self):
        a = CountdownAgent(3, cost=100)
        res = EventLoop([a], is_terminated=lambda: False).run()
        assert res.cycles == 200  # events at 0, 100, 200

    def test_agents_interleave_by_time(self):
        fast = CountdownAgent(4, cost=5)
        slow = CountdownAgent(2, cost=50)
        EventLoop([fast, slow], is_terminated=lambda: False).run()
        assert fast.steps_at == [0, 5, 10, 15]
        assert slow.steps_at == [0, 50]

    def test_deterministic_tie_break_by_insertion(self):
        order = []

        class Recorder:
            def __init__(self, tag):
                self.tag = tag

            def step(self, now):
                order.append(self.tag)
                return StepOutcome(cost=10, done=True)

        EventLoop([Recorder("a"), Recorder("b"), Recorder("c")],
                  is_terminated=lambda: False).run()
        assert order == ["a", "b", "c"]

    def test_termination_predicate_stops_early(self):
        a = CountdownAgent(1000)
        counter = {"n": 0}

        def terminated():
            counter["n"] += 1
            return counter["n"] > 10

        res = EventLoop([a], is_terminated=terminated).run()
        assert res.steps <= 10

    def test_no_agents_rejected(self):
        with pytest.raises(SimulationError):
            EventLoop([], is_terminated=lambda: False)

    def test_zero_cost_without_done_rejected(self):
        class Bad:
            def step(self, now):
                return StepOutcome(cost=0)

        with pytest.raises(SimulationError, match="non-positive cost"):
            EventLoop([Bad()], is_terminated=lambda: False).run()

    def test_max_cycles_guard(self):
        a = CountdownAgent(10**9, cost=1000)
        loop = EventLoop([a], is_terminated=lambda: False, max_cycles=5000)
        with pytest.raises(SimulationError, match="max_cycles"):
            loop.run()

    def test_deadlock_detection(self):
        class Spinner:
            def __init__(self):
                self.n = 0

            def step(self, now):
                self.n += 1
                return StepOutcome(cost=10, made_progress=False)

        spinner = Spinner()
        loop = EventLoop([spinner], is_terminated=lambda: False)
        with pytest.raises(DeadlockError):
            loop.run()
        # The step one past the window raises.
        assert spinner.n == deadlock_window(1) + 1

    def test_progress_resets_deadlock_window(self):
        class Mostly:
            def __init__(self):
                self.n = 0

            def step(self, now):
                self.n += 1
                if self.n >= 3 * window:
                    return StepOutcome(cost=1, done=True)
                # Progress once per window keeps the guard quiet.
                return StepOutcome(cost=1, made_progress=self.n % window == 0)

        window = deadlock_window(1)
        mostly = Mostly()
        EventLoop([mostly], is_terminated=lambda: False).run()  # no raise
        assert mostly.n == 3 * window

    def test_engine_result_seconds(self):
        a = CountdownAgent(2, cost=1000)
        res = EventLoop([a], is_terminated=lambda: False).run()
        assert res.seconds(1e9) == pytest.approx(res.cycles / 1e9)


#: The engine's two tie-break modes: FIFO (``calendar``, the order the
#: fused loop's calendar queue replays) and the schedule fuzzer's
#: seeded draws (``heap``; no jitter, so timing is exact).
DRAINS = {"calendar": {}, "heap": {"perturb_seed": 0}}


class TestMaxCyclesBoundary:
    """The budget is checked against ``ready_at`` *before* executing."""

    @pytest.mark.parametrize("drain", DRAINS)
    def test_event_exactly_at_budget_executes(self, drain):
        # Events at 0, 10, 20; max_cycles=20 admits all three.
        a = CountdownAgent(3, cost=10)
        res = EventLoop([a], is_terminated=lambda: False,
                        max_cycles=20, **DRAINS[drain]).run()
        assert a.steps_at == [0, 10, 20]
        assert res.cycles == 20 and res.steps == 3

    @pytest.mark.parametrize("drain", DRAINS)
    def test_over_budget_event_never_executes(self, drain):
        # The event at 20 exceeds max_cycles=19 and must raise without
        # the agent ever observing now=20.
        a = CountdownAgent(3, cost=10)
        loop = EventLoop([a], is_terminated=lambda: False,
                         max_cycles=19, **DRAINS[drain])
        with pytest.raises(SimulationError, match="max_cycles"):
            loop.run()
        assert a.steps_at == [0, 10]


class TestSchedulerEquivalence:
    """Both tie-break modes advance every agent on the same ``ready_at``
    timeline; without jitter the seeded draws only reorder same-cycle
    ties."""

    def test_identical_step_order_and_result(self):
        def make_agents():
            # Mixed costs force both shared-timestamp buckets and
            # interleaving reschedules.
            return [CountdownAgent(6, cost=c) for c in (3, 3, 7, 1, 5)]

        results = {}
        traces = {}
        for drain, kwargs in DRAINS.items():
            agents = make_agents()
            results[drain] = EventLoop(
                agents, is_terminated=lambda: False, **kwargs
            ).run()
            traces[drain] = [a.steps_at for a in agents]
        assert results["heap"] == results["calendar"]
        assert traces["heap"] == traces["calendar"]
