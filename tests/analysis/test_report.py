"""Unit tests for the run-report renderer, sparkline and timeline."""

import pytest

from repro.analysis.report import (
    render_run_report,
    sparkline,
    warp_activity_timeline,
)
from repro.core import DiggerBeesConfig, run_diggerbees
from repro.graphs import generators as gen

CFG = DiggerBeesConfig(n_blocks=2, warps_per_block=2, hot_size=16,
                       hot_cutoff=4, cold_cutoff=4, flush_batch=4,
                       refill_batch=4, cold_reserve=16, seed=1)


@pytest.fixture(scope="module")
def run():
    """One traced run, read by the report and the timeline tests."""
    g = gen.road_network(800, seed=1)
    return run_diggerbees(g, 0, config=CFG.with_overrides(trace=True))


class TestSparkline:
    def test_empty(self):
        assert sparkline([]) == ""

    def test_constant(self):
        line = sparkline([5, 5, 5, 5], width=4)
        assert len(line) == 4
        assert len(set(line)) == 1

    def test_peak_is_full_block(self):
        line = sparkline([0, 1, 10], width=3)
        assert line[-1] == "█"
        assert line[0] == " "

    def test_rebuckets_long_series(self):
        line = sparkline(list(range(200)), width=10)
        assert len(line) == 10

    def test_invalid_width(self):
        with pytest.raises(ValueError):
            sparkline([1], width=0)

    def test_all_zero(self):
        assert sparkline([0, 0], width=2) == "  "


class TestRunReport:
    @pytest.fixture(scope="class")
    def report(self, run):
        return render_run_report(run)

    def test_sections_present(self, report):
        for token in ("run report", "MTEPS", "stealing:",
                      "block balance", "visit activity"):
            assert token in report
        # Only what the run recorded: no cycle budget rebuilt from the
        # counters.
        for token in ("cycle budget", "parallelism"):
            assert token not in report

    def test_no_timeline_without_trace(self):
        g = gen.path_graph(60)
        res = run_diggerbees(g, 0, config=CFG)
        rep = render_run_report(res)
        assert "visit activity" not in rep
        assert "MTEPS" in rep

    def test_multigpu_header(self):
        g = gen.road_network(600, seed=1)
        cfg = CFG.with_overrides(n_blocks=4, n_gpus=2)
        rep = render_run_report(run_diggerbees(g, 0, config=cfg))
        assert "on 2 GPUs" in rep


class TestTimeline:
    def test_histogram_covers_all_visits(self, run):
        hist = warp_activity_timeline(run)
        assert sum(hist.values()) == len(run.trace.filter(kind="visit"))

    def test_buckets_sorted(self, run):
        keys = list(warp_activity_timeline(run).keys())
        assert keys == sorted(keys)

    def test_requires_trace(self):
        g = gen.path_graph(50)
        res = run_diggerbees(g, 0, config=CFG)
        with pytest.raises(ValueError):
            warp_activity_timeline(res)

    def test_custom_bucket(self, run):
        coarse = warp_activity_timeline(run, bucket_cycles=run.cycles)
        assert len(coarse) <= 2
