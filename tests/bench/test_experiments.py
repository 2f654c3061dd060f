"""Smoke + shape tests for the experiment definitions (tiny corpora).

The full-shape assertions live in ``benchmarks/``; these tests exercise
the experiment plumbing (aggregation, rendering, failure handling) with
corpora small enough for the unit-test suite.
"""

import pytest

from repro.bench import experiments as E
from repro.bench import harness
from repro.bench.harness import BenchConfig
from repro.graphs import collections as col
from repro.graphs import generators as gen

FAST = BenchConfig(sim_scale=0.05, warps_per_block=4, n_roots=1, seed=3)


@pytest.fixture(scope="module")
def tiny_corpus():
    return [
        gen.road_network(800, seed=1, name="mini_road").with_name(
            "mini_road", group="dimacs10"),
        gen.preferential_attachment(800, m=5, seed=1).with_name(
            "mini_social", group="snap"),
        gen.path_graph(2500).with_name("mini_path", group="dimacs10"),
    ]


class TestFig5:
    def test_structure_and_render(self, tiny_corpus):
        res = E.fig5(FAST, corpus=tiny_corpus)
        assert res.n_graphs == 3
        assert {r["graph"] for r in res.rows} == {
            "mini_road", "mini_social", "mini_path"}
        assert res.geomean_vs["NVG-DFS"] > 1.0
        out = res.render()
        assert "Figure 5" in out and "geomean" in out

    def test_nvg_failure_counted(self, tiny_corpus):
        res = E.fig5(FAST, corpus=tiny_corpus)
        # mini_path (depth 2500) must kill NVG's path tracking.
        assert res.nvg_failures >= 1
        row = next(r for r in res.rows if r["graph"] == "mini_path")
        assert row["NVG-DFS"] == 0.0


class TestFig7:
    def test_ratios_positive(self, tiny_corpus):
        res = E.fig7(FAST, corpus=tiny_corpus[:2])
        assert set(res.geomean_scalability) == {"DiggerBees", "NVG-DFS"}
        for r in res.rows:
            assert r["db_ratio"] > 0
        assert "H100" in res.render()

    def test_jobs_fan_out_each_graph_device_pair(self, tiny_corpus,
                                                 monkeypatch):
        serial = E.fig7(FAST, corpus=tiny_corpus[:2])
        fanned = []
        fan_out = harness._fan_out

        def spy(tasks, jobs, batch=1):
            fanned.append((len(tasks), jobs))
            return fan_out(tasks, jobs, batch)

        monkeypatch.setattr(harness, "_fan_out", spy)
        assert E.fig7(FAST.with_(jobs=2), corpus=tiny_corpus[:2]) == serial
        # One fan-out per (graph, device) pair: both methods, every root.
        assert fanned == [(2 * FAST.n_roots, 2)] * 4


class TestFig8:
    def test_versions_monotone_data(self):
        res = E.fig8(FAST, graphs=["euro_osm"])
        row = res.rows[0]
        assert row["v2"] > row["v1"]        # two-level stack helps
        assert row["v4"] >= row["v3"] * 0.8
        assert "v3/v2" in res.render()

    def test_step_geomeans(self):
        res = E.fig8(FAST, graphs=["amazon"])
        geo = res.step_geomeans()
        assert set(geo) == {"v2/v1", "v3/v2", "v4/v3"}


class TestFig9:
    def test_reports_and_render(self):
        res = E.fig9(FAST, graphs=["euro_osm"], repeats=2)
        row = res.rows[0]
        assert row["baseline"].max >= row["baseline"].min
        assert row["improvement"] > 0
        assert "Var." in res.render()


class TestFig10:
    def test_grid_normalized_at_default(self):
        res = E.fig10(FAST, graphs=["amazon"],
                      hot_values=(16, 32), cold_values=(32, 64))
        grid = res.grids["amazon"]
        i, j = res.default_cell
        assert grid[i, j] == pytest.approx(1.0)
        assert "Figure 10" in res.render()

    def test_custom_grid_without_default(self):
        res = E.fig10(FAST, graphs=["amazon"],
                      hot_values=(8, 16), cold_values=(16, 32))
        # Falls back to cell (0, 0) for normalization.
        assert res.default_cell == (0, 0)


class TestTables:
    def test_table1(self):
        assert "DiggerBees (this work)" in E.table1()

    def test_table2_custom_graph(self):
        g = gen.road_network(300, seed=5)
        out = E.table2(g)
        assert "unordered" in out

    def test_table3_counts(self):
        out = E.table3()
        assert "151/68/15" in out

    def test_table4_all_rows(self):
        out = E.table4(seed=7)
        for name in col.REPRESENTATIVE_NAMES:
            assert name in out
