"""Unit tests for shared utilities (rng, stats, tables)."""

import numpy as np
import pytest

from repro.utils.rng import derive_seed, make_rng
from repro.utils.stats import (
    coefficient_of_variation,
    geometric_mean,
    harmonic_mean,
    speedup_series,
    summarize,
)
from repro.utils.tables import format_kv, format_table


class TestRng:
    def test_make_rng_deterministic_default(self):
        assert make_rng().integers(1000) == make_rng().integers(1000)

    def test_make_rng_passthrough(self):
        rng = np.random.default_rng(5)
        assert make_rng(rng) is rng

    def test_derive_seed_stable(self):
        assert derive_seed(7, "fig5", "euro") == derive_seed(7, "fig5", "euro")
        assert derive_seed(7, "fig5", "euro") != derive_seed(7, "fig5", "rgg")
        assert derive_seed(7, 1) != derive_seed(7, 2)


class TestStats:
    def test_geometric_mean(self):
        assert geometric_mean([1, 4]) == pytest.approx(2.0)
        assert geometric_mean([2, 2, 2]) == pytest.approx(2.0)

    def test_geometric_mean_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            geometric_mean([1.0, 0.0])
        with pytest.raises(ValueError):
            geometric_mean([])

    def test_harmonic_mean(self):
        assert harmonic_mean([1, 1]) == pytest.approx(1.0)
        assert harmonic_mean([2, 6]) == pytest.approx(3.0)

    def test_cov(self):
        assert coefficient_of_variation([5, 5, 5]) == 0.0
        assert coefficient_of_variation([0, 10]) == pytest.approx(1.0)
        with pytest.raises(ValueError):
            coefficient_of_variation([])
        with pytest.raises(ValueError):
            coefficient_of_variation([0, 0])

    def test_summarize(self):
        s = summarize([1, 2, 3, 4])
        assert s["min"] == 1 and s["max"] == 4
        assert s["median"] == 2.5 and s["count"] == 4

    def test_speedup_series(self):
        sp = speedup_series([1.0, 2.0], [2.0, 2.0])
        assert list(sp) == [2.0, 1.0]
        with pytest.raises(ValueError):
            speedup_series([1.0], [1.0, 2.0])


class TestTables:
    def test_basic_alignment(self):
        out = format_table(["name", "val"], [["a", 1.5], ["bb", 20.25]])
        lines = out.splitlines()
        assert "1.50" in out and "20.25" in out
        assert len({len(l) for l in lines if "|" in l}) == 1  # aligned

    def test_markdown_mode(self):
        out = format_table(["x", "y"], [["a", 1]], markdown=True)
        assert out.startswith("| x")
        assert "---" in out.splitlines()[1]

    def test_none_rendered_as_dash(self):
        out = format_table(["x"], [[None]])
        assert "-" in out

    def test_ragged_rows_rejected(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [["only-one"]])

    def test_title(self):
        out = format_table(["x"], [["v"]], title="My Table")
        assert out.splitlines()[0] == "My Table"

    def test_format_kv(self):
        out = format_kv([("alpha", 1), ("b", 2)])
        assert "alpha : 1" in out
        assert format_kv([]) == ""
