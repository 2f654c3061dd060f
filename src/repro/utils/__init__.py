"""Shared utilities: seeded RNG, table rendering, statistics."""

from repro.utils.rng import DEFAULT_SEED, derive_seed, make_rng
from repro.utils.stats import (
    coefficient_of_variation,
    geometric_mean,
    harmonic_mean,
    speedup_series,
    summarize,
)
from repro.utils.tables import format_kv, format_table, print_table

__all__ = [
    "DEFAULT_SEED",
    "make_rng",
    "derive_seed",
    "geometric_mean",
    "harmonic_mean",
    "coefficient_of_variation",
    "summarize",
    "speedup_series",
    "format_table",
    "print_table",
    "format_kv",
]
