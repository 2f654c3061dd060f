"""The paper's contribution: two-level stack + hierarchical block-level
stealing DFS (DiggerBees)."""

from repro.core.config import DiggerBeesConfig
from repro.core.diggerbees import (DiggerBeesResult, run_diggerbees,
                                   run_diggerbees_multi)
from repro.core.twolevel_stack import ColdSeg, HotRing, OneLevelStack, WarpStack

__all__ = [
    "DiggerBeesConfig",
    "run_diggerbees",
    "DiggerBeesResult",
    "run_diggerbees_multi",
    "HotRing",
    "ColdSeg",
    "WarpStack",
    "OneLevelStack",
]
