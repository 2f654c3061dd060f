"""Seeded random-number utilities.

Graph generators, transforms and benchmark source sampling draw from a
``numpy`` Generator created here, and every per-sample stream comes from
:func:`derive_seed`, so a single integer seed makes an entire experiment
deterministic and reproducible — a requirement for the event-driven
simulator (two runs with the same seed produce identical traces).  The
simulators' victim picks draw from per-agent ``PCG64`` streams spawned
from the run's seed through :class:`repro.utils.fastrand.BoundedDraws`.
"""

from __future__ import annotations

from typing import Union

import numpy as np

RngLike = Union[int, np.random.Generator, None]

#: Default seed used throughout the test and benchmark suites.
DEFAULT_SEED = 0xD166E4


def make_rng(seed: RngLike = None) -> np.random.Generator:
    """Return a ``numpy`` Generator from a seed, Generator, or ``None``.

    Passing an existing Generator returns it unchanged so callers can
    thread one RNG through a pipeline.  ``None`` yields a generator seeded
    with :data:`DEFAULT_SEED` (NOT entropy) — determinism is the default
    in this library; pass ``numpy.random.default_rng()`` explicitly if you
    want nondeterminism.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    if seed is None:
        seed = DEFAULT_SEED
    return np.random.default_rng(seed)


def derive_seed(base: int, *components: object) -> int:
    """Derive a stable 63-bit seed from a base seed and hashable context.

    ``derive_seed(seed, "fig5", graph_name)`` gives every (experiment,
    graph) pair its own reproducible stream without manual bookkeeping.
    Uses ``numpy.random.SeedSequence`` entropy mixing rather than
    ``hash()`` so results do not depend on ``PYTHONHASHSEED``.
    """
    mixed = [int(base) & 0x7FFFFFFFFFFFFFFF]
    for comp in components:
        if isinstance(comp, (int, np.integer)):
            mixed.append(int(comp) & 0x7FFFFFFFFFFFFFFF)
        else:
            # Stable string hashing via bytes -> int folding.
            data = str(comp).encode("utf-8")
            acc = 0
            for b in data:
                acc = (acc * 131 + b) & 0x7FFFFFFFFFFFFFFF
            mixed.append(acc)
    seq = np.random.SeedSequence(mixed)
    return int(seq.generate_state(1, dtype=np.uint64)[0] & 0x7FFFFFFFFFFFFFFF)
