"""Greedy failure shrinker for ``repro.check`` fuzz cases.

Given a failing :class:`~repro.check.cases.FuzzCase`, repeatedly try
simplifying transformations (smaller graph, fewer blocks/warps/GPUs,
default ring geometry, no jitter, no adversarial victims) and keep any
transformation under which :func:`~repro.check.differential.check_case`
still fails — regardless of *which* oracle stage fails, since a shrink
frequently shifts the failure to an earlier, clearer stage.  Stops at a
fixpoint or when the evaluation budget runs out.

The shrunk case is no longer derivable from its seed, so it is tagged
``shrunk_from=<original seed>`` and reproduced via a ``--case`` JSON
spec instead of a bare seed (see
:attr:`~repro.check.differential.CheckFailure.repro_command`).
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

from repro.check.cases import FuzzCase
from repro.check.differential import CheckFailure, check_case

__all__ = ["shrink_case"]

Transform = Tuple[str, Callable[[FuzzCase], FuzzCase]]


def _halve_vertices(c: FuzzCase) -> FuzzCase:
    return c.with_(n_vertices=max(8, c.n_vertices // 2))


def _clamped_ring(c: FuzzCase, hot_size: int) -> FuzzCase:
    return c.with_(
        hot_size=hot_size,
        hot_cutoff=min(c.hot_cutoff, hot_size - 1),
        flush_batch=min(c.flush_batch, hot_size - 1),
        refill_batch=min(c.refill_batch, hot_size - 1),
    )


#: Ordered, idempotent simplifications; earlier entries shrink harder.
TRANSFORMS: List[Transform] = [
    ("n/2", _halve_vertices),
    ("n/2", _halve_vertices),          # run twice per round: n shrinks fastest
    ("gpus=1", lambda c: c.with_(n_gpus=1)),
    ("blocks/2", lambda c: c.with_(
        n_blocks=max(1, c.n_blocks // 2), n_gpus=1)),
    ("warps/2", lambda c: c.with_(
        warps_per_block=max(1, c.warps_per_block // 2))),
    ("hot=8", lambda c: _clamped_ring(c, 8)),
    ("jitter=0", lambda c: c.with_(jitter=0)),
    ("no-adversarial", lambda c: c.with_(adversarial_victims=False)),
    ("no-perturb", lambda c: c.with_(perturb_seed=None, jitter=0)),
    ("family=path", lambda c: c.with_(family="path")),
]


def shrink_case(
    failure: CheckFailure,
    *,
    max_evals: int = 40,
    log: Optional[Callable[[str], None]] = None,
) -> CheckFailure:
    """Shrink ``failure`` greedily; returns the smallest failure found.

    Runs at most ``max_evals`` oracle-ladder evaluations.  The returned
    failure is ``failure`` itself if nothing smaller still fails.
    """
    best = failure
    current = failure.case
    evals = 0
    progressed = True
    while progressed and evals < max_evals:
        progressed = False
        for name, transform in TRANSFORMS:
            if evals >= max_evals:
                break
            candidate = transform(current).with_(
                shrunk_from=(current.shrunk_from
                             if current.shrunk_from is not None
                             else current.seed))
            if candidate == current:  # shrunk_from is compare=False
                continue  # transformation was a no-op
            evals += 1
            result = check_case(candidate, mutation=failure.mutation,
                                stress=failure.stress)
            if result is not None:
                current = candidate
                best = result
                progressed = True
                if log is not None:
                    log(f"  shrink[{name}] kept: {candidate.describe()} "
                        f"(stage={result.stage})")
    return best
