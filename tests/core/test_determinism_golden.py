"""Golden determinism tests for the fast-path engine.

The contract of the fast path (the fused loop, :mod:`repro.core.turbo`)
is that it changes *nothing observable*: for a given seed, the oracle
(:func:`~repro.core.diggerbees.run_reference`: the reference expand on
the generic event loop, the seed repo's semantics) and the default
driver must produce bit-identical schedules — same cycle count, same
step count, same DFS tree.

Runs the fused loop cannot take (perturbed schedules, one-level stacks)
drain through the generic event loop.  Their schedules are pinned by
``generic_loop_golden.json``: per fuzz seed, cycles, steps, a digest of
the parent array, every counter and the per-block / per-warp task
tallies.  Re-record (only when a cost-model or protocol change is
*meant* to move the schedule)::

    PYTHONPATH=src python tests/core/test_determinism_golden.py --record
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.check.cases import case_from_seed
from repro.core import DiggerBeesConfig, run_diggerbees
from repro.core.diggerbees import run_reference
from repro.core.turbo import turbo_eligible
from repro.graphs import generators as gen
from repro.sim.trace import SimCounters

#: (graph builder, config) pairs spanning the structural regimes that
#: exercise different engine paths (deep road, shallow heavy-tail, mesh).
GOLDEN_CASES = [
    ("road", lambda: gen.road_network(800, seed=5),
     dict(n_blocks=4, warps_per_block=4, seed=5)),
    ("social", lambda: gen.preferential_attachment(900, m=5, seed=6),
     dict(n_blocks=4, warps_per_block=4, seed=6)),
    ("mesh", lambda: gen.delaunay_mesh(700, seed=7),
     dict(n_blocks=2, warps_per_block=8, seed=7)),
]

GENERIC_GOLDEN = Path(__file__).with_name("generic_loop_golden.json")
#: Fuzz seeds whose configs drain through the generic event loop, keyed
#: by ``case_from_seed``'s ``stress`` flag.  Together they cover
#: perturbed and jittered schedules, one-level stacks with and without
#: perturbation, multi-GPU grids, adversarial victims and both victim
#: and flush policies.
GENERIC_SEEDS = {
    "default": (1, 2, 4, 5, 6, 7, 14, 16, 19, 24, 25, 28,
                95, 123, 130, 177, 242),
    "stress": (0, 2, 4, 5, 12, 15, 20, 23),
}
COUNTER_FIELDS = list(SimCounters().as_dict())


def _run(graph, cfg_kwargs, *, reference=False):
    run = run_reference if reference else run_diggerbees
    return run(graph, 0, config=DiggerBeesConfig(**cfg_kwargs))


def _generic_case(key: str):
    kind, seed = key.split("/")
    return case_from_seed(int(seed), stress=kind == "stress")


def _generic_row(key: str) -> dict:
    case = _generic_case(key)
    res = run_diggerbees(case.build_graph(), case.root,
                         config=case.build_config())
    c = res.counters
    d = c.as_dict()
    return {
        "cycles": res.cycles,
        "steps": res.engine.steps,
        "parent_sha256": hashlib.sha256(
            res.traversal.parent.tobytes()).hexdigest(),
        "counters": [d[f] for f in COUNTER_FIELDS],
        "tasks_per_block": [[b, n]
                            for b, n in sorted(c.tasks_per_block.items())],
        "tasks_per_warp": [[b, w, n]
                           for (b, w), n in sorted(c.tasks_per_warp.items())],
    }


GENERIC_KEYS = [f"{kind}/{s}" for kind, seeds in GENERIC_SEEDS.items()
                for s in seeds]


@pytest.mark.parametrize("name,build,cfg_kwargs", GOLDEN_CASES,
                         ids=[c[0] for c in GOLDEN_CASES])
def test_fastpath_matches_reference_schedule(name, build, cfg_kwargs):
    graph = build()
    old = _run(graph, cfg_kwargs, reference=True)
    new = _run(graph, cfg_kwargs)

    assert new.cycles == old.cycles
    assert new.engine.steps == old.engine.steps
    assert new.n_visited == old.n_visited
    assert new.traversal.edges_traversed == old.traversal.edges_traversed
    # Identical schedule implies the identical DFS tree, vertex by vertex.
    assert np.array_equal(new.traversal.parent, old.traversal.parent)


def test_repeated_runs_are_bit_identical():
    """Same config twice => same everything (no hidden global state)."""
    graph = gen.preferential_attachment(700, m=4, seed=11)
    kwargs = dict(n_blocks=4, warps_per_block=4, seed=11)
    a = _run(graph, kwargs)
    b = _run(graph, kwargs)
    assert a.cycles == b.cycles
    assert a.engine.steps == b.engine.steps
    assert np.array_equal(a.traversal.parent, b.traversal.parent)


@pytest.fixture(scope="module")
def generic_golden() -> dict:
    return json.loads(GENERIC_GOLDEN.read_text())


def test_generic_seeds_cover_every_mode(generic_golden):
    cases = [_generic_case(k) for k in GENERIC_KEYS]
    assert not any(turbo_eligible(c.build_config()) for c in cases)
    assert any(c.jitter for c in cases)
    assert any(c.perturb_seed is not None and not c.jitter for c in cases)
    assert any(not c.two_level and c.perturb_seed is None for c in cases)
    assert any(not c.two_level and c.perturb_seed is not None for c in cases)
    assert any(c.n_gpus > 1 for c in cases)
    assert any(c.adversarial_victims for c in cases)
    assert {c.victim_policy for c in cases} == {"two_choice", "random"}
    assert {c.flush_policy for c in cases} == {"tail", "head"}
    assert generic_golden["counter_fields"] == COUNTER_FIELDS
    assert sorted(generic_golden["runs"]) == sorted(GENERIC_KEYS)


@pytest.mark.parametrize("key", GENERIC_KEYS)
def test_generic_loop_schedule_matches_golden(generic_golden, key):
    assert _generic_row(key) == generic_golden["runs"][key]


def record() -> None:
    """Rewrite ``generic_loop_golden.json`` from the current code."""
    rows = ",\n".join(f"  {json.dumps(k)}: {json.dumps(_generic_row(k))}"
                      for k in GENERIC_KEYS)
    GENERIC_GOLDEN.write_text(
        "{\n"
        f'"counter_fields": {json.dumps(COUNTER_FIELDS)},\n'
        f'"runs": {{\n{rows}\n}}\n'
        "}\n")
    print(f"recorded {len(GENERIC_KEYS)} runs to {GENERIC_GOLDEN}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(f"usage: {sys.argv[0]} --record")
    record()
