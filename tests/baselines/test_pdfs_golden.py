"""Golden pins for the CPU PDFS baselines and the serial reference DFS.

Every figure below is compared against ``pdfs_golden.json``, recorded
when the baselines still stepped one agent per core through the generic
``EventLoop``, so the fused drain must reproduce that schedule bit for
bit: cycles, every counter, the per-core task tallies.  The serial DFS
rows pin the reference traversal's ``parent``/``order`` arrays by
digest.

Cases: ``case_from_seed(s).build_graph()`` for seeds 0-20 (together
they cover every fuzz family), rooted at the case root, x cores
{1, 2, 3, 8} x {CKL, ACR} x run seeds {1, 2}.

Re-record (only when a cost-model or protocol change is *meant* to move
the schedule)::

    PYTHONPATH=src python tests/baselines/test_pdfs_golden.py --record
"""

from __future__ import annotations

import hashlib
import json
import sys
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest

from repro.baselines.pdfs_cpu import run_acr_pdfs, run_ckl_pdfs
from repro.check.cases import FAMILIES, case_from_seed
from repro.sim.trace import SimCounters
from repro.validate.reference import UNVISITED_PARENT, serial_dfs

GOLDEN = Path(__file__).with_name("pdfs_golden.json")
CASE_SEEDS = range(21)
CORES = (1, 2, 3, 8)
RUN_SEEDS = (1, 2)
PROTOCOLS = {"ckl": run_ckl_pdfs, "acr": run_acr_pdfs}
COUNTER_FIELDS = list(SimCounters().as_dict())


@lru_cache(maxsize=None)
def _case(seed: int):
    case = case_from_seed(seed)
    return case, case.build_graph()


def _serial_roots(graph) -> tuple:
    return (0, graph.n_vertices // 2)


def _pdfs_row(res) -> dict:
    c = res.counters
    d = c.as_dict()
    return {
        "cycles": res.cycles,
        "n_visited": res.traversal.n_visited,
        "counters": [d[f] for f in COUNTER_FIELDS],
        "tasks_per_block": [[b, n] for b, n in sorted(c.tasks_per_block.items())],
        "tasks_per_warp": [[b, w, n]
                           for (b, w), n in sorted(c.tasks_per_warp.items())],
    }


def _pdfs_rows(seed: int) -> dict:
    case, graph = _case(seed)
    rows = {}
    for proto, run in PROTOCOLS.items():
        for cores in CORES:
            for rs in RUN_SEEDS:
                res = run(graph, case.root, cores=cores, seed=rs)
                rows[f"{seed}/{proto}/c{cores}/s{rs}"] = _pdfs_row(res)
    return rows


def _serial_row(graph, root: int) -> dict:
    t = serial_dfs(graph, root)
    digest = hashlib.sha256(t.parent.tobytes() + t.order.tobytes())
    return {"sha256": digest.hexdigest(), "edges_traversed": t.edges_traversed}


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_cases_cover_every_family():
    assert {_case(s)[0].family for s in CASE_SEEDS} == set(FAMILIES)


def test_counter_fields_unchanged(golden):
    assert golden["counter_fields"] == COUNTER_FIELDS


@pytest.mark.parametrize("seed", CASE_SEEDS)
def test_pdfs_matches_golden(golden, seed):
    rows = _pdfs_rows(seed)
    want = {k: v for k, v in golden["pdfs"].items()
            if k.startswith(f"{seed}/")}
    assert rows.keys() == want.keys()
    cas_failures = COUNTER_FIELDS.index("cas_failures")
    for key, row in rows.items():
        assert row == want[key], key
        # The window scan and the claim are one atomic step, so a CPU
        # core's CAS can never lose.
        assert row["counters"][cas_failures] == 0, key


@pytest.mark.parametrize("seed", CASE_SEEDS)
def test_serial_dfs_matches_golden(golden, seed):
    _, graph = _case(seed)
    for root in _serial_roots(graph):
        t = serial_dfs(graph, root)
        assert t.visited.dtype == np.bool_
        assert t.parent.dtype == np.int64 and t.order.dtype == np.int64
        assert type(t.edges_traversed) is int
        assert np.array_equal(t.visited, t.parent != UNVISITED_PARENT)
        assert _serial_row(graph, root) == golden["serial"][f"{seed}/r{root}"]


def record() -> None:
    """Rewrite ``pdfs_golden.json`` from the current code, one row a line."""
    pdfs = {}
    serial = {}
    for seed in CASE_SEEDS:
        pdfs.update(_pdfs_rows(seed))
        _, graph = _case(seed)
        for root in _serial_roots(graph):
            serial[f"{seed}/r{root}"] = _serial_row(graph, root)

    def table(rows: dict) -> str:
        return ",\n".join(f"  {json.dumps(k)}: {json.dumps(v)}"
                          for k, v in rows.items())

    GOLDEN.write_text(
        "{\n"
        f'"counter_fields": {json.dumps(COUNTER_FIELDS)},\n'
        f'"pdfs": {{\n{table(pdfs)}\n}},\n'
        f'"serial": {{\n{table(serial)}\n}}\n'
        "}\n")
    print(f"recorded {len(pdfs)} PDFS rows and {len(serial)} serial rows "
          f"to {GOLDEN}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(f"usage: {sys.argv[0]} --record")
    record()
