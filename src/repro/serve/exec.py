"""Query execution for the traversal service.

Module-level, picklable functions so the daemon can run them either
in-process (``jobs = 0``) or across the persistent worker pool of
:mod:`repro.bench.harness` (``jobs >= 1``) with identical results.
Workers receive graphs as export specs (mapped and cached by
:func:`repro.graphs.shm.resolve_graph`) or, on the pickle-fallback
path, as the graphs themselves.

Failure semantics: a task's own failure is its answer.  Whatever a
query raises (an over-budget simulation, an out-of-range root, or any
other exception, a ``MemoryError`` say) comes back as that task's error
marker, so one bad query in a lockstep batch cannot poison its
neighbours, and the daemon never mistakes it for an infrastructure
fault and runs it again.  Only resolving the graph raises (a dangling
export: ``OSError``); that, a broken pool and a task the pool cannot
pickle are infrastructure failures, and the daemon's dispatch layer
degrades: fresh pool, pickle, or in-process execution.
"""

from __future__ import annotations

import typing
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.core.config import DiggerBeesConfig
from repro.errors import ProtocolError
from repro.graphs.shm import resolve_graph
from repro.serve.protocol import (
    QUERY_OPS,
    ROOTED_OPS,
    dfs_result_to_dict,
    frontier_result_to_dict,
)

__all__ = [
    "build_engine_config",
    "execute_query",
    "execute_dfs_batch",
    "ERROR_KEY",
]

#: Per-task error marker key in batch results.
ERROR_KEY = "__error__"

#: DiggerBeesConfig fields a request may override (everything except the
#: perturbation knobs would also be safe, but fuzz configs need those
#: too for the serve-diff rung, so the whole dataclass is wire-exposed),
#: each with the exact types its JSON value may decode to: ``true`` is
#: no integer and ``64.5`` none either.
_CONFIG_FIELDS = {
    name: typing.get_args(hint) or (hint,)
    for name, hint in typing.get_type_hints(DiggerBeesConfig).items()}

_JSON_TYPE_NAMES = {bool: "a boolean", int: "an integer", str: "a string",
                    type(None): "null"}


def build_engine_config(overrides: Optional[Dict[str, Any]],
                        ) -> DiggerBeesConfig:
    """Engine config for one DFS query (daemon default + overrides).

    Each override must name a config field and have that field's JSON
    type, else ``ProtocolError``: the config's own checks compare
    values but do not check their types.
    """
    if not overrides:
        return DiggerBeesConfig()
    unknown = set(overrides) - _CONFIG_FIELDS.keys()
    if unknown:
        raise ProtocolError(
            f"unknown engine-config field(s) {sorted(unknown)}")
    for name, value in overrides.items():
        types = _CONFIG_FIELDS[name]
        if type(value) not in types:
            expected = " or ".join(_JSON_TYPE_NAMES[t] for t in types)
            raise ProtocolError(
                f"engine-config field {name!r} takes {expected}, "
                f"got {value!r}")
    # ReproError (SimulationError) from validation propagates to the
    # caller, which turns it into a per-request error response.
    return DiggerBeesConfig(**overrides)


def _error_marker(exc: BaseException) -> Dict[str, Any]:
    return {ERROR_KEY: {"type": type(exc).__name__, "message": str(exc)}}


def _check_root(graph, root: int) -> None:
    if root < 0 or root >= graph.n_vertices:
        raise ProtocolError(
            f"root {root} out of range for {graph.n_vertices} vertices")


# ---------------------------------------------------------------------------
# Non-DFS queries.
# ---------------------------------------------------------------------------

def _scc(graph, root: int, overrides) -> Dict[str, Any]:
    from repro.apps import strongly_connected_components

    comp = strongly_connected_components(graph)
    return {
        "components": comp.tolist(),
        "n_components": int(comp.max()) + 1 if comp.size else 0,
    }


def _toposort(graph, root: int, overrides) -> Dict[str, Any]:
    from repro.apps import CycleFound, topological_sort

    try:
        order = topological_sort(graph)
    except CycleFound as exc:
        return {"order": None, "cycle": [int(v) for v in exc.cycle]}
    return {"order": order.tolist(), "cycle": None}


def _cycles(graph, root: int, overrides) -> Dict[str, Any]:
    from repro.apps import find_cycle
    from repro.validate.reference import serial_dfs

    traversal = serial_dfs(graph, root)
    cycle = find_cycle(graph, traversal)
    return {
        "has_cycle": cycle is not None,
        "cycle": [int(v) for v in cycle] if cycle is not None else None,
    }


def _biconnectivity(graph, root: int, overrides) -> Dict[str, Any]:
    from repro.apps import biconnectivity

    res = biconnectivity(graph)
    return {
        "articulation_points":
            np.flatnonzero(res.articulation_points).tolist(),
        "bridges": [[int(u), int(v)] for u, v in res.bridges.tolist()],
        "edge_component": res.edge_component.tolist(),
        "n_components": int(res.n_components),
    }


def _spanning(graph, root: int, overrides) -> Dict[str, Any]:
    from repro.apps import spanning_forest

    forest = spanning_forest(graph)
    return {
        "parent": forest.parent.tolist(),
        "component": forest.component.tolist(),
        "roots": [int(r) for r in forest.roots],
        "n_components": int(forest.n_components),
        "total_cycles": int(forest.total_cycles),
    }


_EXECUTORS = {
    "scc": _scc,
    "toposort": _toposort,
    "cycles": _cycles,
    "biconnectivity": _biconnectivity,
    "spanning": _spanning,
}
assert set(_EXECUTORS) == set(QUERY_OPS) - {"dfs"}


def execute_query(wire_graph, op: str, root: int,
                  overrides: Optional[Dict[str, Any]] = None,
                  backend: str = "dfs") -> Dict[str, Any]:
    """Execute one query; returns the result dict, or the error marker
    of whatever the query raised.

    ``backend`` is the *resolved* answer family for ``dfs`` queries
    (``"dfs"`` or ``"frontier"``) — callers route through
    :func:`repro.core.dispatch.choose_backend` first; a ``dfs`` query is
    a batch of one (:func:`execute_dfs_batch`).  Non-DFS ops ignore it,
    and ops outside :data:`~repro.serve.protocol.ROOTED_OPS` ignore
    ``root`` too (it is neither validated nor used).
    """
    graph = resolve_graph(wire_graph)
    if op == "dfs":
        return execute_dfs_batch(graph, [(root, overrides)], backend)[0]
    try:
        if op in ROOTED_OPS:
            _check_root(graph, root)
        return _EXECUTORS[op](graph, root, overrides)
    except Exception as exc:
        return _error_marker(exc)


# ---------------------------------------------------------------------------
# DFS queries, batched.
# ---------------------------------------------------------------------------

def execute_dfs_batch(wire_graph,
                      tasks: List[Tuple[int, Optional[Dict[str, Any]]]],
                      backend: str = "dfs") -> List[Dict[str, Any]]:
    """Execute ``[(root, config-overrides), ...]`` DFS queries, batched.

    Each task's config and root are validated first, so a bad one
    settles as its own error marker; the valid rest run through
    :func:`repro.core.dispatch.run_batch`, which picks scalar or
    lockstep execution for the family (``backend="dfs"``: the DFS
    simulation, task by task; ``"frontier"``: the bit-packed BFS,
    swarm-batched — overrides are validated but do not parameterize
    it) and settles any exception on the task that raised it.
    Per-task payloads are identical whichever tier ran; admission never
    mixes backends in one batch.
    """
    graph = resolve_graph(wire_graph)
    out: List[Optional[Dict[str, Any]]] = [None] * len(tasks)
    valid: List[Tuple[int, int, DiggerBeesConfig]] = []
    for i, (root, ov) in enumerate(tasks):
        try:
            cfg = build_engine_config(ov)
            _check_root(graph, root)
        except Exception as exc:
            out[i] = _error_marker(exc)
        else:
            valid.append((i, root, cfg))
    from repro.core.dispatch import run_batch

    payload = (dfs_result_to_dict if backend == "dfs"
               else frontier_result_to_dict)
    results = run_batch(graph, backend,
                        [(root, cfg) for _, root, cfg in valid])
    for (i, _, _), res in zip(valid, results):
        out[i] = (_error_marker(res) if isinstance(res, Exception)
                  else payload(res))
    return out
