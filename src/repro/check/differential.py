"""Differential check driver for one fuzz case (``repro.check`` part 3).

:func:`check_case` runs a :class:`~repro.check.cases.FuzzCase` through
every stage of one fixed oracle ladder and reports the first failure (or
None).  Each stage is named by the ``stage`` string a failure carries:

* ``invariants`` — DiggerBees under a live
  :class:`~repro.check.invariants.InvariantMonitor` with the engine's
  per-step sweep observer and the post-run ``check_invariants`` pass.
  Unperturbed two-level cases run the fused loop
  (:mod:`repro.core.turbo`), the rest the generic event loop;
* ``validate`` — :func:`repro.validate.tree.validate_traversal` (tree
  validity + visited/reachable equality);
* ``serial-diff`` — visited set must equal
  :func:`~repro.validate.reference.serial_dfs`'s (the ground truth);
* ``reference-diff`` — only when the primary ran the fused loop: the
  oracle :func:`~repro.core.diggerbees.run_reference` (the generic loop
  with the reference expand) must replay the primary's *identical
  schedule* (cycles, steps, parent, visited, counters).  Every other
  case already ran the reference code in the primary pass;
* ``serve-diff`` — send the case's DFS through a fresh
  :mod:`repro.serve` daemon (:func:`repro.check.serve_oracle.query_dfs`);
  the served payload must equal the canonical payload of the primary
  result, and the repeat query must come back from the result cache,
  still identical;
* ``frontier-diff`` — the bit-packed SpMV engine
  (:mod:`repro.core.frontier`) must meet the BFS contract (DFS
  reachability, :func:`~repro.graphs.properties.bfs_levels`, the
  independent min-parent oracle), and forced push/pull runs must be
  bit-identical to the auto-switched one;
* ``swarm-diff`` — the case root runs as lanes 0 and 2 of a three-lane
  lockstep swarm batch (:mod:`repro.core.swarm`); every case-root lane
  must be bit-identical to the frontier stage's single-root
  :func:`~repro.core.frontier.run_frontier` result (visited, parent,
  level and the push/pull/edges-scanned profile), and the batch must
  meet the BFS contract;
* ``pdfs-diff`` — CKL-PDFS reachability on the same graph must match
  (skipped on larger cases; it is the slowest oracle).

Every failure carries the one-line shell command that reproduces it
deterministically (acceptance criterion: *"every failure the fuzzer
reports prints a one-line repro command"*).
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields
from typing import Callable, Optional

import numpy as np

from repro.baselines.pdfs_cpu import run_ckl_pdfs
from repro.check import serve_oracle
from repro.check.cases import FuzzCase
from repro.check.invariants import InvariantMonitor
from repro.check.mutations import apply_mutation
from repro.core import frontier, swarm
from repro.core.diggerbees import (DiggerBeesResult, run_diggerbees,
                                   run_reference)
from repro.core.turbo import turbo_eligible
from repro.errors import ReproError
from repro.graphs.csr import CSRGraph
from repro.graphs.properties import bfs_levels
from repro.serve.protocol import dfs_result_to_dict
from repro.validate.reference import serial_dfs
from repro.validate.tree import validate_traversal

__all__ = ["CheckFailure", "check_case", "run_monitored", "case_to_json",
           "case_from_json", "PDFS_MAX_VERTICES"]

#: Cases at or below this size also run the CKL-PDFS baseline oracle.
PDFS_MAX_VERTICES = 400


@dataclass(frozen=True)
class CheckFailure:
    """One oracle-ladder failure, with its deterministic repro command."""

    case: FuzzCase
    stage: str          # which oracle stage failed
    message: str        # first line of the underlying error / mismatch
    mutation: Optional[str] = None
    stress: bool = False

    @property
    def repro_command(self) -> str:
        """One-line shell command that reproduces this exact failure."""
        cmd = "python -m repro.check repro"
        if self.case.shrunk_from is None:
            cmd += f" {self.case.seed}"
        else:
            # Shrunk cases are no longer seed-derivable: ship the full spec.
            cmd += f" --case '{case_to_json(self.case)}'"
        if self.stress:
            cmd += " --stress"  # also selects the per-step sweep period
        if self.mutation:
            cmd += f" --mutation {self.mutation}"
        return cmd

    def report(self) -> str:
        """Multi-line human-readable failure report."""
        lines = [
            f"FAIL [{self.stage}] {self.case.describe()}",
            f"  {self.message.splitlines()[0]}",
            f"  repro: {self.repro_command}",
        ]
        return "\n".join(lines)


def case_to_json(case: FuzzCase) -> str:
    """Compact JSON spec of a case (used for shrunk-case repro commands)."""
    return json.dumps(asdict(case), separators=(",", ":"))


def case_from_json(text: str) -> FuzzCase:
    """Inverse of :func:`case_to_json` (ignores unknown keys)."""
    data = json.loads(text)
    known = {f.name for f in fields(FuzzCase)}
    return FuzzCase(**{k: v for k, v in data.items() if k in known})


def _payload_diff(expected: dict, got: dict) -> str:
    """One-line summary of where two canonical payloads differ."""
    if expected == got:
        return ""
    if not isinstance(got, dict):
        return f"payload is {type(got).__name__}, not an object"
    keys = sorted(set(expected) | set(got))
    bad = [k for k in keys if expected.get(k) != got.get(k)]
    parts = []
    for k in bad[:4]:
        e, g = expected.get(k), got.get(k)
        if isinstance(e, list) and isinstance(g, list):
            if len(e) != len(g):
                parts.append(f"{k}: length {len(e)} vs {len(g)}")
            else:
                at = next(i for i, (a, b) in enumerate(zip(e, g)) if a != b)
                parts.append(f"{k}: first diff at index {at} "
                             f"({e[at]!r} vs {g[at]!r})")
        else:
            parts.append(f"{k}: {str(e)[:40]!r} vs {str(g)[:40]!r}")
    return "; ".join(parts) or "payloads differ"


def run_monitored(case: FuzzCase, graph: CSRGraph, *,
                  check_every: int = 64,
                  run: Callable[..., DiggerBeesResult] = run_diggerbees,
                  ) -> DiggerBeesResult:
    """Run one case on ``graph`` (``case.build_graph()``) under a fresh
    invariant monitor; raises on violation.

    ``run`` is the DFS entry point: :func:`run_diggerbees` (the primary
    pass) or :func:`run_reference` (its oracle).
    """
    config = case.build_config()
    monitor = InvariantMonitor(check_every=check_every)
    result = run(
        graph, case.root, config=config,
        check_invariants=True, instrument=monitor.attach,
    )
    monitor.final_check()
    return result


def _where(mask: np.ndarray) -> str:
    """``"N vertices (e.g. [...])"`` for a boolean mismatch mask."""
    idx = np.flatnonzero(mask)
    return f"{idx.size} vertices (e.g. {idx[:5].tolist()})"


def _set_diff(want: np.ndarray, got: np.ndarray) -> str:
    """Missing/extra summary of two visited sets."""
    missing = np.flatnonzero(want & ~got)
    extra = np.flatnonzero(~want & got)
    return (f"{missing.size} missing (e.g. {missing[:5].tolist()}), "
            f"{extra.size} extra (e.g. {extra[:5].tolist()})")


def _schedule_diff(want: DiggerBeesResult,
                   got: DiggerBeesResult) -> Optional[str]:
    """First way ``got`` fails to replay ``want``'s DFS schedule, or None.

    Schedule identity is the contract of every DFS execution path (fused
    loop, reference expand): identical cycles, steps, parent, visited and
    counters — not merely a correct traversal.
    """
    if (got.cycles, got.engine.steps) != (want.cycles, want.engine.steps):
        return (f"cycles/steps diverge: {want.cycles}/{want.engine.steps} "
                f"vs {got.cycles}/{got.engine.steps}")
    if not np.array_equal(got.traversal.parent, want.traversal.parent):
        return (f"parent arrays diverge at "
                f"{_where(got.traversal.parent != want.traversal.parent)}")
    if not np.array_equal(got.traversal.visited, want.traversal.visited):
        return "visited arrays diverge"
    want_c, got_c = vars(want.counters), vars(got.counters)
    if got_c != want_c:
        keys = sorted(k for k, v in want_c.items() if got_c.get(k) != v)
        return f"counters diverge ({', '.join(keys)})"
    return None


def _bfs_diff(want, got) -> Optional[str]:
    """First way BFS result ``got`` differs from ``want``, or None.

    Bit identity is the contract between a swarm lane and the
    single-root frontier engine: visited set, parent, levels and the
    push/pull/edges-scanned execution profile.
    """
    for what, g, w in (
            ("visited set", got.traversal.visited, want.traversal.visited),
            ("parent", got.traversal.parent, want.traversal.parent),
            ("level array", got.level, want.level)):
        if not np.array_equal(g, w):
            return f"{what} diverges at {_where(g != w)}"
    profile = [(r.n_levels, r.pushes, r.pulls, r.edges_scanned)
               for r in (want, got)]
    if profile[0] != profile[1]:
        return (f"execution profile diverges: levels/pushes/pulls/edges "
                f"{profile[1]} vs {profile[0]}")
    return None


def _bfs_contract(graph, root: int, visited: np.ndarray,
                  level: np.ndarray, parent: np.ndarray,
                  dfs_visited: np.ndarray) -> Optional[str]:
    """First breach of the BFS result contract, or None.

    A BFS-family result (frontier, swarm) must reach exactly the
    DFS's vertex set, carry :func:`~repro.graphs.properties.bfs_levels`
    levels, and — on undirected graphs, where the oracle and the pull
    path read each row as in-edges — the independent min-parent tree.
    """
    if not np.array_equal(visited, dfs_visited):
        return (f"visited set differs from DFS: "
                f"{_set_diff(dfs_visited, visited)}")
    ref_levels = bfs_levels(graph, root)
    if not np.array_equal(level, ref_levels):
        return (f"level array diverges from bfs_levels at "
                f"{_where(level != ref_levels)}")
    if not graph.directed:
        oracle = frontier.min_parent_tree(graph, ref_levels, root)
        if not np.array_equal(parent, oracle):
            return (f"parent diverges from the min-parent oracle at "
                    f"{_where(parent != oracle)}")
    return None


def check_case(case: FuzzCase, *, mutation: Optional[str] = None,
               stress: bool = False) -> Optional[CheckFailure]:
    """Run every stage of the oracle ladder on ``case``; None means it passed.

    ``mutation`` (a name from :data:`repro.check.mutations.MUTATIONS`)
    applies the named injected bug for the whole ladder — used by the
    mutation sanity suite and by ``repro --mutation`` to replay a
    mutant's failure.

    ``stress`` cases run the invariant monitor's global sweep after
    every step — transient corruption (e.g. an ABA duplicate that the
    victim pops a step later) is only visible to a sweep that runs
    before the next step — and other cases every 64 steps, where
    throughput matters more.
    """
    check_every = 1 if stress else 64

    def fail(stage: str, message: str) -> CheckFailure:
        return CheckFailure(case=case, stage=stage, message=str(message),
                            mutation=mutation, stress=stress)

    with apply_mutation(mutation):
        # Every stage reads this one build of the case's graph.
        graph = case.build_graph()
        # Monitored run (invariant hooks + periodic sweep).
        try:
            result = run_monitored(case, graph, check_every=check_every)
        except ReproError as exc:
            return fail("invariants", f"{type(exc).__name__}: {exc}")

        dfs_visited = result.traversal.visited

        # Output validators (tree validity, visited vs reachable).
        try:
            validate_traversal(graph, result.traversal)
        except ReproError as exc:
            return fail("validate", f"{type(exc).__name__}: {exc}")

        # Serial reference (ground-truth reachability).
        ref = serial_dfs(graph, case.root)
        if not np.array_equal(ref.visited, dfs_visited):
            return fail("serial-diff",
                        f"visited set differs from serial DFS: "
                        f"{_set_diff(ref.visited, dfs_visited)}")

        # Reference differential: when the primary ran the fused loop,
        # the generic loop with the reference expand must reproduce the
        # *identical* schedule, not just a correct one.
        if turbo_eligible(result.config):
            try:
                reference = run_monitored(case, graph,
                                          check_every=check_every,
                                          run=run_reference)
            except ReproError as exc:
                return fail("reference-diff", f"{type(exc).__name__}: {exc}")
            mismatch = _schedule_diff(result, reference)
            if mismatch:
                return fail("reference-diff",
                            f"fused loop vs reference: {mismatch}")

        # Serve differential: the daemon-served payload must equal the
        # canonical payload of the direct run.  The case's daemon
        # executes in this process (jobs=0), so the mutation patch is
        # live on its engine thread and injected bugs flow through the
        # full wire/admission/dispatch stack.  The repeat query must
        # come back from the result cache the first populated and stay
        # identical — the memo path serves the same bytes.
        expected = dfs_result_to_dict(result)
        try:
            answers = serve_oracle.query_dfs(graph, case.root,
                                             asdict(case.build_config()))
        except ReproError as exc:
            return fail("serve-diff", f"served query failed: "
                                      f"{type(exc).__name__}: {exc}")
        for repeat, (served, was_cached) in enumerate(answers):
            what = "cached" if repeat else "served"
            if repeat and not was_cached:
                return fail("serve-diff",
                            "repeat query missed the result cache")
            mismatch = _payload_diff(expected, served)
            if mismatch:
                return fail("serve-diff",
                            f"{what} payload diverges from direct "
                            f"execution: {mismatch}")

        # Frontier differential: the bit-packed SpMV engine meets the
        # BFS contract, and its push/pull/auto modes are bit-identical.
        try:
            fr = frontier.run_frontier(graph, case.root)
            validate_traversal(graph, fr.traversal)
        except ReproError as exc:
            return fail("frontier-diff", f"{type(exc).__name__}: {exc}")
        mismatch = _bfs_contract(graph, case.root, fr.traversal.visited,
                                 fr.level, fr.traversal.parent, dfs_visited)
        if mismatch:
            return fail("frontier-diff", mismatch)
        # The pull path reads each row as in-edges: symmetric only.
        for forced in () if graph.directed else ("push", "pull"):
            try:
                alt = frontier.run_frontier(
                    graph, case.root,
                    config=frontier.FrontierConfig(mode=forced))
            except ReproError as exc:
                return fail("frontier-diff",
                            f"{forced} mode: {type(exc).__name__}: {exc}")
            if not (np.array_equal(alt.traversal.parent, fr.traversal.parent)
                    and np.array_equal(alt.level, fr.level)):
                return fail("frontier-diff",
                            f"forced {forced} mode diverges from auto "
                            f"(modes promise bit-identical results)")

        # Swarm differential: the case root runs as lanes 0 and 2 of a
        # three-lane lockstep batch (a *different* root in the middle, so
        # cross-lane state leakage has a source, and the case root
        # duplicated, so per-lane retirement and swap removal get
        # exercised on identical twins).  Every case-root lane must be
        # bit-identical to the single-root frontier engine, and the
        # batch must meet the BFS contract.
        n = graph.n_vertices
        roots = [case.root, (case.root + max(1, n // 2)) % n, case.root]
        try:
            lanes = swarm.run_swarm(graph, roots)
            validate_traversal(graph, lanes[0].traversal)
        except ReproError as exc:
            return fail("swarm-diff", f"{type(exc).__name__}: {exc}")
        for li in (0, 2):
            mismatch = _bfs_diff(fr, lanes[li])
            if mismatch:
                return fail("swarm-diff",
                            f"lane {li} vs the single-root frontier engine: "
                            f"{mismatch} (lanes must be bit-identical)")
        mismatch = _bfs_contract(
            graph, case.root, lanes[0].traversal.visited, lanes[0].level,
            lanes[0].traversal.parent, dfs_visited)
        if mismatch:
            return fail("swarm-diff", mismatch)

        # CPU PDFS baseline (reachability oracle, small cases).
        if graph.n_vertices <= PDFS_MAX_VERTICES:
            try:
                pdfs = run_ckl_pdfs(graph, case.root)
            except ReproError as exc:
                return fail("pdfs-diff", f"{type(exc).__name__}: {exc}")
            if not np.array_equal(pdfs.traversal.visited, dfs_visited):
                return fail("pdfs-diff",
                            "visited set differs from CKL-PDFS baseline")

    return None
