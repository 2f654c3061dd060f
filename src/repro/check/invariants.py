"""Steal-protocol invariant instrumentation (``repro.check`` part 1).

An :class:`InvariantMonitor` attaches to one :class:`~repro.core.state.RunState`
and asserts, *at the event that breaks them*, the protocol invariants that
make DiggerBees' lock-free stealing correct:

* **CAS linearizability of ownership transfer** — the token a steal
  validated (HotRing ``tail`` for intra-block, ColdSeg ``bottom`` for
  inter-block) must equal the token at the commit point.  A protocol
  that skips or mis-implements the reservation CAS commits against a
  stale observation; on hardware that is the ABA window, and in the
  simulator this check is the only thing that can see it (the transfer
  itself still moves well-formed entries).
* **Flush/publish conservation** — every entry leaving the HotRing in a
  flush must appear, bit-identical and in order, at the top of the
  ColdSeg; every refill must shrink the ColdSeg by exactly what the
  HotRing gained.  No node may be lost (or invented) between the
  HotRing flush and the ColdSeg publish.
* **Single ownership / no lost nodes (global sweep)** — periodically
  (every ``check_every`` engine steps) and at the end of the run,
  :meth:`RunState.check_invariants
  <repro.core.state.RunState.check_invariants>` asserts that the
  union of all stacks contains every pending entry exactly once,
  every stacked vertex is already claimed (visited), and the global
  ``pending`` counter equals the true entry count.  A
  duplicated steal shows up as a vertex owned by two stacks or as
  ``actual > pending``; a dropped transfer as ``actual < pending``.
* **Steal sanity** — a steal may not move more entries than its plan
  observed, and stolen vertices must already be visited (they were
  claimed before being pushed).

All hooks raise :class:`~repro.errors.InvariantViolation` (a
``SimulationError``) at the first breach, so the engine stops on the
exact offending event and the seed reproduces it deterministically.

Usage::

    monitor = InvariantMonitor(check_every=128)
    result = run_diggerbees(graph, root, config=cfg,
                            instrument=monitor.attach,
                            check_invariants=True)
    # monitor.steal_events / flush_events / sweeps tell you what was covered
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence, Tuple

from repro.core.state import RunState
from repro.core.twolevel_stack import WarpStack
from repro.errors import InvariantViolation

__all__ = ["InvariantMonitor"]

Owner = Tuple[int, int]  # (block_id, warp_id)


class InvariantMonitor:
    """Protocol-invariant checker; see module docstring.

    Parameters
    ----------
    check_every:
        Global-sweep period in engine steps.  Smaller catches corruption
        closer to its cause but costs O(entries) per sweep; the fuzzer
        uses 64–256 on its small graphs.
    """

    def __init__(self, check_every: int = 128):
        if check_every < 1:
            raise ValueError(f"check_every must be >= 1, got {check_every}")
        self.check_every = int(check_every)
        self.state: Optional[RunState] = None
        # Coverage counters (asserted on by tests, reported by the CLI).
        self.steal_events = 0
        self.flush_events = 0
        self.refill_events = 0
        self.sweeps = 0

    # ------------------------------------------------------------------
    def attach(self, state: RunState) -> Callable[[int], None]:
        """Wire this monitor into ``state``; returns the step observer.

        Matches the ``instrument`` contract of
        :func:`repro.core.diggerbees.run_diggerbees`.
        """
        self.state = state
        state.monitor = self
        for block in state.blocks:
            for warp, stack in enumerate(block.stacks):
                if isinstance(stack, WarpStack):
                    stack.monitor = self
                    stack.owner = (block.block_id, warp)
        return self._on_step

    def _on_step(self, steps: int) -> None:
        if steps % self.check_every == 0:
            self.sweep()

    # ------------------------------------------------------------------
    # Event hooks (called from the protocol code under `monitor is not None`).
    # ------------------------------------------------------------------
    def on_steal(self, *, kind: str, victim: Owner, thief: Owner,
                 verts: Sequence[int], token_at_commit: int,
                 observed_token: int, amount: int,
                 observed_rest: int) -> None:
        """Validate one committed steal (intra / inter / remote)."""
        self.steal_events += 1
        if token_at_commit != observed_token:
            raise InvariantViolation(
                f"{kind}-steal CAS linearizability breach: thief {thief} "
                f"committed against victim {victim} with token "
                f"{token_at_commit} but its reservation observed "
                f"{observed_token} — the ownership-transfer CAS validated "
                f"a stale pointer (ABA window)"
            )
        if amount > observed_rest:
            raise InvariantViolation(
                f"{kind}-steal over-reservation: thief {thief} took "
                f"{amount} entries from {victim} but the validated "
                f"observation only covered {observed_rest}"
            )
        if len(verts) != amount:
            raise InvariantViolation(
                f"{kind}-steal transfer mismatch: reserved {amount} "
                f"entries from {victim} but moved {len(verts)}"
            )
        state = self.state
        for v in verts:
            if not state.visited[v]:
                raise InvariantViolation(
                    f"{kind}-steal moved unclaimed vertex {v} from "
                    f"{victim} to {thief}: entries must be claimed "
                    f"(visited) before they are ever stacked"
                )

    def on_flush(self, stack: WarpStack, verts: Sequence[int],
                 offs: Sequence[int], hot_before: int,
                 cold_before: int) -> None:
        """Conservation across a HotRing -> ColdSeg flush."""
        self.flush_events += 1
        count = len(verts)
        owner = stack.owner
        if len(stack.hot) != hot_before - count:
            raise InvariantViolation(
                f"flush by {owner} removed {hot_before - len(stack.hot)} "
                f"HotRing entries but reported {count}"
            )
        if len(stack.cold) != cold_before + count:
            raise InvariantViolation(
                f"flush by {owner} lost entries between HotRing flush and "
                f"ColdSeg publish: {count} left the ring, ColdSeg grew by "
                f"{len(stack.cold) - cold_before}"
            )
        published = stack.cold.snapshot()[-count:]
        expected = list(zip(verts, offs))
        if published != expected:
            raise InvariantViolation(
                f"flush by {owner} published corrupted entries: HotRing "
                f"released {expected[:8]}..., ColdSeg holds {published[:8]}..."
            )

    def on_refill(self, stack: WarpStack, verts: Sequence[int],
                  offs: Sequence[int], hot_before: int,
                  cold_before: int) -> None:
        """Conservation across a ColdSeg -> HotRing refill."""
        self.refill_events += 1
        count = len(verts)
        owner = stack.owner
        if len(stack.cold) != cold_before - count:
            raise InvariantViolation(
                f"refill by {owner} duplicated entries: {count} entered the "
                f"HotRing but the ColdSeg shrank by "
                f"{cold_before - len(stack.cold)} (double-pop)"
            )
        if len(stack.hot) != hot_before + count:
            raise InvariantViolation(
                f"refill by {owner} lost entries: ColdSeg released {count}, "
                f"HotRing grew by {len(stack.hot) - hot_before}"
            )
        installed = stack.hot.snapshot()[-count:]
        expected = list(zip(verts, offs))
        if installed != expected:
            raise InvariantViolation(
                f"refill by {owner} installed corrupted entries: ColdSeg "
                f"released {expected[:8]}..., HotRing holds {installed[:8]}..."
            )

    # ------------------------------------------------------------------
    # Global sweep.
    # ------------------------------------------------------------------
    def sweep(self) -> None:
        """Full-state ownership/conservation sweep: counts the sweep and
        runs :meth:`RunState.check_invariants
        <repro.core.state.RunState.check_invariants>`."""
        self.sweeps += 1
        self.state.check_invariants()

    def final_check(self) -> None:
        """Post-run sweep: the traversal must have drained every stack."""
        self.sweep()
        state = self.state
        if state.pending != 0:
            raise InvariantViolation(
                f"run ended with {state.pending} entries still pending"
            )
