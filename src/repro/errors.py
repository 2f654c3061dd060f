"""Exception hierarchy for the ``repro`` package.

All errors raised by the library derive from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while
letting programming errors (``TypeError`` etc.) propagate.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this package."""


class GraphFormatError(ReproError):
    """Raised when a graph file or in-memory structure is malformed."""


class GraphConstructionError(ReproError):
    """Raised when a generator is given inconsistent parameters."""


class SimulationError(ReproError):
    """Raised when the execution simulator reaches an inconsistent state.

    This always indicates a bug in an algorithm implementation (e.g. a
    stack underflow, a lost stack entry, or a vertex visited twice); the
    simulator is deterministic, so these are reproducible.
    """


class DeadlockError(SimulationError):
    """Raised when no warp can make progress but work remains pending."""


class StackOverflowError(SimulationError):
    """Raised when a push or a batch insert overfills a HotRing.

    Only :class:`~repro.core.twolevel_stack.HotRing` raises it: a warp
    flushes to its ColdSeg before pushing into a full ring, and ColdSegs
    grow on demand, so seeing it means the flush/refill or steal logic
    is broken.
    """


class MemoryLimitExceeded(ReproError):
    """Raised when an algorithm's simulated footprint exceeds device memory.

    NVG-DFS's path-tracking design is memory hungry; the paper reports it
    failing on 44/234 graphs.  We model the footprint explicitly and raise
    this error to reproduce that failure mode.
    """

    def __init__(self, required_bytes: int, available_bytes: int, detail: str = ""):
        self.required_bytes = int(required_bytes)
        self.available_bytes = int(available_bytes)
        msg = (
            f"simulated memory footprint {required_bytes / 2**30:.2f} GiB exceeds "
            f"device capacity {available_bytes / 2**30:.2f} GiB"
        )
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)


class ValidationError(ReproError):
    """Raised when an algorithm output fails a correctness check.

    Carries optional structured ``details`` so callers (and regression
    tests) can assert on *what* failed rather than string-matching the
    message.  Validators populate well-known keys:

    * ``check`` — short identifier of the failing check
      (e.g. ``"visited_mismatch"``, ``"tree_edge_missing"``);
    * ``missing`` / ``extra`` — full vertex lists for visited-set
      mismatches (reachable-but-unvisited / visited-but-unreachable);
    * check-specific scalars such as ``vertex``, ``parent``, ``root``.
    """

    def __init__(self, message: str = "", **details):
        super().__init__(message)
        self.details = details

    @property
    def check(self):
        """The failing check's identifier (None for legacy raisers)."""
        return self.details.get("check")


class InvariantViolation(SimulationError):
    """Raised by the ``repro.check`` invariant monitor at the exact event
    that broke a steal-protocol invariant (lost/duplicated node, CAS
    linearizability breach, flush/publish conservation failure).

    A subclass of :class:`SimulationError` because a violated invariant
    always means the simulated protocol itself is buggy; the simulator is
    deterministic, so the failure reproduces from the same seed.
    """


class BenchmarkError(ReproError):
    """Raised when the benchmark harness is misconfigured."""


class ServeError(ReproError):
    """Raised by the traversal service (:mod:`repro.serve`).

    Covers daemon-side misconfiguration (unknown graph, unusable corpus)
    and client-side transport failures (connection refused, daemon went
    away mid-request).  Query *execution* failures are never raised out
    of the daemon: they travel back to the client as structured error
    responses so one bad query cannot take the service down.
    """


class ProtocolError(ServeError):
    """Raised when a serve request or response line is malformed.

    The daemon answers a malformed line with an error response (when it
    can still attribute an ``id`` to it) and keeps the connection open;
    the client raises this directly.
    """
