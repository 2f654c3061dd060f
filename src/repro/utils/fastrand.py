"""Amortized bounded-integer draws, bit-exact with ``Generator.integers``.

The inter-block victim sampler draws thousands of tiny bounded integers
per run through ``np.random.Generator.integers``.  Each call costs ~2 us
of argument parsing and scalar boxing while the underlying PCG64 step is
nanoseconds — for the simulator's hot loop that per-call overhead is the
single largest avoidable cost.

:class:`BoundedDraws` replays NumPy's own algorithm in Python over raw
64-bit draws fetched in bulk from the wrapped generator's bit generator:
for ranges below 2**32 ``Generator.integers`` consumes buffered 32-bit
halves of the raw stream and maps them through Lemire's unbiased
rejection method (``buffered_bounded_lemire_uint32``).  Replicating both
the half-word buffering and the rejection loop makes every draw — value
*and* stream consumption — identical to what the wrapped generator would
have produced, so schedules stay bit-identical with recorded baselines.

The leader warp's two-choice probe makes up to ``4k + 8`` such draws,
all of them when it finds no active block.
:meth:`BoundedDraws.sample_hits` runs that whole bounded-retry loop
(``inter_steal._sample_active_blocks``) in one call over the same
buffered halves, so a probe pays one Python call instead of one per
draw; ``_sample_active_blocks`` uses it whenever its generator is a
replica and keeps its ``integers`` loop otherwise.  The probe's range is
fixed for a run, so ``sample_hits`` maps a chunk's halves to bounded
values once per ``(lo, range)`` with NumPy and scans that list, whenever
no half of the chunk is a Lemire rejection and the probe's draws end
inside the chunk; otherwise it maps draw by draw.

Because the replica depends on NumPy internals that are stable but not
contractual, :func:`wrap_generator` validates the replica against a real
``Generator`` once per process and silently falls back to the plain
generator on any mismatch.  Every other caller only uses the
two-argument ``integers(lo, hi)`` surface that both objects share.
"""

from __future__ import annotations

import random
from typing import Optional, Union

import numpy as np

__all__ = ["BoundedDraws", "wrap_generator"]

_U32_MASK = 0xFFFFFFFF


class BoundedDraws:
    """Duck-typed stand-in for ``Generator.integers(lo, hi)`` (small ranges).

    Draws raw 64-bit words in chunks via ``BitGenerator.random_raw`` and
    serves them as 32-bit halves, low half first, exactly like NumPy's
    buffered ``next_uint32``.  The halves of one chunk sit in one list,
    so the stream position is a single index.  Only the two-argument
    half-open ``integers`` form is supported, for ranges below 2**32.
    """

    __slots__ = ("_bg", "_chunk", "_halves", "_i", "_words", "_bounded_for",
                 "_bounded")

    def __init__(self, gen: np.random.Generator, chunk: int = 64):
        self._bg = gen.bit_generator
        self._chunk = chunk
        self._halves: list = []
        self._i = 0
        self._words: Optional[np.ndarray] = None  # the halves, as uint32
        self._bounded_for: Optional[tuple] = None
        self._bounded: Optional[list] = None

    def _refill(self) -> list:
        """The next chunk's 32-bit halves, in NumPy's consumption order.

        NumPy serves the low half of a raw word first, then the high
        half; a little-endian ``uint32`` view lists them in that order.
        """
        raw = self._bg.random_raw(self._chunk).astype("<u8", copy=False)
        words = raw.view("<u4")
        halves = words.tolist()
        self._words = words
        self._halves = halves
        self._bounded_for = None
        return halves

    def _bounded_chunk(self, lo: int, rng_excl: int,
                       threshold: int) -> Optional[list]:
        """The current chunk's halves mapped to ``[lo, lo + rng_excl)``,
        or None when one of them is a Lemire rejection (then a half is
        not always a draw).  Computed once per chunk and range."""
        key = (lo, rng_excl)
        if self._bounded_for != key:
            m = self._words.astype(np.uint64) * rng_excl
            if threshold and bool(((m & _U32_MASK) < threshold).any()):
                self._bounded = None
            else:
                self._bounded = ((m >> 32).astype(np.int64) + lo).tolist()
            self._bounded_for = key
        return self._bounded

    def integers(self, lo: int, hi: int) -> int:
        """A draw from ``[lo, hi)``, identical to ``Generator.integers``."""
        rng = hi - lo - 1  # inclusive range maximum, as in NumPy
        if rng == 0:
            return lo  # NumPy consumes no stream for a 1-wide range
        if rng < 0 or rng >= _U32_MASK:
            raise ValueError(f"unsupported range [{lo}, {hi})")
        rng_excl = rng + 1
        halves = self._halves
        i = self._i
        if i == len(halves):
            halves = self._refill()
            i = 0
        m = halves[i] * rng_excl
        self._i = i + 1
        # -- Lemire rejection (buffered_bounded_lemire_uint32) ----------
        if (m & _U32_MASK) < rng_excl:
            threshold = (_U32_MASK - rng) % rng_excl
            while (m & _U32_MASK) < threshold:
                i = self._i
                if i == len(halves):
                    halves = self._refill()
                    i = 0
                m = halves[i] * rng_excl
                self._i = i + 1
        return (m >> 32) + lo

    def sample_hits(self, lo: int, hi: int, draws: int, k: int,
                    skip: int, flags) -> list:
        """Replay of ``inter_steal._sample_active_blocks``' retry loop.

        Makes at most ``draws`` draws from ``[lo, hi)``, exactly as that
        many ``integers(lo, hi)`` calls would (same values, same stream
        consumption), and keeps each draw ``b`` that is not ``skip`` and
        has ``flags[b]`` set, stopping after ``k`` of them.  Returns the
        kept draws in draw order.
        """
        rng = hi - lo - 1
        if rng == 0:  # every draw is ``lo`` and consumes no stream
            return [lo] * k if lo != skip and flags[lo] else []
        if rng < 0 or rng >= _U32_MASK:
            raise ValueError(f"unsupported range [{lo}, {hi})")
        rng_excl = rng + 1
        # ``integers`` tests ``leftover < rng_excl`` before it computes
        # the threshold, as NumPy does; the threshold (2**32 mod
        # rng_excl) is below rng_excl, so testing it alone rejects the
        # same words.  A rejected word is not a draw: the loop takes the
        # next word for the same draw.
        threshold = (_U32_MASK - rng) % rng_excl
        halves = self._halves
        n = len(halves)
        i = self._i
        if i == n:
            halves = self._refill()
            n = len(halves)
            i = 0
        found = []
        end = i + draws
        if end <= n:
            bounded = self._bounded_chunk(lo, rng_excl, threshold)
            if bounded is not None:
                # Every half of the chunk is one draw.
                for j in range(i, end):
                    b = bounded[j]
                    if b != skip and flags[b]:
                        found.append(b)
                        if len(found) == k:
                            self._i = j + 1
                            return found
                self._i = end
                return found
        mask = _U32_MASK
        left = draws
        while left:
            if i == n:
                halves = self._refill()
                n = len(halves)
                i = 0
            m = halves[i] * rng_excl
            i += 1
            if (m & mask) < threshold:
                continue
            left -= 1
            b = (m >> 32) + lo
            if b != skip and flags[b]:
                found.append(b)
                if len(found) == k:
                    break
        self._i = i
        return found


_REPLICA_OK: Optional[bool] = None

#: How many times the validation probe has actually executed in this
#: interpreter.  The verdict is cached in ``_REPLICA_OK``, so after the
#: first ``wrap_generator`` call this must stay at 1 for the life of the
#: process — a regression test asserts exactly that (the probe costs
#: ~1000 bounded draws; paying it per wrap would tax every RunState).
SELF_CHECK_RUNS = 0


def _self_check() -> bool:
    """Compare the replica with a real Generator on one shared stream."""
    global SELF_CHECK_RUNS
    SELF_CHECK_RUNS += 1
    seed = 0xD1665EED
    probe = random.Random(991)
    rep = BoundedDraws(np.random.default_rng(seed), chunk=8)
    ref = np.random.default_rng(seed)
    for _ in range(256):
        lo = probe.randrange(-4, 5)
        hi = lo + probe.randrange(1, 67)
        if rep.integers(lo, hi) != int(ref.integers(lo, hi)):
            return False
    return True


def wrap_generator(
    gen: np.random.Generator,
) -> Union[BoundedDraws, np.random.Generator]:
    """Wrap ``gen`` in a :class:`BoundedDraws` replica when safe.

    The first call per process validates the replica against NumPy; if
    the installed NumPy ever changes its bounded-integer algorithm the
    check fails and every caller gets the plain (slower, always-correct)
    generator back.
    """
    global _REPLICA_OK
    if _REPLICA_OK is None:
        _REPLICA_OK = _self_check()
    return BoundedDraws(gen) if _REPLICA_OK else gen
