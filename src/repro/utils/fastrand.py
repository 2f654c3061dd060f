"""Amortized bounded-integer draws, bit-exact with ``Generator.integers``.

Every simulated victim pick — a DiggerBees leader warp's inter-block
probe and a CKL-PDFS or ACR-PDFS core's steal target — is a tiny
bounded integer drawn by a :class:`BoundedDraws` over that agent's own
``PCG64`` stream.  ``np.random.Generator.integers`` costs ~2 us of
argument parsing and scalar boxing per call while the underlying PCG64
step is nanoseconds; the simulators draw thousands per run.

:class:`BoundedDraws` replays NumPy's own algorithm in Python over raw
64-bit draws fetched in bulk from the bit generator: for ranges below
2**32 ``Generator.integers`` consumes buffered 32-bit halves of the raw
stream and maps them through Lemire's unbiased rejection method
(``buffered_bounded_lemire_uint32``).  Replicating both the half-word
buffering and the rejection loop makes every draw — value *and* stream
consumption — identical to what ``Generator(bit_generator)`` would have
produced, so schedules stay bit-identical with recorded baselines.

The leader warp's two-choice probe makes up to ``4k + 8`` such draws,
all of them when it finds no active block.
:meth:`BoundedDraws.sample_hits` runs that whole bounded-retry loop
(``inter_steal._sample_active_blocks``) in one call over the same
buffered halves, so a probe pays one Python call instead of one per
draw.  The probe's range is fixed for a run, so ``sample_hits`` maps a
chunk's halves to bounded values once per ``(lo, range)`` with NumPy
and scans that list, whenever no half of the chunk is a Lemire
rejection and the probe's draws end inside the chunk; otherwise it maps
draw by draw.

NumPy keeps bit-generator streams stable across releases (NEP 19) but
not ``Generator`` methods, so the replica's equality with
``Generator.integers`` is asserted by the test suite
(``tests/utils/test_fastrand.py``) rather than assumed: a NumPy release
that changed ``integers`` fails those tests, and the simulators keep
drawing the recorded streams.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

__all__ = ["BoundedDraws"]

_U32_MASK = 0xFFFFFFFF


class BoundedDraws:
    """``Generator.integers(lo, hi)`` over one bit generator (small ranges).

    ``bit_generator`` is anything with ``random_raw``: the simulators
    pass ``np.random.PCG64(seed_sequence)``.  Draws raw 64-bit words in
    chunks via ``random_raw`` and serves them as 32-bit halves, low half
    first, exactly like NumPy's buffered ``next_uint32``.  The halves of
    one chunk sit in one list, so the stream position is a single index.
    Only the two-argument half-open ``integers`` form is supported, for
    ranges below 2**32.
    """

    __slots__ = ("_bg", "_chunk", "_halves", "_i", "_words", "_bounded_for",
                 "_bounded")

    def __init__(self, bit_generator, chunk: int = 64):
        self._bg = bit_generator
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
