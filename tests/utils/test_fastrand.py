"""``BoundedDraws.sample_hits`` against the ``integers`` loop it replays.

``inter_steal._sample_active_blocks`` hands a replica generator's whole
bounded-retry loop to ``sample_hits`` and runs one ``integers`` call
per draw on a plain ``Generator``.  Both must return the same blocks
and leave the stream at the same position, or every later leader probe
of the run would draw different victims.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.core.inter_steal import _sample_active_blocks
from repro.utils.fastrand import BoundedDraws

RANGES = (*range(1, 18), 33)


def _flag_patterns(n):
    yield "none", [0] * n
    yield "one-first", [1] + [0] * (n - 1)
    yield "one-last", [0] * (n - 1) + [1]
    yield "all", [1] * n


@pytest.mark.parametrize("k", [1, 2])
def test_sample_hits_matches_integers_loop(k):
    for n in RANGES:
        for pattern, flags in _flag_patterns(n):
            state = SimpleNamespace(
                config=SimpleNamespace(n_blocks=n, blocks_per_gpu=n),
                active_mask_slab=flags)
            for seed, skip in ((n, 0), (n + 100, n - 1), (n + 200, -1)):
                rep = BoundedDraws(np.random.default_rng(seed), chunk=3)
                ref = np.random.default_rng(seed)
                # One prefix draw leaves a buffered high half behind.
                assert rep.integers(0, 7) == int(ref.integers(0, 7))
                got = _sample_active_blocks(state, skip, rep, k)
                want = _sample_active_blocks(state, skip, ref, k)
                where = (n, pattern, seed, skip)
                assert got == want, where
                assert ([rep.integers(0, 11) for _ in range(64)]
                        == [int(ref.integers(0, 11)) for _ in range(64)]
                        ), where


class _ScriptedBitGenerator:
    """A bit generator that serves a fixed list of raw 64-bit words."""

    def __init__(self, words):
        self.words = list(words)

    def random_raw(self, size):
        out, self.words = self.words[:size], self.words[size:]
        assert len(out) == size, "script exhausted"
        return np.array(out, dtype=np.uint64)


def test_sample_hits_lemire_rejection():
    """A zero 32-bit half maps to leftover 0, below range 3's threshold
    (2**32 mod 3 = 1), so it is rejected and the draw takes the next
    half; a rejected half does not count as one of the 4k + 8 draws."""
    words = [0, (7 << 32) | 0xFFFFFFFF, 0x80000000, 5 << 32, 0, 0,
             (0xC0000000 << 32) | 0x40000000, 0x40000000,
             *[1 << 32] * 15, (2 << 32) | 0x80000000]

    def replica():
        return BoundedDraws(SimpleNamespace(
            bit_generator=_ScriptedBitGenerator(words)), chunk=8)

    def integers_loop(gen, k, skip, flags):
        found = []
        for _ in range(4 * k + 8):
            b = gen.integers(0, 3)
            if b != skip and flags[b]:
                found.append(b)
                if len(found) == k:
                    break
        return found

    rep, ref = replica(), replica()
    # Two hits: two zeros (rejected), 0xFFFFFFFF -> 2 (hit), 7 -> 0,
    # 0x80000000 -> 1 (skipped), two zeros, 5 -> 0, four zeros,
    # 0x40000000 -> 0, 0xC0000000 -> 2 (hit): 6 draws from 14 halves.
    assert (rep.sample_hits(0, 3, 16, 2, 1, [0, 0, 1])
            == integers_loop(ref, 2, 1, [0, 0, 1]) == [2, 2])
    assert rep._i == ref._i == 14
    # No hit: all 16 draws, 0x40000000 then 15 words whose zero low
    # half is rejected: 32 halves, ending 14 halves into the third chunk.
    assert (rep.sample_hits(0, 3, 16, 2, 1, [0, 0, 0])
            == integers_loop(ref, 2, 1, [0, 0, 0]) == [])
    assert rep._i == ref._i == 14
    assert [rep.integers(0, 3) for _ in range(2)] == [1, 0]
    assert [ref.integers(0, 3) for _ in range(2)] == [1, 0]
