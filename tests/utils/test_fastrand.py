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


def _integers_loop(gen, lo, hi, draws, k, skip, flags):
    """``sample_hits``' contract, one ``integers`` call per draw."""
    found = []
    for _ in range(draws):
        b = int(gen.integers(lo, hi))
        if b != skip and flags[b]:
            found.append(b)
            if len(found) == k:
                break
    return found


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

    rep, ref = replica(), replica()
    # Two hits: two zeros (rejected), 0xFFFFFFFF -> 2 (hit), 7 -> 0,
    # 0x80000000 -> 1 (skipped), two zeros, 5 -> 0, four zeros,
    # 0x40000000 -> 0, 0xC0000000 -> 2 (hit): 6 draws from 14 halves.
    assert (rep.sample_hits(0, 3, 16, 2, 1, [0, 0, 1])
            == _integers_loop(ref, 0, 3, 16, 2, 1, [0, 0, 1]) == [2, 2])
    assert rep._i == ref._i == 14
    # No hit: all 16 draws, 0x40000000 then 15 words whose zero low
    # half is rejected: 32 halves, ending 14 halves into the third chunk.
    assert (rep.sample_hits(0, 3, 16, 2, 1, [0, 0, 0])
            == _integers_loop(ref, 0, 3, 16, 2, 1, [0, 0, 0]) == [])
    assert rep._i == ref._i == 14
    assert [rep.integers(0, 3) for _ in range(2)] == [1, 0]
    assert [ref.integers(0, 3) for _ in range(2)] == [1, 0]


def _assert_same_stream(rep, ref, where):
    assert ([rep.integers(0, 11) for _ in range(64)]
            == [int(ref.integers(0, 11)) for _ in range(64)]), where


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("lo", [0, 5])
def test_precomputed_draws_match_integers_loop(k, lo):
    """With the default 64-word chunk most probes end inside their
    chunk, so ``sample_hits`` scans precomputed bounded values; ranges
    1-33 include the powers of two, whose Lemire threshold is 0."""
    draws = 4 * k + 8
    for n in range(1, 34):
        hi = lo + n
        for pattern, flags in _flag_patterns(n):
            flags = [0] * lo + flags
            for seed, skip in ((n, lo), (n + 100, hi - 1), (n + 200, -1)):
                rep = BoundedDraws(np.random.default_rng(seed))
                ref = np.random.default_rng(seed)
                where = (n, lo, pattern, seed, skip)
                fast = 0
                for probe in range(24):  # some windows cross a chunk end
                    got = rep.sample_hits(lo, hi, draws, k, skip, flags)
                    want = _integers_loop(ref, lo, hi, draws, k, skip, flags)
                    assert got == want, (*where, probe)
                    fast += rep._bounded_for == (lo, n)
                assert fast or n == 1, where
                _assert_same_stream(rep, ref, where)


def test_precomputed_draws_follow_range_changes():
    """One chunk serves probes of different ranges: each range gets its
    own bounded values."""
    rep = BoundedDraws(np.random.default_rng(7))
    ref = np.random.default_rng(7)
    for lo, hi in ((0, 5), (2, 9), (0, 5), (0, 16), (3, 4), (0, 5)):
        flags = [0] * (hi - 1) + [1]
        got = rep.sample_hits(lo, hi, 16, 2, -1, flags)
        assert got == _integers_loop(ref, lo, hi, 16, 2, -1, flags), (lo, hi)
    _assert_same_stream(rep, ref, "range changes")


def test_window_crossing_chunk_end():
    """A probe whose draws run past the chunk's end maps draw by draw,
    across the refill."""
    rep = BoundedDraws(np.random.default_rng(11))
    ref = np.random.default_rng(11)
    for _ in range(120):  # 120 of the chunk's 128 halves
        assert rep.integers(0, 16) == int(ref.integers(0, 16))
    flags = [0] * 16
    assert rep.sample_hits(0, 16, 16, 2, 0, flags) == []
    assert _integers_loop(ref, 0, 16, 16, 2, 0, flags) == []
    assert rep._i == 8  # eight halves into the next chunk
    _assert_same_stream(rep, ref, "crossing")


def test_rejection_inside_chunk_keeps_per_draw_loop():
    """Range 3 rejects a zero half (2**32 mod 3 = 1).  A chunk holding
    one has no precomputed values, so even a probe that ends inside it
    maps draw by draw; the next chunks, with no zero half, take the
    fast path."""
    # Halves 3, 7, 9, 10 and 14 of the first chunk are zero.
    with_zeros = [(7 << 32) | 5, 9, (2 << 32) | 0x80000000, 0xFFFFFFFF,
                  0xC0000000, 3 << 32, (1 << 32) | 4, 6 << 32]
    clean = [((i + 1) << 32) | (0x40000000 * (i % 4) + 1) for i in range(8)]
    words = with_zeros + clean + clean

    def replica():
        return BoundedDraws(SimpleNamespace(
            bit_generator=_ScriptedBitGenerator(words)), chunk=8)

    rep, ref = replica(), replica()
    hits, none = [1, 0, 1], [0, 0, 0]
    probes = ((4, 2, hits), (4, 1, hits), (4, 2, none),  # first chunk
              (16, 2, none),                  # across the first refill
              (4, 2, none), (4, 2, hits))     # clean chunks
    for n_probe, (draws, k, flags) in enumerate(probes):
        got = rep.sample_hits(0, 3, draws, k, 1, flags)
        assert got == _integers_loop(ref, 0, 3, draws, k, 1, flags), n_probe
        assert rep._i == ref._i, n_probe
        if n_probe == 2:
            assert rep._bounded_for == (0, 3) and rep._bounded is None
    assert rep._bounded_for == (0, 3) and rep._bounded is not None
    assert ([rep.integers(0, 3) for _ in range(8)]
            == [ref.integers(0, 3) for _ in range(8)])
