"""``BoundedDraws`` against NumPy's ``Generator.integers`` it replays.

Every simulated victim pick draws through a ``BoundedDraws`` over a
``PCG64`` stream, and the recorded schedules (``baseline_micro.json``,
the sweep digest, the goldens) were made with ``Generator.integers``
over the same streams.  NumPy keeps bit-generator streams stable across
releases but not ``Generator`` methods, so these tests are what notices
a release that changes ``integers``: the replica must match it value
for value and leave the stream at the same position.
``inter_steal._sample_active_blocks`` hands its whole bounded-retry
loop to ``sample_hits``, which must return the same blocks as one
``integers`` call per draw.
"""

import random
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core.inter_steal import _sample_active_blocks
from repro.utils.fastrand import BoundedDraws

RANGES = (*range(1, 18), 33)


def _replica(seed, chunk=64):
    """The simulators' draw stream: ``BoundedDraws`` over ``PCG64``."""
    return BoundedDraws(np.random.PCG64(seed), chunk=chunk)


def _generator(seed):
    """The stream the replica must equal: NumPy's own ``integers``."""
    return np.random.Generator(np.random.PCG64(seed))


class _CountingBitGenerator:
    """A ``PCG64`` that counts the raw words a replica fetched."""

    def __init__(self, seed):
        self.bg = np.random.PCG64(seed)
        self.words = 0

    def random_raw(self, size):
        self.words += size
        return self.bg.random_raw(size)


def _halves_used(gen, probe):
    """32-bit halves ``gen`` (a ``Generator`` over ``PCG64``) has taken.

    ``probe`` is a ``[PCG64, words]`` pair on the same seed, at or behind
    ``gen``'s raw-word position; it is advanced to it, one word at a time.
    A set ``has_uint32`` flag is a buffered high half not yet served.
    """
    state = gen.bit_generator.state
    while probe[0].state["state"] != state["state"]:
        probe[0].advance(1)
        probe[1] += 1
    return 2 * probe[1] - state["has_uint32"]


@pytest.mark.parametrize("seed", [0, 1, 0xD166E4])
def test_integers_matches_generator_on_every_range(seed):
    """Every width 1..132 (H100's 132 blocks bound every block range
    and core range the simulators draw from), at several offsets, with
    the ranges interleaved: equal values, and after every draw the same
    number of 32-bit halves taken from the stream.  (Random words almost
    never hit a Lemire rejection at these widths; the scripted-word
    tests below force them.)"""
    counting = _CountingBitGenerator(seed)
    rep = BoundedDraws(counting, chunk=8)
    ref = _generator(seed)
    probe = [np.random.PCG64(seed), 0]
    widths = list(range(1, 133)) * 3
    random.Random(seed).shuffle(widths)
    for n, width in enumerate(widths):
        lo = (0, 1, 5, 64)[n % 4]
        assert rep.integers(lo, lo + width) == ref.integers(lo, lo + width), (
            n, lo, width)
        rep_used = 2 * counting.words - (len(rep._halves) - rep._i)
        assert rep_used == _halves_used(ref, probe), (n, lo, width)


def _flag_patterns(n):
    yield "none", [0] * n
    yield "one-first", [1] + [0] * (n - 1)
    yield "one-last", [0] * (n - 1) + [1]
    yield "all", [1] * n


@pytest.mark.parametrize("k", [1, 2])
def test_sample_hits_matches_integers_loop(k):
    """On the range ``_sample_active_blocks`` computes: all blocks, or
    one GPU's blocks (here the second of two)."""
    for n in RANGES:
        for pattern, flags in _flag_patterns(n):
            for gpu_id, lo in ((None, 0), (1, n)):
                state = SimpleNamespace(
                    config=SimpleNamespace(n_blocks=lo + n, blocks_per_gpu=n),
                    active_mask_slab=[0] * lo + flags)
                for seed, skip in ((n, lo), (n + 100, lo + n - 1),
                                   (n + 200, -1)):
                    rep = _replica(seed, chunk=3)
                    ref = _generator(seed)
                    # One prefix draw leaves a buffered high half behind.
                    assert rep.integers(0, 7) == ref.integers(0, 7)
                    got = _sample_active_blocks(state, skip, rep, k,
                                                gpu_id=gpu_id)
                    want = _integers_loop(ref, lo, lo + n, 4 * k + 8, k,
                                          skip, state.active_mask_slab)
                    where = (n, pattern, gpu_id, seed, skip)
                    assert got == want, where
                    _assert_same_stream(rep, ref, where)


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
        return BoundedDraws(_ScriptedBitGenerator(words), chunk=8)

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
                rep = _replica(seed)
                ref = _generator(seed)
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
    rep = _replica(7)
    ref = _generator(7)
    for lo, hi in ((0, 5), (2, 9), (0, 5), (0, 16), (3, 4), (0, 5)):
        flags = [0] * (hi - 1) + [1]
        got = rep.sample_hits(lo, hi, 16, 2, -1, flags)
        assert got == _integers_loop(ref, lo, hi, 16, 2, -1, flags), (lo, hi)
    _assert_same_stream(rep, ref, "range changes")


def test_window_crossing_chunk_end():
    """A probe whose draws run past the chunk's end maps draw by draw,
    across the refill."""
    rep = _replica(11)
    ref = _generator(11)
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
        return BoundedDraws(_ScriptedBitGenerator(words), chunk=8)

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
