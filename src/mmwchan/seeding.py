"""Per-drop random streams, seeded for a whole chunk of drops in one pass.

Drop i of a campaign draws from the stream of
``SeedSequence(entropy=master_seed, spawn_key=(0, i))``. Building that
object, its generator and its seed word one drop at a time costs about
30 µs per drop. The pool before the index word depends only on the master
seed: it is the pool of ``SeedSequence(master_seed, spawn_key=(0,))``,
which numpy computes once per chunk. This module then runs numpy's
documented SeedSequence hash and mix (``numpy/random/bit_generator.pyx``)
on the index words alone, as uint32 arrays over the drops. Each generator
is built from its precomputed state words, so the streams and seed words
are those of SeedSequence, bit for bit.

Importing this module imports ``numpy.random``; import it where drops are
drawn, not at package import.
"""

from __future__ import annotations

import operator

import numpy as np
from numpy.random import PCG64, Generator, SeedSequence
from numpy.random.bit_generator import ISeedSequence

_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_XSHIFT = 16
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
#: uint32 state words PCG64 asks its seed sequence for (4 x uint64).
_STATE_WORDS = 8


def _hash(value: np.ndarray, hash_const: int, mult: int) -> tuple[np.ndarray, int]:
    """One SeedSequence hash step on a uint32 array, whose products wrap at
    32 bits by themselves, and the next hash constant."""
    value = value ^ hash_const
    hash_const = hash_const * mult & _MASK32
    value = value * hash_const & _MASK32
    return value ^ value >> _XSHIFT, hash_const


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """SeedSequence's mix of two uint32 arrays."""
    result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return result ^ result >> _XSHIFT


def _master_pool(master_seed: int) -> tuple[np.ndarray, int]:
    """The mixed pool of ``SeedSequence(master_seed, spawn_key=(0, i))``
    before its index word, with the hash constant at that point. The pool
    is that of ``spawn_key=(0,)``. Its w assembled words, the entropy
    padded to the pool size and the key's 0, take 4w hash steps: 4 to fill
    the pool, 12 to mix it pairwise and 4 for each further word."""
    words = max((master_seed.bit_length() + 31) // 32, _POOL_SIZE) + 1
    return SeedSequence(master_seed, spawn_key=(0,)).pool, _INIT_A * pow(_MULT_A, 4 * words, 1 << 32) & _MASK32


def spawn_state_words(master_seed: int, indices) -> np.ndarray:
    """``SeedSequence(entropy=master_seed, spawn_key=(0, i)).generate_state(4,
    np.uint64)`` for every i of ``indices`` (each below 2**64), as an
    (n, 4) uint64 array. An index of 2**32 or more has a second key word."""
    master_seed = operator.index(master_seed)
    if master_seed < 0:
        raise ValueError(f"master_seed must be >= 0, got {master_seed}")
    idx = np.asarray(indices, dtype=np.uint64)
    pool, hash_const = _master_pool(master_seed)
    cols = [np.full(idx.shape, p, dtype=np.uint32) for p in pool]
    num_key_words = 2 if idx.size and int(idx.max()) > _MASK32 else 1
    for k in range(num_key_words):
        shifted = idx >> np.uint64(32 * k)
        word = (shifted & np.uint64(_MASK32)).astype(np.uint32)
        has_word = shifted > 0 if k else np.True_
        for dst in range(_POOL_SIZE):
            mixed, hash_const = _hash(word, hash_const, _MULT_A)
            cols[dst] = np.where(has_word, _mix(cols[dst], mixed), cols[dst])
    hash_const = _INIT_B
    state = np.empty((idx.size, _STATE_WORDS), dtype=np.uint32)
    for i in range(_STATE_WORDS):
        state[:, i], hash_const = _hash(cols[i % _POOL_SIZE], hash_const, _MULT_B)
    return state.astype("<u4", copy=False).view("<u8").astype(np.uint64, copy=False)


class _StateWords(ISeedSequence):
    """A seed sequence that hands PCG64 its precomputed state words."""

    def __init__(self, words: np.ndarray) -> None:
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != self.words.size or np.dtype(dtype) != self.words.dtype:
            raise ValueError("only the precomputed PCG64 state words are available")
        return self.words


def drop_streams(master_seed: int, start: int, stop: int) -> tuple[list[Generator], np.ndarray]:
    """The generator of each drop i in [start, stop), equal to
    ``default_rng(SeedSequence(master_seed, spawn_key=(0, i)))``, and the
    drops' seed words, the first uint64 of each state, as a uint64 array."""
    words = spawn_state_words(master_seed, np.arange(start, stop, dtype=np.uint64))
    return [Generator(PCG64(_StateWords(w))) for w in words], words[:, 0]
