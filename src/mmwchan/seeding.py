"""Per-drop random streams, seeded for a whole chunk of drops in one pass.

Drop i of a campaign draws from the stream of
``SeedSequence(entropy=master_seed, spawn_key=(0, i))``. Building that
object, its generator and its seed word one drop at a time costs about
30 µs per drop. This module runs numpy's documented SeedSequence hash and
mix (``numpy/random/bit_generator.pyx``) on uint32 words instead: the pool
before the index word depends only on the master seed and is computed once
with Python ints, and only the index words are mixed, as arrays over the
drops. Each generator is then built from its precomputed state words, so
the streams and seed words are those of SeedSequence, bit for bit.

Importing this module imports ``numpy.random``; import it where drops are
drawn, not at package import.
"""

from __future__ import annotations

import operator

import numpy as np
from numpy.random import PCG64, Generator
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


def _hash(value, hash_const: int, mult: int):
    """One SeedSequence hash step on a Python int or a uint32 array, and the
    next hash constant. Array products wrap at 32 bits by themselves; the
    mask does the same for Python ints."""
    value = value ^ hash_const
    hash_const = hash_const * mult & _MASK32
    value = value * hash_const & _MASK32
    return value ^ value >> _XSHIFT, hash_const


def _mix(x, y):
    result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return result ^ result >> _XSHIFT


def _uint32_words(n: int) -> list[int]:
    """Little-endian 32-bit words of a non-negative int; 0 is one word."""
    words = [n & _MASK32]
    while n := n >> 32:
        words.append(n & _MASK32)
    return words


def _master_pool(master_seed: int) -> tuple[list[int], int]:
    """The mixed pool of ``SeedSequence(master_seed, spawn_key=(0, i))``
    before its index word, with the hash constant at that point: the run
    entropy padded to the pool size, then the spawn key's leading 0."""
    entropy = _uint32_words(master_seed)
    entropy += [0] * (_POOL_SIZE - len(entropy)) + [0]
    hash_const = _INIT_A
    pool = []
    for word in entropy[:_POOL_SIZE]:
        mixed, hash_const = _hash(word, hash_const, _MULT_A)
        pool.append(mixed)
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                mixed, hash_const = _hash(pool[src], hash_const, _MULT_A)
                pool[dst] = _mix(pool[dst], mixed)
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            mixed, hash_const = _hash(word, hash_const, _MULT_A)
            pool[dst] = _mix(pool[dst], mixed)
    return pool, hash_const


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


def drop_streams(master_seed: int, start: int, stop: int) -> tuple[list[Generator], list[int]]:
    """The generator and the seed word of each drop in [start, stop): the
    generator equals ``default_rng(SeedSequence(master_seed, spawn_key=(0,
    i)))`` and the seed word is the first uint64 of its state."""
    words = spawn_state_words(master_seed, np.arange(start, stop, dtype=np.uint64))
    return [Generator(PCG64(_StateWords(w))) for w in words], words[:, 0].tolist()
