"""NumPy seed sequences for many seeds at once.

`np.random.default_rng(seed)` hashes `seed` with `SeedSequence` into four
64-bit words that seed a PCG64 generator; the hashing is most of the
roughly 20 us that building one generator costs. `pcg64_words` runs the
same hash as uint32 array code over a batch of seeds, one pass per
entropy length, and `generator` turns one row of words into a
`Generator(PCG64(...))`. It draws the same stream as `default_rng(seed)`
and costs about a tenth as much to build.

The hash is NumPy's `SeedSequence` with its default pool of four words
and no spawn key: the entropy words are mixed into the pool, and
`generate_state` reads the pool out.
"""

from __future__ import annotations

import functools
from typing import Sequence

import numpy as np
from numpy.random.bit_generator import ISeedSequence

POOL_SIZE = 4
MASK32 = 0xFFFFFFFF
INIT_A = 0x43B0D7E5
MULT_A = 0x931E8875
INIT_B = 0x8B51F9DD
MULT_B = 0x58F38DED
MIX_MULT_L = 0xCA01F9DD
MIX_MULT_R = 0x4973F715
XSHIFT = 16
PCG64_WORDS = 4   # PCG64 asks its seed sequence for generate_state(4, uint64)


def _entropy_words(seed) -> list[int]:
    """The uint32 words SeedSequence(seed) hashes: each int's little-endian
    32-bit words in order, with 0 as one word [0].

    `seed` is a non-negative int or a sequence of them; a negative one
    raises ValueError and a non-integer TypeError, as default_rng does.
    """
    ints = [seed] if isinstance(seed, (int, np.integer)) else seed
    words = []
    for n in ints:
        if not isinstance(n, (int, np.integer)):
            raise TypeError(f"seed must be an integer or a sequence of integers, got {n!r}")
        n = int(n)
        if n < 0:
            raise ValueError("expected non-negative integer")
        if n == 0:
            words.append(0)
        while n > 0:
            words.append(n & MASK32)
            n >>= 32
    return words


@functools.lru_cache(maxsize=64)
def _hash_constants(count: int, init: int, mult: int) -> tuple[int, ...]:
    """The running hash constant before and after each of `count` hashmix calls."""
    out = [init]
    for _ in range(count):
        out.append(out[-1] * mult & MASK32)
    return tuple(out)


def _hashmix(value, pre: int, post: int):
    value = (value ^ pre) * post & MASK32
    return value ^ (value >> XSHIFT)


def _mix(x, y):
    result = ((MIX_MULT_L * x & MASK32) - (MIX_MULT_R * y & MASK32)) & MASK32
    return result ^ (result >> XSHIFT)


def _generate_state(entropy: list, n_words: int) -> list:
    """SeedSequence's pool mix and generate_state(n_words) over lanes.

    Each entry of `entropy` is one entropy word of every seed in the batch:
    a uint32 array with one lane per seed, or a Python int for a batch of
    one. The arithmetic is the same on both, modulo 2**32, and so is the
    result: n_words entries of the same kind.
    """
    length = len(entropy)
    calls = POOL_SIZE * POOL_SIZE + POOL_SIZE * max(length - POOL_SIZE, 0)
    constants = iter(_hash_constants(calls, INIT_A, MULT_A))
    pre = next(constants)

    def hashmix(value):
        nonlocal pre
        post = next(constants)
        out, pre = _hashmix(value, pre, post), post
        return out

    pool = [hashmix(entropy[i] if i < length else 0) for i in range(POOL_SIZE)]
    for src in range(POOL_SIZE):
        for dst in range(POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for src in range(POOL_SIZE, length):
        for dst in range(POOL_SIZE):
            pool[dst] = _mix(pool[dst], hashmix(entropy[src]))
    out = _hash_constants(n_words, INIT_B, MULT_B)
    return [_hashmix(pool[i % POOL_SIZE], out[i], out[i + 1]) for i in range(n_words)]


def _state_words(entropy: np.ndarray, n_words: int) -> np.ndarray:
    """SeedSequence(e).generate_state(n_words) for every row e of an (N, L)
    uint32 entropy matrix: an (N, n_words) uint32 array."""
    entropy = np.asarray(entropy, dtype=np.uint32)
    words = _generate_state(list(entropy.T), n_words)
    out = np.empty((entropy.shape[0], n_words), dtype=np.uint32)
    for i, word in enumerate(words):
        out[:, i] = word
    return out


def _as_uint64(words32: np.ndarray) -> np.ndarray:
    """Pairs of uint32 words as little-endian uint64 words, as generate_state(dtype=uint64)."""
    return np.ascontiguousarray(words32).astype("<u4").view("<u8").astype(np.uint64)


def seed_states(seeds: Sequence, n_words: int) -> np.ndarray:
    """SeedSequence(seed).generate_state(n_words) of every seed: (len(seeds),
    n_words) uint32, hashed in one pass per entropy length."""
    entropy = [_entropy_words(seed) for seed in seeds]
    out = np.empty((len(entropy), n_words), dtype=np.uint32)
    by_length: dict[int, list[int]] = {}
    for i, words in enumerate(entropy):
        by_length.setdefault(len(words), []).append(i)
    for length, rows in by_length.items():
        if len(rows) == 1:   # Python ints hash one seed faster than arrays of one lane
            out[rows[0]] = _generate_state(entropy[rows[0]], n_words)
        else:
            block = np.array([entropy[i] for i in rows], dtype=np.uint32)
            out[rows] = _state_words(block.reshape(len(rows), length), n_words)
    return out


def pcg64_words(seeds: Sequence) -> np.ndarray:
    """(len(seeds), 4) uint64: the words default_rng(seed) seeds its PCG64 with."""
    return _as_uint64(seed_states(seeds, 2 * PCG64_WORDS))


def keyed_pcg64_words(prefix, keys) -> np.ndarray:
    """pcg64_words([*prefix, k] for k in keys) for a uint64 array of keys,
    split into entropy words by array ops rather than per key."""
    head = _entropy_words(prefix)
    keys = np.asarray(keys, dtype=np.uint64)
    lo = (keys & np.uint64(MASK32)).astype(np.uint32)
    hi = (keys >> np.uint64(32)).astype(np.uint32)
    out = np.empty((len(keys), PCG64_WORDS), dtype=np.uint64)
    wide = hi > 0
    for rows, tail in ((~wide, [lo]), (wide, [lo, hi])):
        if rows.any():
            columns = [np.full(int(rows.sum()), w, dtype=np.uint32) for w in head]
            entropy = np.column_stack(columns + [t[rows] for t in tail])
            out[rows] = _as_uint64(_state_words(entropy, 2 * PCG64_WORDS))
    return out


class _HashedSeed(ISeedSequence):
    """A seed sequence whose PCG64 words are already computed."""

    def __init__(self, words: np.ndarray):
        self._words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != PCG64_WORDS or np.dtype(dtype) != np.uint64:
            raise ValueError("a hashed seed holds only the 4 uint64 words of a PCG64 seed")
        return self._words


def generator(words: np.ndarray) -> np.random.Generator:
    """The Generator that default_rng(seed) returns, from one row of pcg64_words."""
    return np.random.Generator(np.random.PCG64(_HashedSeed(words)))


def generators(seeds: Sequence) -> list[np.random.Generator]:
    """[default_rng(seed) for seed in seeds], with the seeds hashed together."""
    return [generator(words) for words in pcg64_words(seeds)]


def rng(seed) -> np.random.Generator:
    """default_rng(seed) for one int or sequence-of-ints seed."""
    return generators([seed])[0]
