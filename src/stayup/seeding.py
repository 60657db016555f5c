"""Counter-keyed random streams (Salmon et al. 2011, SC11): draw i of key k is the SplitMix64 finaliser
(Steele, Lea & Flood 2014) of k + (i + 1) * GOLDEN, in uint64 arithmetic mod 2**64 on every host."""

import operator

import numpy as np

GOLDEN, M1, M2 = (np.uint64(c) for c in (0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB))


def bits(keys, counters) -> np.ndarray:
    """The 64-bit draws `counters` of `keys`, broadcast; a key extended by word w is its draw w."""
    x = np.asarray(keys, np.uint64) + (np.atleast_1d(np.asarray(counters, np.uint64)) + np.uint64(1)) * GOLDEN
    x = (x ^ x >> np.uint64(30)) * M1
    x = (x ^ x >> np.uint64(27)) * M2
    return x ^ x >> np.uint64(31)


def keys(seeds) -> np.ndarray:
    """A key per seed, a non-negative int or a sequence of them: the little-endian 64-bit words
    of its ints (0 is one word) folded into key 0 in order, column by column over the batch."""
    words = []
    for seed in seeds:
        ints = [operator.index(n) for n in ([seed] if isinstance(seed, (int, np.integer)) else seed)]
        if min(ints, default=0) < 0:
            raise ValueError(f"seeds must be non-negative, got {seed}")
        words.append([n >> s & 2**64 - 1 for n in ints for s in range(0, max(n.bit_length(), 1), 64)])
    out = np.zeros(len(words), np.uint64)
    for j in range(max(map(len, words), default=0)):
        out = np.where([j < len(w) for w in words], bits(out, [w[j] if j < len(w) else 0 for w in words]), out)
    return out


def uniforms(keys, counters) -> np.ndarray:
    """The draws as floats in [0, 1): their top 53 bits over 2**53."""
    return (bits(keys, counters) >> np.uint64(11)) * 2.0**-53


def permutations(keys, n: int) -> np.ndarray:
    """(len(keys), n): each key's uniforms 0 .. n - 1, stably argsorted."""
    return np.argsort(uniforms(np.asarray(keys)[:, None], np.arange(n)), axis=1, kind="stable")


def below(keys, counters, bounds) -> np.ndarray:
    """Integers in [0, bound), 0 < bound < 2**32: Lemire's (2019) multiply-shift of each draw's top 32
    bits. A rejected word (low product half below 2**32 % bound) is replaced by draw counter + 2**32."""
    product = (bits(keys, counters) >> np.uint64(32)) * np.asarray(bounds, np.uint64)
    rejected = product % 2**32 < 2**32 % np.asarray(bounds, np.uint64)
    if rejected.any():
        return below(keys, np.asarray(counters, np.uint64) + rejected * np.uint64(2**32), bounds)
    return (product >> np.uint64(32)).astype(np.int64)

