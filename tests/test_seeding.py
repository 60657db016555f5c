"""Differential tests of stayup.seeding against NumPy's own seeding."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stayup import bayesnet as bn
from stayup import consensus as cons
from stayup import evaluate as ev
from stayup import pipeline, seeding

# ints of one, two and three or more 32-bit words, and 0, which is one word [0]
seed_ints = st.one_of(
    st.just(0),
    st.integers(1, 2**32 - 1),
    st.integers(2**32, 2**64 - 1),
    st.integers(2**64, 2**130),
)
seeds = st.one_of(seed_ints, st.lists(seed_ints, min_size=1, max_size=8))


def draws(rng):
    return rng.permutation(12), rng.random(5), rng.integers(0, 2**40, size=5)


def assert_same_streams(got, want):
    for a, b in zip(draws(got), draws(want)):
        np.testing.assert_array_equal(a, b)


@settings(max_examples=150)
@given(st.lists(seeds, min_size=1, max_size=12))
def test_generators_match_default_rng(batch):
    # mixed entropy lengths in one batch take one hashing pass per length
    for got, seed in zip(seeding.generators(batch), batch):
        assert_same_streams(got, np.random.default_rng(seed))


@settings(max_examples=100)
@given(seeds, st.integers(1, 12))
def test_seed_states_match_seed_sequence(seed, n_words):
    want = np.random.SeedSequence(seed).generate_state(n_words)
    np.testing.assert_array_equal(seeding.seed_states([seed], n_words)[0], want)
    np.testing.assert_array_equal(seeding.seed_states([seed, seed], n_words)[1], want)


@settings(max_examples=60)
@given(st.lists(seed_ints, min_size=0, max_size=4),
       st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=20))
def test_keyed_words_match_seed_lists(prefix, keys):
    keys += [0, 1, 2**32 - 1, 2**32, 2**64 - 1]
    got = seeding.keyed_pcg64_words(prefix, np.array(keys, dtype=np.uint64))
    for words, key in zip(got, keys):
        assert_same_streams(seeding.generator(words), np.random.default_rng(prefix + [key]))


def test_rng_matches_default_rng():
    for seed in (0, 1, 2**54, 2**64 - 1, 2**70, [1, 2, 3], np.int64(5), [np.uint64(2**63), 1]):
        assert_same_streams(seeding.rng(seed), np.random.default_rng(seed))


def test_derived_seed_words():
    # pipeline.derive_seed reads two uint32 words
    want = np.random.SeedSequence([7, 3, 1]).generate_state(2)
    np.testing.assert_array_equal(seeding.seed_states([[7, 3, 1]], 2)[0], want)


@pytest.mark.parametrize("seed", [-1, [1, -2], [2**40, -(2**40)]])
def test_negative_seed_rejected_like_default_rng(seed):
    with pytest.raises(ValueError, match="non-negative"):
        np.random.default_rng(seed)
    with pytest.raises(ValueError, match="non-negative"):
        seeding.generators([1, seed])


@pytest.mark.parametrize("seed", [1.5, [1, 2.0], None])
def test_non_integer_seed_rejected(seed):
    with pytest.raises(TypeError):
        seeding.rng(seed)


def test_hashed_seed_serves_only_pcg64():
    words = seeding.pcg64_words([3])[0]
    with pytest.raises(ValueError, match="PCG64"):
        seeding._HashedSeed(words).generate_state(8, np.uint32)
    with pytest.raises(ValueError, match="PCG64"):
        np.random.MT19937(seeding._HashedSeed(words))


class TestCallSitesDrawDefaultRngStreams:
    """Each place the pipeline seeds a generator gets default_rng's stream."""

    def test_derive_seed(self):
        words = np.random.SeedSequence([7, 3, 1]).generate_state(2)
        assert pipeline.derive_seed(7, 3, 1) == int(words[0]) << 32 | int(words[1])

    def test_fold_indices(self):
        seed = [4, 2**33]
        perm = np.random.default_rng(seed + [23]).permutation(103)
        want = [np.sort(part) for part in np.array_split(perm, 5)]
        for got, part in zip(ev.fold_indices(103, 5, seed), want):
            np.testing.assert_array_equal(got, part)

    def test_top_fraction_tie_order(self):
        ensemble = cons.EnsembleResult(np.zeros((12, 9), dtype=np.int64), np.full(12, -1.0),
                                       [9, 2**40])
        perm = np.random.default_rng([9, 2**40, 97]).permutation(12)
        got = cons.top_fraction(ensemble, 0.5)
        assert got.tolist() == np.argsort(perm)[:6].tolist()

    def test_null_replicas(self, monkeypatch):
        states = []
        permute = cons.permute_columns

        def spy(data, rng):
            states.append(rng.bit_generator.state)
            return permute(data, rng)

        monkeypatch.setattr(cons, "permute_columns", spy)
        values = np.random.default_rng(1).integers(0, 2, size=(60, 9)).astype(np.uint8)
        table = bn.DatasetTable(bn.profile_variables(), values)
        cons.null_threshold(table, bn.default_layer_constraints(), bn.BdeuConfig(), replicas=3,
                            seed=[5, 2**40], n_restarts=2)
        assert states == [np.random.default_rng([5, 2**40, 11, rep]).bit_generator.state
                          for rep in range(3)]
