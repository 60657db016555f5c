"""stayup.seeding's array code against the scalar reference, the call sites'
streams, and fixed-seed statistical checks of the draws."""

import itertools
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from stayup import bayesnet as bn
from stayup import consensus as cons
from stayup import evaluate as ev
from stayup import cli, pipeline, seeding

import reference

SRC = Path(__file__).resolve().parent.parent / "src"
ALPHA = 1e-4   # each statistical check fails a correct stream with this probability

# ints of one, two and three or more 64-bit words, and 0, which is one word [0]
seed_ints = st.one_of(
    st.just(0),
    st.integers(1, 2**64 - 1),
    st.integers(2**64, 2**130),
)
seeds = st.one_of(seed_ints, st.lists(seed_ints, min_size=0, max_size=6))
words = st.integers(0, 2**64 - 1)


class TestMatchesScalarReference:
    @settings(max_examples=150)
    @given(st.lists(seeds, min_size=0, max_size=12))
    def test_keys(self, batch):
        # mixed lengths in one batch fold column by column
        got = seeding.keys(batch)
        assert got.dtype == np.uint64
        assert got.tolist() == [reference.stream_key(seed) for seed in batch]

    @settings(max_examples=100)
    @given(st.lists(words, min_size=1, max_size=8), st.lists(words, min_size=1, max_size=8))
    def test_bits_and_uniforms(self, keys, counters):
        keys += [0, 2**64 - 1]
        counters += [0, 2**64 - 1]
        k, c = np.array(keys, np.uint64)[:, None], np.array(counters, np.uint64)
        assert seeding.bits(k, c).tolist() == [[reference.stream_bits(a, b) for b in counters]
                                               for a in keys]
        assert seeding.uniforms(k, c).tolist() == [[reference.stream_uniform(a, b)
                                                    for b in counters] for a in keys]

    @settings(max_examples=100)
    @given(st.lists(words, min_size=0, max_size=6), st.integers(0, 40))
    def test_permutations(self, keys, n):
        got = seeding.permutations(np.array(keys, np.uint64), n)
        assert got.shape == (len(keys), n)
        assert got.tolist() == [reference.stream_permutation(k, n) for k in keys]

    @settings(max_examples=150)
    @given(st.lists(st.tuples(words, words, st.integers(1, 2**32 - 1)), min_size=1, max_size=10))
    def test_below(self, draws):
        keys, counters, bounds = (np.array(column, np.uint64) for column in zip(*draws))
        got = seeding.below(keys, counters, bounds)
        assert got.dtype == np.int64
        assert got.tolist() == [reference.stream_below(*d) for d in draws]

    @settings(max_examples=60)
    @given(words, st.integers(0, 30), st.integers(1, 5))
    def test_column_permutations_in_turn(self, key, rows, columns):
        values = np.arange(rows * columns, dtype=np.uint8).reshape(rows, columns)   # all distinct
        table = bn.DatasetTable(bn.VariableSet(tuple("ABCDE"[:columns]), (150,) * columns), values)
        got = cons.permute_columns(table, np.uint64(key)).values
        assert got.tolist() == reference.stream_permute_columns(values, key).tolist()

    def test_a_key_extends_by_its_own_draw(self):
        prefix = seeding.keys([[5, 2**64 - 1]])
        tails = np.array([0, 1, 2**63, 2**64 - 1], np.uint64)
        assert seeding.bits(prefix, tails).tolist() == \
            seeding.keys([[5, 2**64 - 1, int(t)] for t in tails]).tolist()

    @pytest.mark.parametrize("seed", [-1, [1, -2], [2**40, -(2**40)]])
    def test_negative_seed_rejected(self, seed):
        with pytest.raises(ValueError, match="non-negative"):
            seeding.keys([1, seed])

    @pytest.mark.parametrize("seed", [1.5, [1, 2.0], None])
    def test_non_integer_seed_rejected(self, seed):
        with pytest.raises(TypeError):
            seeding.keys([seed])

    def test_no_overflow_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            key = seeding.keys([2**64 - 1])
            seeding.bits(key[0], 2**64 - 1)
            seeding.uniforms(key, np.uint64(2**64 - 1))
            seeding.below(key, 2**64 - 1, 2**32 - 1)
            seeding.permutations(key, 5)


class TestStatistics:
    """Fixed seeds, so each check passes or fails the same way on every run; a
    correct stream fails one with probability ALPHA."""

    @staticmethod
    def chi_square_p(observed, expected):
        observed = np.asarray(observed, dtype=np.float64)
        return stats.chi2.sf(((observed - expected) ** 2 / expected).sum(), len(observed) - 1)

    @pytest.mark.parametrize("along", ["counters", "keys"])
    def test_uniform_bins(self, along):
        n, bins = 100_000, 100
        if along == "counters":   # one key's stream
            u = seeding.uniforms(seeding.keys([[3, 1]]), np.arange(n))
        else:                     # draw 0 of many keys, as lockstep climbs read them
            u = seeding.uniforms(seeding.keys([[3, i] for i in range(n)]), 0)
        assert ((0 <= u) & (u < 1)).all()
        observed = np.bincount((u * bins).astype(np.int64), minlength=bins)
        assert self.chi_square_p(observed, n / bins) > ALPHA

    def test_all_permutations_of_four(self):
        n = 48_000
        perms = seeding.permutations(seeding.keys([[4, i] for i in range(n)]), 4)
        index = {p: i for i, p in enumerate(itertools.permutations(range(4)))}
        observed = np.bincount([index[tuple(p)] for p in perms.tolist()], minlength=24)
        assert (observed > 0).all()
        assert self.chi_square_p(observed, n / 24) > ALPHA

    @pytest.mark.parametrize("bound", [2, 5, 7, 162])
    def test_uniform_tie_picks(self, bound):
        n = 50_000
        picks = seeding.below(seeding.keys([[6, i] for i in range(n)]), 3, np.full(n, bound))
        assert ((0 <= picks) & (picks < bound)).all()
        assert self.chi_square_p(np.bincount(picks, minlength=bound), n / bound) > ALPHA

    def test_a_rejected_word_takes_the_draw_two_to_the_32_on(self):
        # 2**32 % bound == 2**30, so a word is rejected with probability 1/4
        bound = 3 * 2**30

        def product(key, counter):
            return (reference.stream_bits(key, counter) >> 32) * bound

        # the first key whose draw 0 is rejected and whose draw 2**32 is accepted
        key = next(k for k in map(reference.stream_key, ([8, i] for i in range(100)))
                   if product(k, 0) % 2**32 < 2**30 <= product(k, 2**32) % 2**32)
        again = product(key, 2**32)
        got = seeding.below(np.array([key], np.uint64), 0, bound)
        assert got.tolist() == [again >> 32] == [reference.stream_below(key, 0, bound)]
        assert got[0] != (reference.stream_bits(key, 0) >> 32) * bound >> 32


class TestCallSitesDrawTheirStreams:
    """Each place the pipeline draws reads the stream of its seed list, which the
    program names by extending the key of a shorter one."""

    def test_derive_seed(self):
        assert pipeline.derive_seed(7, 3, 1) == reference.stream_key([7, 3, 1])

    def test_fold_indices(self):
        seed = [4, 2**33]
        perm = reference.stream_permutation(reference.stream_key(seed + [23]), 103)
        want = [np.sort(part) for part in np.array_split(perm, 5)]
        for got, part in zip(ev.fold_indices(103, 5, seed), want):
            np.testing.assert_array_equal(got, part)

    def test_top_fraction_tie_order(self):
        ensemble = cons.EnsembleResult(np.zeros((12, 9), dtype=np.int64), np.full(12, -1.0),
                                       seeding.keys([[9, 2**40]])[0])
        perm = reference.stream_permutation(reference.stream_key([9, 2**40, 97]), 12)
        got = cons.top_fraction(ensemble, 0.5)
        assert got.tolist() == np.argsort(perm)[:6].tolist()

    def test_null_replicas(self, monkeypatch):
        keys = []
        permute = cons.permute_columns

        def spy(data, key):
            keys.append(int(key))
            out = permute(data, key)
            # one permutation per column, in turn from the key's first draw
            assert out.values.tolist() == \
                reference.stream_permute_columns(data.values, int(key)).tolist()
            return out

        monkeypatch.setattr(cons, "permute_columns", spy)
        values = np.random.default_rng(1).integers(0, 2, size=(60, 9)).astype(np.uint8)
        table = bn.DatasetTable(bn.profile_variables(), values)
        cons.null_threshold(table, bn.default_layer_constraints(), bn.BdeuConfig(), replicas=3,
                            seed=[5, 2**40], n_restarts=2)
        assert keys == [reference.stream_key([5, 2**40, 11, rep]) for rep in range(3)]

    def test_permute_columns_reads_successive_permutations(self):
        values = np.arange(60, dtype=np.uint8).reshape(20, 3) % 7
        table = bn.DatasetTable(bn.VariableSet(("A", "B", "C"), (7, 7, 7)), values)
        got = cons.permute_columns(table, seeding.keys([[5, 11, 0]])[0])
        key = reference.stream_key([5, 11, 0])
        for j in range(3):
            perm = reference.stream_permutation(key, 20, 20 * j)
            assert got.values[:, j].tolist() == values[perm, j].tolist()


def _run_isolated(code: str) -> subprocess.CompletedProcess:
    """`code` in a fresh interpreter in which importing numpy.random fails, also in
    any process it forks."""
    guard = ("import sys\n"
             "class NoNumpyRandom:\n"
             "    def find_spec(self, name, path=None, target=None):\n"
             "        if name == 'numpy.random' or name.startswith('numpy.random.'):\n"
             "            raise ImportError('numpy.random imported')\n"
             "sys.meta_path.insert(0, NoNumpyRandom())\n")
    return subprocess.run([sys.executable, "-c", guard + code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=120)


class TestNoNumpyRandom:
    def test_cli_import(self):
        done = _run_isolated("import stayup.cli\n"
                             "assert not any(m.startswith('numpy.random') for m in sys.modules)")
        assert done.returncode == 0, done.stderr

    def test_small_run(self, tmp_path):
        # synth draws with numpy.random, so its data are made in this process
        assert cli.main(["synth", "--out", str(tmp_path / "data"), "--students", "200",
                         "--nights", "30", "--seed", "3"]) == 0
        done = _run_isolated(
            "from stayup import cli\n"
            f"code = cli.main(['run', '--data', {str(tmp_path / 'data')!r}, "
            f"'--out', {str(tmp_path / 'out')!r}, '--min-nights', '5', '--restarts', '8', "
            "'--null-replicas', '1', '--folds', '2', '--eval-restarts', '2', '--em-restarts', '2'])\n"
            "assert code == 0, code\n"
            "assert not any(m.startswith('numpy.random') for m in sys.modules)")
        assert done.returncode == 0, done.stderr
        assert (tmp_path / "out" / "MANIFEST.json").exists()

    def test_only_synth_names_np_random(self):
        users = sorted(p.name for p in (SRC / "stayup").glob("*.py")
                       if "np.random" in p.read_text() or "numpy.random" in p.read_text())
        assert users == ["synth.py"]
