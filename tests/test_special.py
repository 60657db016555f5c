"""special.py against scipy.special, bit for bit: scipy is the oracle here only."""

import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
import scipy.special
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from stayup import special

SRC = Path(__file__).resolve().parent.parent / "src"

SPECIAL_VALUES = [0.0, -0.0, -1.0, -2.0, -34.0, -35.0, -1e6, 1.0, 2.0, 3.0, 13.0, 1000.0,
                  1e8, 2.556348e305, 1e308, 5e-324, -5e-324, math.inf, -math.inf, math.nan]


def same(got, want) -> bool:
    return np.array_equal(got, want, equal_nan=True)


class TestGammaln:
    @given(st.lists(st.floats() | st.sampled_from(SPECIAL_VALUES)
                    | st.integers(-300, 300).map(float), min_size=1, max_size=50))
    def test_any_floats(self, xs):
        x = np.array(xs)
        assert same(special.gammaln(x), scipy.special.gammaln(x))
        assert same([special.lgam(v) for v in xs], scipy.special.gammaln(x))

    def test_special_values(self):
        x = np.array(SPECIAL_VALUES)
        assert same(special.gammaln(x), scipy.special.gammaln(x))
        assert special.lgam(0.0) == special.lgam(-3.0) == math.inf
        assert math.isnan(special.lgam(math.nan)) and special.lgam(-math.inf) == -math.inf

    def test_bdeu_offsets(self):
        # every BDeu argument ess / m + k, for the cells of families up to 512
        # cells and the counts of tables up to 5000 rows
        k = np.arange(5001)
        for ess in (0.37, 1.0, 10.0, 100.0):
            for m in range(1, 513):
                x = ess / m + k
                got = np.fromiter(map(special.lgam, x.tolist()), np.float64, len(x))
                assert same(got, scipy.special.gammaln(x)), (ess, m)

    def test_decades_and_branch_edges(self):
        # both signs over 45 decades, dense runs across each branch point, and
        # the reflected branch below -34 where log(z) is not swamped by lgam(-x)
        rng = np.random.default_rng(9)
        x = np.concatenate([rng.choice([-1.0, 1.0], 200_000) * 10.0 ** rng.uniform(-20, 25, 200_000),
                            np.linspace(-200.0, -34.0, 100_001)]
                           + [edge + np.linspace(-0.5, 0.5, 20_001)
                              for edge in (-34.0, 0.0, 2.0, 3.0, 13.0, 1000.0)])
        got = np.fromiter(map(special.lgam, x.tolist()), np.float64, len(x))
        assert same(got, scipy.special.gammaln(x))

    def test_log_factorials(self):
        x = np.arange(10_001, dtype=np.float64) + 1
        assert same(special.gammaln(x), scipy.special.gammaln(x))

    def test_shape_and_repeats(self):
        x = np.array([[3.0, 0.5, 3.0], [0.5, 7.0, np.nan]])
        assert special.gammaln(x).shape == (2, 3)
        assert same(special.gammaln(x), scipy.special.gammaln(x))
        assert same(special.gammaln(2.5), scipy.special.gammaln(2.5))

    def test_lgamma_table(self):
        for a in (1 / 3, 0.37 / 512, 2.0, 100.0):
            small = special.lgamma_table(a, 10).copy()
            table = special.lgamma_table(a, 3000)   # grows the kept table
            assert same(table, scipy.special.gammaln(a + np.arange(3001)))
            assert same(table[:11], small)
            assert same(special.lgamma_table(a, 0), table[:1])
            assert not table.flags.writeable


TAIL = [-math.inf, math.inf, math.nan]


def rows_with_ties():
    # few distinct values, so maxima tie often; -inf, +inf and nan mixed in
    values = st.sampled_from([0.0, 1.0, -2.5, 700.0, -745.0, 1e308, -1e308] + TAIL) | st.floats(-50, 50)
    return hnp.arrays(np.float64, hnp.array_shapes(min_dims=1, max_dims=3, min_side=1, max_side=6),
                      elements=values)


class TestLogsumexp:
    @given(rows_with_ties())
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")   # scipy's own overflow warnings
    def test_matches_scipy(self, a):
        for axis in [None] + list(range(-a.ndim, a.ndim)):
            got, want = special.logsumexp(a, axis=axis), scipy.special.logsumexp(a, axis=axis)
            assert same(got, want), axis
            assert np.shape(got) == np.shape(want)

    def test_edge_rows(self):
        a = np.array([[1.0, 1.0, 0.0], [-math.inf] * 3, [math.inf, 1.0, 2.0],
                      [math.nan, 1.0, 2.0], [math.inf, -math.inf, 0.0], [-math.inf, 3.0, 3.0],
                      [1e308, 1e308, 1e308], [math.inf, math.inf, math.nan]])
        got = special.logsumexp(a, axis=1)
        assert same(got, scipy.special.logsumexp(a, axis=1))
        assert got[1] == -math.inf and got[2] == math.inf and math.isnan(got[3])

    def test_scalar(self):
        for a in (5.0, -math.inf, math.nan):
            got, want = special.logsumexp(a), scipy.special.logsumexp(a)
            assert same(got, want) and np.shape(got) == np.shape(want)


def test_runs_without_scipy(tmp_path):
    """With scipy unimportable, stayup.cli imports and a small run completes."""
    code = textwrap.dedent("""
        import sys
        sys.modules["scipy"] = None   # any import of scipy now raises ImportError
        from stayup import cli
        data, out = sys.argv[1:]
        assert cli.main(["synth", "--out", data, "--students", "90", "--nights", "20",
                         "--seed", "3"]) == 0
        assert cli.main(["run", "--data", data, "--out", out, "--min-nights", "5",
                         "--restarts", "10", "--null-replicas", "1", "--folds", "3",
                         "--eval-restarts", "3", "--em-restarts", "2"]) == 0
        print(sorted(name for name in sys.modules if name.startswith("scipy")))
    """)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", code, str(tmp_path / "data"), str(tmp_path / "out")],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "['scipy']"   # only the blocking entry
    assert (tmp_path / "out" / "report.json").is_file()
