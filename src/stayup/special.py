"""Log-gamma and log-sum-exp in plain numpy, equal bit for bit to SciPy's.

`lgam` ports the cephes `lgam` routine (Stephen L. Moshier's Cephes Math
Library) that SciPy 1.17.1's `gammaln` runs: the same polynomials, the
same argument shifts and the same operation order, with `math.log` and
`math.sin` as the C library calls. numpy's own `np.log` is not used for
it, since its vectorised loops may round differently from the C library
on some arguments. `logsumexp` performs the numpy operations of SciPy's
`logsumexp` (real input, no weights) in the same order.
"""

from __future__ import annotations

import math

import numpy as np

# Stirling's formula expansion of log gamma
_A = (8.11614167470508450300e-4, -5.95061904284301438324e-4, 7.93650340457716943945e-4,
      -2.77777777730099687205e-3, 8.33333333333331927722e-2)
# log gamma between 2 and 3: x * B(x) / C(x), C monic
_B = (-1.37825152569120859100e3, -3.88016315134637840924e4, -3.31612992738871184744e5,
      -1.16237097492762307383e6, -1.72173700820839662146e6, -8.53555664245765465627e5)
_C = (-3.51815701436523470549e2, -1.70642106651881159223e4, -2.20528590553854454839e5,
      -1.13933444367982507207e6, -2.53252307177582951285e6, -2.01889141433532773231e6)
_LOGPI = 1.14472988584940017414
_LS2PI = 0.91893853320467274178   # log(sqrt(2 pi))
_MAXLGM = 2.556348e305


def _polevl(x: float, coef) -> float:
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _p1evl(x: float, coef) -> float:
    ans = x + coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def lgam(x: float) -> float:
    """log|Gamma(x)| for a Python float; +inf at 0 and the negative integers.

    Like cephes, it returns a non-finite x (nan, inf, -inf) unchanged.
    """
    if not math.isfinite(x):
        return x
    if x < -34.0:
        q = -x
        w = lgam(q)
        p = float(math.floor(q))
        if p == q:
            return math.inf
        z = q - p
        if z > 0.5:
            p += 1.0
            z = p - q
        z = q * math.sin(math.pi * z)
        if z == 0.0:
            return math.inf
        return _LOGPI - math.log(z) - w
    if x < 13.0:
        z = 1.0
        p = 0.0
        u = x
        while u >= 3.0:
            p -= 1.0
            u = x + p
            z *= u
        while u < 2.0:
            if u == 0.0:
                return math.inf
            z /= u
            p += 1.0
            u = x + p
        if z < 0.0:
            z = -z
        if u == 2.0:
            return math.log(z)
        p -= 2.0
        x = x + p
        p = x * _polevl(x, _B) / _p1evl(x, _C)
        return math.log(z) + p
    if x > _MAXLGM:
        return math.inf
    q = (x - 0.5) * math.log(x) - x + _LS2PI
    if x > 1.0e8:
        return q
    p = 1.0 / (x * x)
    if x >= 1000.0:
        q += ((7.9365079365079365079365e-4 * p - 2.7777777777777777777778e-3) * p
              + 0.0833333333333333333333) / x
    else:
        q += _polevl(p, _A) / x
    return q


def gammaln(x) -> np.ndarray:
    """lgam of every element of an array, evaluated once per distinct value."""
    x = np.asarray(x, dtype=np.float64)
    values, inverse = np.unique(x, return_inverse=True)
    out = np.fromiter(map(lgam, values.tolist()), np.float64, len(values))
    return out[inverse.reshape(x.shape)]


_TABLES: dict[float, np.ndarray] = {}


def lgamma_table(a: float, kmax: int) -> np.ndarray:
    """lgam(a + k) for k = 0..kmax; the table of each offset `a` is kept and grown."""
    table = _TABLES.get(a)
    if table is None or len(table) <= kmax:
        done = 0 if table is None else len(table)
        grown = np.empty(max(kmax + 1, 2 * done))
        grown[:done] = table if table is not None else ()
        grown[done:] = [lgam(a + k) for k in range(done, len(grown))]
        grown.setflags(write=False)
        table = _TABLES[a] = grown
    return table[:kmax + 1]


def logsumexp(a, axis=None) -> np.ndarray:
    """log(sum(exp(a))) over `axis` of a non-empty array, computed as SciPy's
    logsumexp computes it.

    The largest element is shifted out and its count m added back as
    log(m); sums that come out non-finite are recomputed directly as
    log(sum(exp(a))), on their rows only.
    """
    a = np.atleast_1d(np.asarray(a, dtype=np.float64))
    axis = tuple(range(a.ndim)) if axis is None else axis
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        a_max = np.max(a, axis=axis, keepdims=True)
        i_max = a == a_max
        m = np.sum(i_max, axis=axis, keepdims=True, dtype=np.float64)
        s = np.sum(np.exp(np.where(i_max, -np.inf, a) - a_max), axis=axis, keepdims=True)
        out = np.log1p(s / m) + np.log(m) + a_max
        bad = ~np.isfinite(out)
        if bad.any():
            direct = np.exp(a, out=np.zeros_like(a), where=np.broadcast_to(bad, a.shape))
            np.log(np.sum(direct, axis=axis, keepdims=True), out=out, where=bad)
    return np.squeeze(out, axis=axis)[()]
