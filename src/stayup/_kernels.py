"""Two numeric kernels, in plain numpy.

``family_counts`` feeds MLE fitting; ``poisson_scores`` feeds every E-step
and objective of the mixture fit.
"""

from __future__ import annotations

import math

import numpy as np


def family_counts(data, parent_cols, child_col, arities):
    """Tally child values per parent configuration.

    data: (N, n) uint8 matrix of discrete values.
    parent_cols: int64 column indices; configurations are numbered in C
        order (np.ravel_multi_index), the last parent varying fastest.
    Returns a (q, r) float64 count matrix where q is the product of parent
    arities and r the child arity.
    """
    cols = [*parent_cols, child_col]
    shape = tuple(int(arities[c]) for c in cols)
    flat = np.ravel_multi_index(tuple(data[:, cols].T), shape)
    counts = np.bincount(flat, minlength=math.prod(shape)).astype(np.float64)
    return counts.reshape(-1, shape[-1])


def poisson_scores(counts, log_rates, rate_totals):
    """Per-student, per-component Poisson score sum(s_d*ln(rate_d)) - sum(rate_d).

    counts: (N, D) float64; log_rates: (M, D); rate_totals: (M,).
    The count-factorial term is component-independent and handled separately.
    """
    return counts @ log_rates.T - rate_totals[None, :]
