"""Two numeric kernels, in plain numpy.

``family_counts`` feeds MLE fitting; ``poisson_scores`` feeds every E-step
and objective of the mixture fit.
"""

from __future__ import annotations

import numpy as np


def family_counts(data, parent_cols, child_col, arities):
    """Tally child values per parent configuration.

    data: (N, n) uint8 matrix of discrete values.
    parent_cols: int64 column indices; the last one varies fastest in the
        configuration index.
    Returns a (q, r) float64 count matrix where q is the product of parent
    arities and r the child arity.
    """
    r = int(arities[child_col])
    q = 1
    for c in parent_cols:
        q *= int(arities[c])
    if len(parent_cols) == 0:
        idx = np.zeros(data.shape[0], dtype=np.int64)
    else:
        idx = data[:, parent_cols[0]].astype(np.int64)
        for c in parent_cols[1:]:
            idx *= int(arities[c])
            idx += data[:, c]
    flat = idx * r + data[:, child_col]
    counts = np.bincount(flat, minlength=q * r).astype(np.float64)
    return counts.reshape(q, r)


def poisson_scores(counts, log_rates, rate_totals):
    """Per-student, per-component Poisson score sum(s_d*ln(rate_d)) - sum(rate_d).

    counts: (N, D) float64; log_rates: (M, D); rate_totals: (M,).
    The count-factorial term is component-independent and handled separately.
    """
    return counts @ log_rates.T - rate_totals[None, :]
