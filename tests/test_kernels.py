import numpy as np

from stayup._kernels import family_counts


def test_family_counts_counts_every_row():
    data = np.array([[0, 1], [1, 1], [1, 0], [1, 1]], dtype=np.uint8)
    arities = np.array([2, 2], dtype=np.int64)
    counts = family_counts(data, np.array([0], dtype=np.int64), 1, arities)
    np.testing.assert_array_equal(counts, [[0.0, 1.0], [1.0, 2.0]])
    assert counts.sum() == len(data)
