"""Float orthonormal completion used by the rotation-invariance tests.

The solver is exact and never rotates; the tests rotate rows by a random
orthogonal Q (rationalized afterwards) to check that delta is invariant.
"""

import numpy as np


def complete_orthonormal(v) -> np.ndarray:
    """Orthogonal Q with first row v, so Q v = e1; ||Q^T Q - I||_max <= 1e-10.

    Gram-Schmidt is run twice for numerical robustness.
    """
    v = np.asarray(v, dtype=float)
    n = v.shape[0]
    if n == 0 or not np.isfinite(v).all():
        raise ValueError("bad input vector")
    nrm = np.linalg.norm(v)
    if nrm < 1e-14:
        raise ValueError("zero vector")
    if abs(nrm - 1.0) > 1e-10:
        raise ValueError("input vector is not unit norm")
    rows = [v / nrm]
    for j in range(n):
        if len(rows) == n:
            break
        w = np.zeros(n)
        w[j] = 1.0
        for _ in range(2):
            for r in rows:
                w = w - (w @ r) * r
        if np.linalg.norm(w) > 1e-8:
            rows.append(w / np.linalg.norm(w))
    if len(rows) < n:
        raise ValueError("failed to complete basis")
    return np.vstack(rows)
