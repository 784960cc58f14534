"""LPs whose facet chains walk several rounds.

A facet chain ends at the first round whose basis carries c0, which on most
LPs is the first.  `nested_objective` gives an LP the objective
c0 = sum_k 64^(K-1-k) a_(i_k) over K of its rows: nearly parallel to
a_(i_0), then, on that facet, nearly parallel to a_(i_1), and so on.  A
round's perturbation, up to 1/phi per face coordinate, outweighs the lower
terms, so a round's walk often ends off the c0-optimal vertex and the chain
walks on along the facets it fixes.
"""

import random
from dataclasses import replace

BASE = 64


def nested_objective(lp, seed, levels=None):
    """lp with c0 = sum_k BASE^(K-1-k) a_(i_k), the K = min(levels, m) rows
    i_k drawn by random.Random(seed); levels defaults to n."""
    k = min(lp.n if levels is None else levels, lp.m)
    rows = random.Random(seed).sample(range(lp.m), k)
    c0 = [sum(BASE ** (k - 1 - t) * lp.A[i][j] for t, i in enumerate(rows)) for j in range(lp.n)]
    return replace(lp, c0=tuple(c0))
