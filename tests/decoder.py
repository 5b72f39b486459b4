"""The branch-code decoder the package's ``recompute_codes`` is checked against.

It places the anchor planes one level at a time, each oriented by the
embedding's normal at the level before, exactly as the search chains them:
one plane call per level, but with no sign bookkeeping to trust.
"""

import numpy as np

from dgbp.errors import DimensionMismatch
from dgbp.geometry import _anchor_planes, row_dots


def recompute_codes_by_level(inst, stack) -> list:
    """Side bits of S embeddings (S, n, K), level by level, as length-n tuples."""
    X = np.asarray(stack, dtype=float)
    K, n = inst.dimension, inst.n
    if X.ndim != 3 or X.shape[1:] != (n, K):
        raise DimensionMismatch(f"expected embeddings of shape {(n, K)}, got stack {X.shape}")
    bits = np.zeros((len(X), n), dtype=np.int8)
    normals = None
    for level in range(K + 1, n + 1):
        normals = _anchor_planes(X[:, level - 1 - K : level - 1], normals)
        # The side bit: 0 on or behind the plane through the last anchor,
        # 1 otherwise.
        along = row_dots(normals, X[:, level - 1] - X[:, level - 2])
        bits[:, level - 1] = ~(along <= 0.0)
    return list(map(tuple, bits.tolist()))
