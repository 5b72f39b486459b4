"""The level-table row of one placement, from the anchors' distances and the radii.

``extend_stack`` takes a level's foot weights and squared height, which the
package computes from instance distances (``Instance._levels``).  Geometry
tests start from anchor coordinates and sphere radii instead; this turns
them into the same row.
"""

import numpy as np

from dgbp.geometry import level_table


def table_row(anchors, radii) -> tuple:
    """``(mu, h2)`` of the vertex at distances ``radii`` (K,) from ``anchors`` (K, K)."""
    A = np.asarray(anchors, dtype=float)
    r = np.asarray(radii, dtype=float)
    K = len(A)
    sq = np.zeros((1, K + 1, K + 1))
    sq[0, :K, :K] = ((A[:, None] - A[None]) ** 2).sum(-1)
    sq[0, :K, K] = sq[0, K, :K] = r * r
    mu, h2 = level_table(sq)
    return mu[0], float(h2[0])
