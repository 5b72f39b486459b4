import numpy as np
import pytest

from corpus import build_corpus
from dgbp.instance import Instance


@pytest.fixture(scope="session")
def corpus():
    return build_corpus()


@pytest.fixture(scope="session")
def chain_k2_n5(corpus):
    return corpus["chain_k2_n5"]


@pytest.fixture(scope="session")
def chain_k3_n6(corpus):
    return corpus["chain_k3_n6"]


@pytest.fixture(scope="session")
def deep_chain():
    """K=3 chain of 5,000 vertices, far deeper than Python's recursion limit.

    Window edges plus one back edge {v-K-1, v} per vertex, so only level K+1
    branches and there are exactly 2 solutions.  Built directly because
    random_instance's long-edge loop draws O(n^2) random numbers.
    """
    K, n = 3, 5000
    pts = np.random.default_rng(5000).random((n, K))
    edges = {
        (u, v): float(np.linalg.norm(pts[v - 1] - pts[u - 1]))
        for v in range(2, n + 1)
        for u in range(max(1, v - K - 1), v)
    }
    return Instance(K, n, edges, tuple(map(tuple, pts[:K])))
