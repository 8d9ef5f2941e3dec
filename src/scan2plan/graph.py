"""Connected-component labels, shared by patch merging, segment chaining and vote clustering."""

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

__all__ = ["connected_labels"]


def connected_labels(n: int, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Group number of each of n nodes joined by the edges (i[k], j[k]).

    Groups are numbered 0, 1, ... by their smallest member, the order in
    which a union-find pass over nodes 0..n-1 meets them; scipy's
    undirected search starts a new group at each unlabelled node in that
    order.
    """
    edges = coo_matrix((np.ones(len(i), dtype=bool), (i, j)), shape=(n, n))
    return connected_components(edges, directed=False)[1].astype(np.int64)
