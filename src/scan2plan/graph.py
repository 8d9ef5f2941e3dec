"""Grouping by connected components, shared by patch merging and segment chaining."""

from typing import List

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

__all__ = ["connected_groups"]


def connected_groups(n: int, i: np.ndarray, j: np.ndarray) -> List[np.ndarray]:
    """Connected components of n nodes joined by the edges (i[k], j[k]).

    Each group is an ascending index array; groups are ordered by their
    smallest member, as a union-find pass over nodes 0..n-1 emits them.
    """
    edges = coo_matrix((np.ones(len(i), dtype=bool), (i, j)), shape=(n, n))
    _, labels = connected_components(edges, directed=False)
    order = np.argsort(labels, kind="stable")
    groups = np.split(order, np.flatnonzero(np.diff(labels[order])) + 1)
    groups.sort(key=lambda g: g[0])
    return groups
