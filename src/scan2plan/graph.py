"""Connected-component labels, shared by patch merging, segment chaining and vote clustering."""

import numpy as np

__all__ = ["connected_labels"]


def connected_labels(n: int, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Group number of each of n nodes joined by the edges (i[k], j[k]).

    Groups are numbered 0, 1, ... by their smallest member, the order in
    which a union-find pass over nodes 0..n-1 meets them.

    Min-label hook and shortcut (Shiloach & Vishkin, J. Algorithms 1982):
    every node points at a node no larger than itself in its group. Each
    round, every edge whose ends have different roots hooks the larger
    root onto the smaller, then pointer jumping takes every node to its
    root. A group's root is thus its smallest member, and edges whose
    ends share a root drop out for good.
    """
    root = np.arange(n, dtype=np.int64)
    i = np.asarray(i, dtype=np.int64)
    j = np.asarray(j, dtype=np.int64)
    while True:
        ri, rj = root[i], root[j]
        live = ri != rj
        if not live.any():
            break
        i, j, ri, rj = i[live], j[live], ri[live], rj[live]
        np.minimum.at(root, np.maximum(ri, rj), np.minimum(ri, rj))
        while True:
            up = root[root]
            if np.array_equal(up, root):
                break
            root = up
    # a root is its group's smallest member, so counting roots up to a
    # node's root numbers the groups in order of their smallest members
    is_root = root == np.arange(n)
    return (np.cumsum(is_root) - 1)[root]
