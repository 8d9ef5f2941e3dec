"""Connected-component labels, shared by patch merging, segment chaining and vote clustering."""

import numpy as np

__all__ = ["connected_labels"]


def connected_labels(n: int, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Group number of each of n nodes joined by the edges (i[k], j[k]).

    Groups are numbered 0, 1, ... by their smallest member, the order in
    which a union-find pass over nodes 0..n-1 meets them.

    Min-label hook and shortcut (Shiloach & Vishkin, J. Algorithms 1982):
    every node points at a node of its group no larger than itself. Each
    round, every edge whose ends point at different nodes hooks the
    larger of those two nodes onto the smaller, then one pointer jump
    takes every node to its pointer's pointer. Each round lowers some
    pointer, so the rounds end, and they end when every edge's ends point
    at one node. Each group then points at one node, which points at
    itself and so is the group's smallest member.
    """
    root = np.arange(n, dtype=np.int64)
    i = np.asarray(i, dtype=np.int64)
    j = np.asarray(j, dtype=np.int64)
    while True:
        ri, rj = root[i], root[j]
        if np.array_equal(ri, rj):
            break
        np.minimum.at(root, np.maximum(ri, rj), np.minimum(ri, rj))
        root = root[root]
    # a root is its group's smallest member, so counting roots up to a
    # node's root numbers the groups in order of their smallest members
    is_root = root == np.arange(n)
    return (np.cumsum(is_root) - 1)[root]
