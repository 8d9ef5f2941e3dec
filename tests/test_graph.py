"""Connected-component labels against scipy's search.

`scipy.sparse.csgraph.connected_components` is the reference here only;
the package labels groups in numpy. Both number groups 0, 1, ... by
their smallest member.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from scan2plan.graph import connected_labels


def _reference(n, i, j):
    edges = coo_matrix((np.ones(len(i), dtype=bool), (i, j)), shape=(n, n))
    return connected_components(edges, directed=False)[1].astype(np.int64)


def _assert_matches(n, i, j):
    i, j = np.asarray(i, dtype=np.int64), np.asarray(j, dtype=np.int64)
    got = connected_labels(n, i, j)
    assert got.dtype == np.int64 and got.shape == (n,)
    assert got.tolist() == _reference(n, i, j).tolist()


@st.composite
def graphs(draw):
    """n nodes, some isolated, with self-loops, repeated edges and edges
    given both ways."""
    n = draw(st.integers(0, 40))
    if n == 0:
        return 0, [], []
    node = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(node, node), max_size=60))
    extra = []
    for a, b in edges:
        kind = draw(st.sampled_from(["none", "repeat", "reverse", "loop"]))
        extra += {"none": [], "repeat": [(a, b)], "reverse": [(b, a)], "loop": [(a, a)]}[kind]
    edges += extra
    return n, [a for a, _ in edges], [b for _, b in edges]


@settings(max_examples=200)
@given(graphs())
def test_connected_labels_match_scipy(graph):
    _assert_matches(*graph)


@pytest.mark.parametrize(
    "n, i, j",
    [
        (0, [], []),
        (1, [], []),
        (1, [0], [0]),
        (5, [], []),  # all isolated
        (4, [3, 3, 1], [1, 1, 3]),  # repeated and reversed, 0 and 2 alone
    ],
)
def test_connected_labels_small_cases(n, i, j):
    _assert_matches(n, i, j)


@pytest.mark.parametrize("order", ["reversed", "shuffled"])
def test_connected_labels_long_path(order):
    # a 2,000-node path, one group, with its edges given last node first
    # or in random order and with random ends first
    n = 2000
    i, j = np.arange(n - 1), np.arange(1, n)
    if order == "reversed":
        i, j = j[::-1], i[::-1]
    else:
        rng = np.random.default_rng(0)
        perm = rng.permutation(n - 1)
        flip = rng.uniform(size=n - 1) < 0.5
        i, j = np.where(flip, j, i)[perm], np.where(flip, i, j)[perm]
        # relabel the nodes too, so the path wanders through the numbering
        relabel = rng.permutation(n)
        i, j = relabel[i], relabel[j]
    _assert_matches(n, i, j)
    assert connected_labels(n, i, j).max() == 0
