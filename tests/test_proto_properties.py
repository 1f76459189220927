"""Property tests for protocol-tree routing (skipped without hypothesis)."""

import itertools

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from nullcode import proto  # noqa: E402


def dict_walk_labels(tree, pairs) -> list:
    """Label of each pair by walking the tree with one value -> part dict
    per node, filled in part order so that a later part wins on overlap."""
    lookups = {}
    labels = []
    for x, y in pairs:
        node = tree.root
        while isinstance(node, proto.Node):
            if id(node) not in lookups:
                lookups[id(node)] = {
                    v: child for _, subset, child in node.parts for v in subset.tolist()
                }
            node = lookups[id(node)][x if node.owner == "A" else y]
        labels.append(node.label)
    return labels


@hypothesis.settings(max_examples=60, deadline=None, derandomize=True, database=None)
@hypothesis.given(
    seed=st.integers(0, 2**32 - 1),
    n_bits_a=st.integers(1, 5),
    n_bits_b=st.integers(1, 5),
    depth=st.integers(0, 4),
    transform=st.booleans(),
)
def test_routed_labels_equal_run_labels(seed, n_bits_a, n_bits_b, depth, transform):
    rng = np.random.default_rng(seed)
    tree = proto.random_onebit_tree(rng, n_bits_a, n_bits_b, depth, labels=[0, 1, 2])
    if transform:
        tree = proto.subcube_like_transform(tree, 0.8)
    pairs = list(itertools.product(range(1 << n_bits_a), range(1 << n_bits_b)))
    xs, ys = proto._pair_arrays(pairs)
    expect = dict_walk_labels(tree, pairs)
    assert proto._route_labels(tree, xs, ys) == expect
    assert [proto.run(tree, x, y)[1] for x, y in pairs] == expect
