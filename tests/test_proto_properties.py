"""Property tests for protocol-tree routing (skipped without hypothesis)."""

import itertools

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from nullcode import proto  # noqa: E402


def dict_walk(tree, pairs) -> list:
    """(transcript, leaf) of each pair, walking the tree with one value ->
    part dict per node, filled in part order so that a later part wins on
    overlap."""
    lookups = {}
    runs = []
    for x, y in pairs:
        node, transcript = tree.root, ""
        while isinstance(node, proto.Node):
            if id(node) not in lookups:
                lookups[id(node)] = {
                    v: (msg, child) for msg, subset, child in node.parts for v in subset.tolist()
                }
            msg, node = lookups[id(node)][x if node.owner == "A" else y]
            transcript += msg
        runs.append((transcript, node))
    return runs


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
    expect = dict_walk(tree, pairs)
    assert proto._route_labels(tree, xs, ys) == [leaf.label for _, leaf in expect]
    steps = list(proto._route(tree, xs, ys))
    order = {id(node): i for i, (_, node, _) in enumerate(steps)}
    assert len(order) == len(steps) and steps[0][1] is tree.root  # each node once
    assert steps[0][2].tolist() == list(range(len(pairs)))
    runs = [["", None] for _ in pairs]
    for msg, node, idx in steps:
        for k in idx.tolist():
            runs[k][0] += msg
            runs[k][1] = node
        if isinstance(node, proto.Node):  # reached children follow and split idx
            kids = [steps[order[id(c)]] for _, _, c in node.parts if id(c) in order]
            assert all(order[id(child)] > order[id(node)] for _, child, _ in kids)
            assert sorted(np.concatenate([k_idx for _, _, k_idx in kids]).tolist()) == idx.tolist()
    assert [(t, id(leaf)) for t, leaf in runs] == [(t, id(leaf)) for t, leaf in expect]
