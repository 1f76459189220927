"""Property tests for protocol-tree routing and the subcube-like transform
(skipped without hypothesis)."""

import itertools

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from nullcode import proto  # noqa: E402
from test_proto import assert_same_tree, level_order, transform_outcome, unmemoised_transform  # noqa: E402


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


def assert_routes_like_dict_walk(tree, pairs):
    """_route_labels and _route on pairs against dict_walk: the same labels,
    and steps that visit each reached node once, parents first, with the
    pairs there, so that each pair's messages spell its transcript."""
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


def assert_rects_like_dict_walk(tree, pairs):
    """_reaching_rects against dict_walk: the rectangles partition the
    domain, and every pair of each X x Y goes to that rectangle's leaf."""
    expect = {pair: leaf for pair, (_, leaf) in zip(pairs, dict_walk(tree, pairs))}
    covered = []
    for (leaf,), X, Y in proto._reaching_rects(tree):
        rect = list(itertools.product(X.tolist(), Y.tolist()))
        assert all(expect[pair] is leaf for pair in rect)
        covered += rect
    assert sorted(covered) == sorted(pairs)


def random_tree(seed, n_bits_a, n_bits_b, depth, transform, labels=(0, 1, 2)):
    rng = np.random.default_rng(seed)
    tree = proto.random_onebit_tree(rng, n_bits_a, n_bits_b, depth, labels=list(labels))
    return proto.subcube_like_transform(tree, 0.8) if transform else tree


@hypothesis.settings(max_examples=60, deadline=None, derandomize=True, database=None)
@hypothesis.given(
    seed=st.integers(0, 2**32 - 1),
    n_bits_a=st.integers(1, 5),
    n_bits_b=st.integers(1, 5),
    depth=st.integers(0, 4),
    transform=st.booleans(),
)
def test_routed_labels_equal_run_labels(seed, n_bits_a, n_bits_b, depth, transform):
    tree = random_tree(seed, n_bits_a, n_bits_b, depth, transform)
    pairs = list(itertools.product(range(1 << n_bits_a), range(1 << n_bits_b)))
    assert_routes_like_dict_walk(tree, pairs)


def inner_nodes(tree) -> list:
    return [node for node in tree.nodes() if isinstance(node, proto.Node)]


LABEL_SETS = [(0, 1, 2), ((0, 1), (2,), proto.BOT)]  # codeword-like tuple labels and BOT


@hypothesis.settings(max_examples=60, deadline=None, derandomize=True, database=None)
@hypothesis.given(
    seed=st.integers(0, 2**32 - 1),
    n_bits_a=st.integers(1, 5),
    n_bits_b=st.integers(1, 5),
    depth=st.integers(1, 4),
    transform=st.booleans(),
    labels=st.sampled_from(LABEL_SETS),
)
def test_routes_let_a_later_overlapping_part_win(seed, n_bits_a, n_bits_b, depth, transform, labels):
    # about half of the inner nodes get one more part, first or last: a
    # random subset of the node's side ending in a leaf with a tuple label
    # of its own, so it overlaps the parts after or before it
    tree = random_tree(seed, n_bits_a, n_bits_b, depth, transform, labels)
    rng = np.random.default_rng(seed)
    for k, node in enumerate(inner_nodes(tree)):
        if rng.random() < 0.5:
            continue
        side = node.rect.elems_of(node.owner)[0]
        subset = side[rng.random(len(side)) < 0.5]
        leaf = proto.Leaf(("overlap", k), node.rect.narrow(node.owner, subset))
        node.parts.insert(len(node.parts) if rng.random() < 0.5 else 0, ("x", subset, leaf))
    pairs = list(itertools.product(range(1 << n_bits_a), range(1 << n_bits_b)))
    assert_routes_like_dict_walk(tree, pairs)
    assert_rects_like_dict_walk(tree, pairs)


def key_error_or(fn, *args):
    try:
        return fn(*args)
    except KeyError:
        return KeyError


@hypothesis.settings(max_examples=60, deadline=None, derandomize=True, database=None)
@hypothesis.given(
    seed=st.integers(0, 2**32 - 1),
    n_bits=st.integers(1, 4),
    depth=st.integers(2, 4),
    transform=st.booleans(),
    data=st.data(),
)
def test_routes_raise_keyerror_for_a_value_in_no_part_below_the_root(seed, n_bits, depth, transform, data):
    tree = random_tree(seed, n_bits, n_bits, depth, transform)
    below = [node for node in inner_nodes(tree) if node is not tree.root]
    hypothesis.assume(below)
    node = data.draw(st.sampled_from(below))
    side = node.rect.elems_of(node.owner)[0]
    value = int(data.draw(st.sampled_from(side.tolist())))
    node.parts = [(msg, subset[subset != value], child) for msg, subset, child in node.parts]
    pairs = list(itertools.product(range(1 << n_bits), range(1 << n_bits)))
    xs, ys = proto._pair_arrays(pairs)
    # the full domain reaches the node with the value, so every walk fails
    with pytest.raises(KeyError):
        dict_walk(tree, pairs)
    with pytest.raises(KeyError):
        proto._route_labels(tree, xs, ys)
    with pytest.raises(KeyError):
        list(proto._route(tree, xs, ys))
    with pytest.raises(KeyError):
        proto.outputs_agree(tree, tree, pairs)
    # no other pair asks that node for the value
    owner = proto.OWNERS.index(node.owner)
    assert_routes_like_dict_walk(tree, [pair for pair in pairs if pair[owner] != value])
    # a value out of range fails where a node on its run asks for it
    far = data.draw(st.sampled_from([-1, 1 << n_bits, 1 << 40]))
    pair = data.draw(st.sampled_from([(far, 0), (0, far)]))
    got = key_error_or(proto._route_labels, tree, *proto._pair_arrays([pair]))
    expect = key_error_or(dict_walk, tree, [pair])
    assert got is expect if expect is KeyError else got == [leaf.label for _, leaf in expect]


def subset_tree(seed, n_bits_a, n_bits_b, depth, labels=(0, 1, 2)):
    """A random tree whose every round splits the owner's side by a random
    nonempty proper subset, not by a coordinate or an XOR, so the subsets
    the transform cuts are mostly not affine; a side of one element ends
    in a leaf."""
    rng = np.random.default_rng(seed)

    def build(rect, remaining):
        owner = "A" if rng.random() < 0.5 else "B"
        side = rect.elems_of(owner)[0]
        if remaining == 0 or len(side) < 2:
            return proto.Leaf(labels[int(rng.integers(len(labels)))], rect)
        mask = np.zeros(len(side), dtype=bool)
        mask[rng.choice(len(side), size=int(rng.integers(1, len(side))), replace=False)] = True
        parts = [
            (str(bit), part, build(rect.narrow(owner, part), remaining - 1))
            for bit, part in ((0, side[~mask]), (1, side[mask]))
        ]
        return proto.Node(owner, rect, parts)

    root = proto.Rect(proto.full_domain(n_bits_a), proto.full_domain(n_bits_b), n_bits_a, n_bits_b)
    return proto.ProtocolTree(build(root, depth), n_bits_a, n_bits_b)


@hypothesis.settings(max_examples=60, deadline=None, derandomize=True, database=None)
@hypothesis.given(
    seed=st.integers(0, 2**32 - 1),
    n_bits_a=st.integers(2, 5),
    n_bits_b=st.integers(2, 5),
    depth=st.integers(1, 4),
    budget=st.sampled_from([64, proto.DEFAULT_ENUM_BUDGET]),
)
def test_transform_certifies_subsets_of_any_round_by_size(seed, n_bits_a, n_bits_b, depth, budget):
    # the transform keeps a subset of 2^|V| elements whole at gamma < 1;
    # the reference partitions every subset, so each must give one tree
    tree = subset_tree(seed, n_bits_a, n_bits_b, depth)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(proto, "DEFAULT_ENUM_BUDGET", budget)
        for gamma in (0, 0.25, 0.5, 0.8, 0.99, 1):
            out, stats = transform_outcome(proto.subcube_like_transform, tree, gamma)
            want, want_stats = transform_outcome(unmemoised_transform, tree, gamma)
            if isinstance(want, str):
                assert (out, stats) == (want, [])
                continue
            assert stats == level_order(want_stats)
            assert_same_tree(out, want)
            assert proto.trees_agree(tree, out)
