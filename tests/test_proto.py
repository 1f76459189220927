import copy
import gc
import itertools
import math
import re
import weakref

from fractions import Fraction
from functools import partial

import numpy as np
import pytest

from nullcode import codes, configs, density, huffman, instances, proto
from nullcode.errors import BudgetExceeded, EmptySet
from nullcode.proto import BOT
from test_huffman import within_entropy_bound


def small_tree(seed=0, n_bits=6, depth=4, labels=(0, 1, 2)):
    rng = np.random.default_rng(seed)
    return proto.random_onebit_tree(rng, n_bits, n_bits, depth, labels=list(labels))


def codes_hold_the_bound(tree, code_stats) -> bool:
    """Every Huffman code in a transformed tree, read off the tree: a
    node's parts grouped by their original bit, weighted by part size,
    with the rest of each message as the codeword.  True when there is one
    group per code_stats entry and each meets H <= E[len] <= H + 1."""
    groups = [
        [(len(elems), msg[1:]) for msg, elems, _ in node.parts if msg[0] == bit]
        for node in tree.nodes()
        if isinstance(node, proto.Node)
        for bit in "01"
    ]
    groups = [g for g in groups if g]
    return len(groups) == len(code_stats) and all(
        within_entropy_bound([w for w, _ in g], [c for _, c in g]) for g in groups
    )


def run(tree, x, y):
    """(transcript, output label) of the run on (x, y), from proto._route
    on that one pair."""
    steps = list(proto._route(tree, np.array([x]), np.array([y])))
    return "".join(msg for msg, _, _ in steps), steps[-1][1].label


def walk_path(tree, x, y):
    """(message, node) pairs along the run on (x, y): ("", root), then each
    node reached with the message sent to reach it.  Found by walking the
    tree with a membership test per part; a later part wins on overlap."""
    path = [("", tree.root)]
    while isinstance(path[-1][1], proto.Node):
        node = path[-1][1]
        value = x if node.owner == "A" else y
        msg, _, child = next(part for part in reversed(node.parts) if value in part[1])
        path.append((msg, child))
    return path


def walk(tree, x, y):
    """(transcript, output label) of the run on (x, y), from walk_path."""
    path = walk_path(tree, x, y)
    return "".join(msg for msg, _ in path), path[-1][1].label


def is_subcube_like(rect, gamma) -> bool:
    """Both sides of rect are gamma-dense on their free coordinates."""
    tree = proto.ProtocolTree(proto.Leaf(0, rect), rect.n_bits_a, rect.n_bits_b)
    try:
        proto.validate_subcube_like(tree, gamma)
    except AssertionError:
        return False
    return True


def test_partition_exactness_every_node():
    tree = small_tree()
    for node in tree.nodes():
        if isinstance(node, proto.Leaf):
            continue
        side = node.rect.X if node.owner == "A" else node.rect.Y
        pieces = [subset for _, subset, _ in node.parts]
        merged = sorted(np.concatenate(pieces).tolist())
        assert merged == sorted(side.tolist())


def test_run_and_transcripts():
    tree = small_tree()
    seen = {}
    for x in range(64):
        for y in range(64):
            transcript, label = run(tree, x, y)
            assert (transcript, label) == walk(tree, x, y)
            seen.setdefault(transcript, label)
    # transcripts are the leaves reached; all leaf labels consistent
    assert len(seen) <= sum(1 for _ in tree.leaves())


def test_transcript_stats_constant_tree():
    leaf_tree = proto.ProtocolTree(
        proto.Leaf(7, proto.Rect(proto.full_domain(4), proto.full_domain(4), 4, 4)),
        4,
        4,
    )
    st = proto.transcript_stats(leaf_tree)
    assert st["entropy"] == 0.0 and st["expected_length"] == 0.0
    assert math.copysign(1, st["entropy"]) == 1  # 0.0, not -0.0


def test_transcript_entropy_single_fair_bit():
    # Alice sends x0 on the full cube
    X = proto.full_domain(3)
    Y = proto.full_domain(3)
    p0 = X[(X & 1) == 0]
    p1 = X[(X & 1) == 1]
    rect = proto.Rect(X, Y, 3, 3)
    node = proto.Node(
        "A",
        rect,
        [
            ("0", p0, proto.Leaf(0, proto.Rect(p0, Y, 3, 3))),
            ("1", p1, proto.Leaf(1, proto.Rect(p1, Y, 3, 3))),
        ],
    )
    st = proto.transcript_stats(proto.ProtocolTree(node, 3, 3))
    assert abs(st["entropy"] - 1.0) <= 1e-12
    assert st["expected_length"] == 1.0


def test_transform_depth0_unchanged():
    leaf_tree = proto.ProtocolTree(
        proto.Leaf(3, proto.Rect(proto.full_domain(4), proto.full_domain(4), 4, 4)),
        4,
        4,
    )
    out = proto.subcube_like_transform(leaf_tree, 0.8)
    assert isinstance(out.root, proto.Leaf) and out.root.label == 3


def test_transform_single_coordinate_round():
    # one round: Alice sends x0 over {0,1}^2 inputs
    X = proto.full_domain(2)
    Y = proto.full_domain(2)
    p0 = X[(X & 1) == 0]
    p1 = X[(X & 1) == 1]
    rect = proto.Rect(X, Y, 2, 2)
    node = proto.Node(
        "A",
        rect,
        [
            ("0", p0, proto.Leaf("left", proto.Rect(p0, Y, 2, 2))),
            ("1", p1, proto.Leaf("right", proto.Rect(p1, Y, 2, 2))),
        ],
    )
    tree = proto.ProtocolTree(node, 2, 2)
    out = proto.subcube_like_transform(tree, 0.8)
    proto.validate_subcube_like(out, 0.8)
    for child_msg, subset, child in out.root.parts:
        # each part fixes at least coordinate 0
        assert 0 not in child.rect.free("A")
    pairs = list(itertools.product(range(4), range(4)))
    assert proto.outputs_agree(tree, out, pairs)


def test_transform_random_trees_exhaustive_small():
    for seed in range(8):
        tree = small_tree(seed=seed, n_bits=5, depth=4)
        stats = []
        out = proto.subcube_like_transform(tree, 0.8, code_stats=stats)
        proto.validate_subcube_like(out, 0.8)
        pairs = list(itertools.product(range(32), range(32)))
        assert proto.outputs_agree(tree, out, pairs)
        assert codes_hold_the_bound(out, stats)


@pytest.mark.parametrize("gamma", [0, 0.25, 0.5, 1, Fraction(1)])
def test_transform_and_validation_across_gamma(gamma):
    # at gamma = 1 ties do not violate
    for seed in range(4):
        tree = small_tree(seed=seed, n_bits=5, depth=4)
        out = proto.subcube_like_transform(tree, gamma)
        assert proto.validate_subcube_like(out, gamma) == sum(1 for _ in out.nodes())
        assert proto.outputs_agree(tree, out, itertools.product(range(32), range(32)))


@pytest.mark.parametrize("gamma", [0.25, 0.5, 0.8, 1])
def test_transform_parts_repeel_from_each_side_free_coordinates(gamma):
    # each node's parts, grouped by the original bit, are the Huffman-coded
    # density-restoring partition of their union on the free coordinates
    # that the node's side derives
    for seed in range(4):
        out = proto.subcube_like_transform(small_tree(seed=seed, n_bits=6, depth=5), gamma)
        for node in out.nodes():
            if isinstance(node, proto.Leaf):
                continue
            free = node.rect.free(node.owner)
            for bit in "01":
                group = [(msg, elems.tolist()) for msg, elems, _ in node.parts if msg[0] == bit]
                if not group:
                    continue
                sub = np.sort(np.concatenate([elems for _, elems in group]))
                drp = density.density_restoring_partition(sub, gamma, free)
                code = huffman.huffman([len(p.elems) for p in drp])
                assert [(bit + word, p.elems.tolist()) for p, word in zip(drp, code)] == group


@pytest.mark.parametrize("gamma", [0.2, 0.3, 0.4, 0.6, 0.8, 0.99])
def test_one_bit_transform_builds_no_count_table(gamma, monkeypatch):
    # A round on one coordinate or on the XOR of two cuts an affine set
    # with disjoint blocks into sets of the same kind, which density settles
    # in closed form.  For 1/2 < gamma < 1 every side stays a subcube: the
    # closed form peels a parity half's pair into two subcubes.  At
    # gamma <= 1/2 sides keep wider blocks, and only the residual of a peel
    # that fixes two blocks at once needs a count table: at gamma = 1/2 the
    # four trees build 2 of them (86 before the affine closed form).
    def no_table(*args):
        raise AssertionError("built a count table")

    monkeypatch.setattr(density, "_count_table", no_table)
    for seed in range(4):
        tree = small_tree(seed=seed, n_bits=10, depth=6, labels=(0, 1, 2, 3))
        out = proto.subcube_like_transform(tree, gamma)
        assert proto.validate_subcube_like(out, gamma) == sum(1 for _ in out.nodes())


@pytest.mark.parametrize("gamma", [0.6, 0.8, 0.99])
def test_one_bit_transform_settles_each_partition_from_one_certificate(gamma, monkeypatch):
    # For 1/2 < gamma < 1 every subset the transform partitions is a
    # parity half, whose greedy takes its pair as the one block: the closed
    # form returns both parts from the one certificate, with no call to
    # find_violation (the peel loop would make two per half).
    partition, find_violation = density.density_restoring_partition, density.find_violation
    calls = []  # [parts, find_violation calls] per partition

    def counted_find(*args):
        calls[-1][1] += 1
        return find_violation(*args)

    def counted_partition(*args):
        calls.append([None, 0])
        parts = partition(*args)
        calls[-1][0] = len(parts)
        return parts

    monkeypatch.setattr(density, "find_violation", counted_find)
    monkeypatch.setattr(proto, "density_restoring_partition", counted_partition)
    outs = [
        proto.subcube_like_transform(small_tree(seed=seed, n_bits=10, depth=6, labels=(0, 1, 2, 3)), gamma)
        for seed in range(4)
    ]
    monkeypatch.undo()
    assert calls and all(call == [2, 0] for call in calls)
    for out in outs:
        assert proto.validate_subcube_like(out, gamma) == sum(1 for _ in out.nodes())


# 10^400 is past the float range, and prints as a bound
@pytest.mark.parametrize("gamma", [1.002, 1.5, Fraction(3, 2), 7, Fraction(10**400)])
def test_transform_rejects_gamma_above_one_before_building(gamma, monkeypatch):
    # the full domain {0, 1} has x0 = 0 once: 1 > floor(2 * 2^(-gamma)) = 0
    def no_partition(*args):
        raise AssertionError("partitioned a set")

    monkeypatch.setattr(proto, "density_restoring_partition", no_partition)
    with pytest.raises(ValueError, match="exceeds 1"):
        proto.subcube_like_transform(small_tree(), gamma)


def test_transform_rejects_wide_nodes():
    X = proto.full_domain(2)
    Y = proto.full_domain(2)
    rect = proto.Rect(X, Y, 2, 2)
    parts = [
        (format(v, "02b"), X[X == v], proto.Leaf(v, proto.Rect(X[X == v], Y, 2, 2)))
        for v in range(4)
    ]
    tree = proto.ProtocolTree(proto.Node("A", rect, parts), 2, 2)
    with pytest.raises(ValueError):
        proto.subcube_like_transform(tree, 0.8)


@pytest.mark.parametrize("budget", [1, 1 << 16])
def test_transform_rejects_a_wide_round_below_the_root_before_refining(budget, monkeypatch):
    # Alice sends x0, then on x0 = 0 Bob sends both bits of y in one round
    X, Y = proto.full_domain(2), proto.full_domain(2)
    p0, p1 = X[X % 2 == 0], X[X % 2 == 1]
    wide = [(format(v, "02b"), Y[Y == v], proto.Leaf(v, proto.Rect(p0, Y[Y == v], 2, 2))) for v in range(4)]
    parts = [
        ("0", p0, proto.Node("B", proto.Rect(p0, Y, 2, 2), wide)),
        ("1", p1, proto.Leaf(0, proto.Rect(p1, Y, 2, 2))),
    ]
    tree = proto.ProtocolTree(proto.Node("A", proto.Rect(X, Y, 2, 2), parts), 2, 2)

    def no_refine(*args):
        raise AssertionError("refined a node")

    monkeypatch.setattr(proto, "_refine", no_refine)
    monkeypatch.setattr(proto, "DEFAULT_ENUM_BUDGET", budget)
    stats = []
    with pytest.raises(ValueError, match="one-bit"):
        proto.subcube_like_transform(tree, 0.8, code_stats=stats)
    assert stats == []


def test_cleanup_soundness_and_bottom_rate():
    for seed in range(6):
        tree = small_tree(seed=seed, n_bits=5, depth=4)
        valid_a = lambda label, x: ((x >> (label % 5)) & 1) == 0
        valid_b = lambda label, y: ((y >> (label % 5)) & 1) == 0
        err = proto.measure_error(tree, valid_a, valid_b)
        cleaned = proto.cleanup(tree, err, valid_a, valid_b)
        assert proto.never_wrong(cleaned, valid_a, valid_b)
        assert proto.bottom_probability(cleaned) <= 2 * err


def test_cleanup_zero_error_tree_unchanged_behavior():
    # constant valid label -> zero error -> no bottom outputs
    X = proto.full_domain(3)
    Y = proto.full_domain(3)
    tree = proto.ProtocolTree(proto.Leaf(0, proto.Rect(X, Y, 3, 3)), 3, 3)
    valid = lambda label, v: True
    err = proto.measure_error(tree, valid, valid)
    assert err == 0.0
    cleaned = proto.cleanup(tree, err, valid, valid)
    assert proto.bottom_probability(cleaned) == 0.0
    assert proto.never_wrong(cleaned, valid, valid)


def test_cleanup_wrong_everywhere_becomes_bottom():
    X = proto.full_domain(3)
    Y = proto.full_domain(3)
    tree = proto.ProtocolTree(proto.Leaf(9, proto.Rect(X, Y, 3, 3)), 3, 3)
    never = lambda label, v: False
    err = proto.measure_error(tree, never, never)
    assert err == 1.0
    cleaned = proto.cleanup(tree, err, never, never)
    assert proto.bottom_probability(cleaned) == 1.0


def test_cleanup_aborts_to_bottom_above_the_codimension_threshold():
    tree = small_tree(seed=2, n_bits=3, depth=2)
    always = lambda label, v: True
    # cost / epsilon < 1, so every child of the root (codimension >= 1)
    # becomes a BOT leaf over its own rectangle
    cleaned = proto.cleanup(tree, tree.cost() + 1, always, always)
    assert isinstance(cleaned.root, proto.Node) and cleaned.root.rect is tree.root.rect
    for (_, _, child), (_, _, orig) in zip(cleaned.root.parts, tree.root.parts):
        assert isinstance(child, proto.Leaf) and child.label is BOT
        assert child.rect is orig.rect
    assert proto.bottom_probability(cleaned) == 1.0
    assert proto.never_wrong(cleaned, always, always)


def test_measure_error_counts_bottom_leaves_as_invalid():
    X = proto.full_domain(2)
    Y = proto.full_domain(2)
    low, high = X[X < 1], X[X >= 1]  # one quarter, three quarters
    parts = [
        ("0", low, proto.Leaf(BOT, proto.Rect(low, Y, 2, 2))),
        ("1", high, proto.Leaf(0, proto.Rect(high, Y, 2, 2))),
    ]
    tree = proto.ProtocolTree(proto.Node("A", proto.Rect(X, Y, 2, 2), parts), 2, 2)
    always = lambda label, v: True
    assert proto.measure_error(tree, always, always) == 0.25
    assert proto.bottom_probability(tree) == 0.25
    all_bot = proto.ProtocolTree(proto.Leaf(BOT, proto.Rect(X, Y, 2, 2)), 2, 2)
    assert proto.measure_error(all_bot, always, always) == 1.0


def unmemoised_transform(tree, gamma, code_stats):
    """The transform re-peeling the speaker's side at every node, with no
    memo shared between siblings: the reference for
    proto.subcube_like_transform.  It tracks each side's free coordinates
    as the parts fix them, and for a gamma above 0 asserts at every node
    that they are the ones where the side varies.  It appends each code's
    stats depth first, as it goes, tagged with its node's depth:
    (depth, (entropy, expected_length))."""
    nodes = 1
    derived = density.density_cut(2, gamma, 1) < 2  # floor(2^(1 - gamma)) = 2 iff gamma is 0

    def build(orig, rect, free, depth):
        nonlocal nodes
        if derived:
            assert all(free[owner] == rect.free(owner) for owner in proto.OWNERS)
        if isinstance(orig, proto.Leaf):
            return proto.Leaf(orig.label, rect)
        owner = orig.owner
        elems, n_bits = rect.elems_of(owner)
        new_parts = []
        for msg, orig_subset, child in orig.parts:
            member = np.zeros(1 << n_bits, dtype=bool)
            member[orig_subset] = True
            sub = elems[member[elems]]
            if len(sub) == 0:
                continue
            drp = density.density_restoring_partition(sub, gamma, free[owner])
            nodes += len(drp)
            if nodes > proto.DEFAULT_ENUM_BUDGET:
                raise BudgetExceeded(f"transformed tree exceeds {proto.DEFAULT_ENUM_BUDGET} nodes")
            sizes = [len(p.elems) for p in drp]
            code = huffman.huffman(sizes)
            code_stats.append((depth, (huffman.entropy(sizes), huffman.expected_length(code, sizes))))
            for part, word in zip(drp, code):
                left = tuple(c for c in free[owner] if c not in part.fixed_coords)
                child_node = build(child, rect.narrow(owner, part.elems), {**free, owner: left}, depth + 1)
                new_parts.append((msg + word, part.elems, child_node))
        return proto.Node(owner, rect, new_parts)

    na, nb = tree.n_bits_a, tree.n_bits_b
    root = proto.Rect(proto.full_domain(na), proto.full_domain(nb), na, nb)
    free = {"A": tuple(range(na)), "B": tuple(range(nb))}
    return proto.ProtocolTree(build(tree.root, root, free, 0), na, nb)


def assert_same_tree(got, want):
    """Node by node: owners, messages, subsets, both rectangle sides and
    leaf labels."""
    pending = [(got.root, want.root)]
    while pending:
        a, b = pending.pop()
        assert type(a) is type(b)
        assert np.array_equal(a.rect.X, b.rect.X) and np.array_equal(a.rect.Y, b.rect.Y)
        if isinstance(a, proto.Leaf):
            assert a.label == b.label
            continue
        assert a.owner == b.owner and len(a.parts) == len(b.parts)
        for (msg_a, sub_a, child_a), (msg_b, sub_b, child_b) in zip(a.parts, b.parts):
            assert msg_a == msg_b and np.array_equal(sub_a, sub_b)
            pending.append((child_a, child_b))


def transform_outcome(transform, tree, gamma):
    """(the transformed tree or the BudgetExceeded message, the code_stats
    appended)."""
    stats = []
    try:
        return transform(tree, gamma, stats), stats
    except BudgetExceeded as exc:
        return str(exc), stats


def level_order(tagged_stats):
    """The reference's depth-tagged stats in level order: a stable sort by
    depth keeps each depth's nodes left to right, as depth first met them."""
    return [stats for _, stats in sorted(tagged_stats, key=lambda entry: entry[0])]


@pytest.mark.parametrize("gamma", [0, 0.25, 0.5, 0.8, 1])
@pytest.mark.parametrize("n_bits, depth", [(6, 5), (10, 6)])
def test_memoised_transform_matches_the_unmemoised_one(n_bits, depth, gamma, monkeypatch):
    # at gamma = 1 the 6-bit trees have 12417 and 14433 nodes and the
    # 10-bit ones exceed any budget up to the default; a lower one ends
    # them sooner
    monkeypatch.setattr(proto, "DEFAULT_ENUM_BUDGET", 1 << 14)
    for seed in range(2):
        tree = small_tree(seed=seed, n_bits=n_bits, depth=depth, labels=(0, 1, 2, 3))
        out, stats = transform_outcome(proto.subcube_like_transform, tree, gamma)
        want, want_stats = transform_outcome(unmemoised_transform, tree, gamma)
        if isinstance(want, str):
            # a transform that raises appends no stats
            assert (out, stats) == (want, [])
        else:
            assert stats == level_order(want_stats)
            assert_same_tree(out, want)


def test_memoised_transform_exceeds_the_budget_where_the_unmemoised_one_does(monkeypatch):
    tree = small_tree(seed=1, n_bits=10, depth=6)
    nodes = sum(1 for _ in unmemoised_transform(tree, 0.8, []).nodes())
    for budget in (1, nodes // 3, nodes - 1):
        monkeypatch.setattr(proto, "DEFAULT_ENUM_BUDGET", budget)
        message = f"transformed tree exceeds {budget} nodes"
        assert transform_outcome(unmemoised_transform, tree, 0.8)[0] == message
        assert transform_outcome(proto.subcube_like_transform, tree, 0.8) == (message, [])
    monkeypatch.setattr(proto, "DEFAULT_ENUM_BUDGET", nodes)
    assert sum(1 for _ in proto.subcube_like_transform(tree, 0.8).nodes()) == nodes


def test_transform_past_the_budget_builds_no_level_beyond_it(monkeypatch):
    # at gamma = 1 a 10-bit tree passes any budget; one pass builds each
    # node's rectangle once, and it raises before it builds the parts that
    # pass the budget, at most 2^10 of them
    budget = 1 << 12
    monkeypatch.setattr(proto, "DEFAULT_ENUM_BUDGET", budget)
    narrow, built = proto.Rect.narrow, []

    def counted(rect, owner, elems):
        built.append(1)
        return narrow(rect, owner, elems)

    monkeypatch.setattr(proto.Rect, "narrow", counted)
    with pytest.raises(BudgetExceeded, match=f"transformed tree exceeds {budget} nodes"):
        proto.subcube_like_transform(small_tree(seed=0, n_bits=10, depth=6), 1)
    assert len(built) <= budget + (1 << 10)


def test_transform_stops_refining_a_level_that_must_pass_the_budget(monkeypatch):
    # at gamma = 1 the level below the root passes 2^14 nodes through the
    # nodes of its first key alone, so none of its other 512 keys needs
    # refining
    budget = 1 << 14
    monkeypatch.setattr(proto, "DEFAULT_ENUM_BUDGET", budget)
    refine, batches = proto._refine, []

    def counted(pairs, gamma):
        batches.append(len(pairs))
        return refine(pairs, gamma)

    monkeypatch.setattr(proto, "_refine", counted)
    stats = []
    with pytest.raises(BudgetExceeded, match=f"transformed tree exceeds {budget} nodes"):
        proto.subcube_like_transform(small_tree(seed=0, n_bits=10, depth=6), 1, stats)
    assert stats == [] and sum(batches) < 16
    # a level that fits is refined in one batch: one per level with a round
    tree = small_tree(seed=0, n_bits=10, depth=6)
    batches.clear()
    monkeypatch.setattr(proto, "DEFAULT_ENUM_BUDGET", 1 << 16)
    proto.subcube_like_transform(tree, 0.8)
    level, rounds = [tree.root], 0
    while level:
        level = [child for node in level if isinstance(node, proto.Node) for _, _, child in node.parts]
        rounds += any(isinstance(node, proto.Node) for node in level)
    assert len(batches) == 1 + rounds


def test_transform_needs_no_numpy_bitwise_count(monkeypatch):
    # np.bitwise_count came with numpy 2.0, and the project takes 1.24
    monkeypatch.delattr(np, "bitwise_count", raising=False)
    out = proto.subcube_like_transform(small_tree(seed=0), 0.8)
    assert proto.validate_subcube_like(out, 0.8) == sum(1 for _ in out.nodes())


def test_transform_keeps_no_array_alive_after_it_returns():
    # with gc off, only reference counting frees the part arrays, so no
    # reference cycle (such as a recursive closure over the memo) may hold them
    tree = small_tree(seed=2, n_bits=8, depth=5)
    gc.disable()
    try:
        out = proto.subcube_like_transform(tree, 0.8)
        refs = [weakref.ref(arr) for node in out.nodes() for arr in (node.rect.X, node.rect.Y)]
        del out
        alive = sum(ref() is not None for ref in refs)
    finally:
        gc.enable()
    assert refs and alive == 0


def test_transform_node_budget(monkeypatch):
    tree = small_tree(seed=0, n_bits=6, depth=4)
    nodes = sum(1 for _ in proto.subcube_like_transform(tree, 0.8).nodes())
    monkeypatch.setattr(proto, "DEFAULT_ENUM_BUDGET", nodes)
    proto.subcube_like_transform(tree, 0.8)  # exactly at the budget
    monkeypatch.setattr(proto, "DEFAULT_ENUM_BUDGET", nodes - 1)
    with pytest.raises(BudgetExceeded):
        proto.subcube_like_transform(tree, 0.8)


def test_random_tree_node_budget(monkeypatch):
    # the budget changes no draw: a tree at it is the one built without it
    tree = small_tree(seed=0, n_bits=6, depth=8)
    nodes = sum(1 for _ in tree.nodes())
    monkeypatch.setattr(proto, "DEFAULT_ENUM_BUDGET", nodes)
    assert_same_tree(small_tree(seed=0, n_bits=6, depth=8), tree)
    monkeypatch.setattr(proto, "DEFAULT_ENUM_BUDGET", nodes - 1)
    with pytest.raises(BudgetExceeded, match=f"random tree exceeds {nodes - 1} nodes"):
        small_tree(seed=0, n_bits=6, depth=8)


def test_reveal_tree_labels():
    def labeler(x, y):
        return (x, y)

    tree = proto.reveal_tree(labeler, 3, 3)
    for x in range(8):
        for y in range(8):
            _, label = run(tree, x, y)
            assert label == (x, y)


def danger_setup():
    spec = configs.toy_repetition_spec(n=2, s=2)
    insts = [
        instances.sample_instance(spec, Fraction(1, 4), seed) for seed in range(30)
    ]
    return spec, insts, proto.reveal_solution_tree(spec)


@pytest.mark.parametrize("n, s", [(2, 2), (4, 1)])
def test_reveal_solution_tree_matches_brute_solve_labeler(n, s):
    spec = configs.toy_repetition_spec(n=n, s=s)
    base = instances.sample_instance(spec, Fraction(1, 4), 0)
    split = instances.Split(spec.n, spec.sigma_size)  # layout checked bit by bit in test_instances

    def labeler(x_bits, y_bits):
        sols = instances.brute_solve(instances.with_tables(base, split.tables(x_bits, y_bits)))
        return codes.fold(spec, sols[0]) if len(sols) else BOT

    half = spec.n * spec.sigma_size // 2
    tree = proto.reveal_solution_tree(spec)
    assert (tree.n_bits_a, tree.n_bits_b) == (half, half)
    for x in range(1 << half):
        for y in range(1 << half):
            assert run(tree, x, y)[1] == labeler(x, y)


def test_danger_monotone_and_recount():
    spec, insts, tree = danger_setup()
    out = proto.danger_track(tree, spec, insts)
    for ledger in out["ledgers"]:
        ledger.assert_monotone()  # also checked inside
        assert len(ledger.rounds[0]) == 0  # nothing fixed at the root
    assert 0 <= out["danger_to_solution_rate"] <= 1


def test_danger_ledgers_carry_the_run():
    spec, insts, tree = danger_setup()
    split = instances.Split(spec.n, spec.sigma_size)
    ranks = codes.codeword_rank_matrix(spec)
    out = proto.danger_track(tree, spec, insts)
    assert len(out["ledgers"]) == len(insts)
    for inst, ledger in zip(insts, out["ledgers"]):
        x, y = split.inputs(inst.tables)
        assert (ledger.transcript, ledger.output) == walk(tree, x, y)
        assert len(ledger.rounds) == len(ledger.transcript) + 1
        sols = instances.solution_mask(inst.tables, ranks)
        assert ledger.solution_flags == [bool(sols[j]) for j in sorted(ledger.rounds[-1])]


def test_danger_track_derives_cells_once_per_visited_node(monkeypatch):
    calls = []
    real = proto._fixed_table_cells

    def counting(rect, split):
        calls.append(rect)
        return real(rect, split)

    monkeypatch.setattr(proto, "_fixed_table_cells", counting)
    spec, insts, tree = danger_setup()
    split = instances.Split(spec.n, spec.sigma_size)
    out = proto.danger_track(tree, spec, insts)
    reached = {
        id(node) for inst in insts for _, node in walk_path(tree, *split.inputs(inst.tables))
    }
    assert len(calls) == len(reached)
    # runs share their first rounds, so per-run derivation would cost more
    assert len(calls) < sum(len(ledger.rounds) for ledger in out["ledgers"])


def test_danger_track_of_no_instances(monkeypatch):
    spec, insts, tree = danger_setup()
    seen = []

    def recording_mask(tables, ranks):
        seen.append((tables.dtype, tables.shape))
        return instances.solution_mask(tables, ranks)

    monkeypatch.setattr(proto, "solution_mask", recording_mask)
    out = proto.danger_track(tree, spec, [])
    assert (out["ledgers"], out["danger_events"], out["danger_to_solution_rate"]) == ([], 0, 0.0)
    # the stacked tables are uint8 bits whatever the instance count
    proto.danger_track(tree, spec, insts[:2])
    assert seen == [(np.uint8, (k, spec.n, spec.sigma_size)) for k in (0, 2)]


def test_fixed_table_cells_match_the_per_bit_loop():
    # the reference: each fixed input bit of a side names one table cell
    spec, _, tree = danger_setup()
    split = instances.Split(spec.n, spec.sigma_size)
    for node in tree.nodes():
        want = np.zeros((spec.n, spec.sigma_size), dtype=bool)
        for owner, first in (("A", 0), ("B", split.half)):
            free = node.rect.free(owner)
            for bit in range(node.rect.elems_of(owner)[1]):
                if bit not in free:
                    i, e = divmod(bit, spec.sigma_size)
                    want[first + i, e] = True
        assert np.array_equal(proto._fixed_table_cells(node.rect, split), want)


def test_danger_threshold_arithmetic():
    # n = 2: one fixed oracle bit of a codeword crosses 0.4 * 2 = 0.8
    spec, insts, tree = danger_setup()
    split = instances.Split(spec.n, spec.sigma_size)
    X = proto.full_domain(4)
    rect = proto.Rect(X[(X & 1) == 0], proto.full_domain(4), 4, 4)
    # Alice coordinate 0 fixed = table bit (1, e=0): codeword (0,0) dangerous
    q = proto.dangerous_codewords(spec, proto._fixed_table_cells(rect, split))
    ranks = codes.codeword_rank_matrix(spec)
    assert q == frozenset(np.nonzero(ranks[:, 0] == 0)[0].tolist())


def test_danger_decay_with_n():
    # baseline full-reveal protocols over F_2 repetition codes
    rates = []
    for n in (2, 4):
        spec = configs.toy_repetition_spec(n=n, s=1)
        insts = [
            instances.sample_instance(spec, Fraction(1, 2), seed)
            for seed in range(40)
        ]

        out = proto.danger_track(proto.reveal_solution_tree(spec), spec, insts)
        rates.append(out["danger_to_solution_rate"])
    assert rates[1] <= rates[0]


def test_codim_and_subcube_flags():
    X = proto.full_domain(4)
    sub = X[(X & 1) == 1]
    rect = proto.Rect(sub, proto.full_domain(4), 4, 4)
    assert rect.codim == 1
    assert (rect.free("A"), rect.free("B")) == ((1, 2, 3), (0, 1, 2, 3))
    for owner in proto.OWNERS:
        assert len(rect.elems_of(owner)[0]) == 1 << len(rect.free(owner))
    assert is_subcube_like(rect, 0.8)


def test_routed_labels_match_run():
    for seed in range(6):
        tree = small_tree(seed=seed, n_bits=5, depth=4, labels=(0, 1, 2, 3))
        for t in (tree, proto.subcube_like_transform(tree, 0.8)):
            pairs = list(itertools.product(range(32), range(32)))
            expect = [walk(t, x, y)[1] for x, y in pairs]
            xs, ys = proto._pair_arrays(pairs)
            assert proto._route_labels(t, xs, ys) == expect
            xs, ys = proto._pair_arrays(itertools.product(range(32), range(32)))
            assert proto._route_labels(t, xs, ys) == expect
            assert proto.outputs_agree(t, t, itertools.product(range(32), range(32)))


def routed_steps(tree, xs, ys) -> list:
    return [(msg, id(node), idx.tolist()) for msg, node, idx in proto._route(tree, xs, ys)]


@pytest.mark.parametrize("cells", [1, 3 << 5, 1 << 20])
def test_route_tables_hold_at_most_route_cells(cells, monkeypatch):
    # a level routes through one part-id table per _ROUTE_CELLS cells' worth
    # of its nodes (one node of 2^5 cells at least), with the same answers
    trees = []
    for seed in range(3):
        tree = small_tree(seed=seed, n_bits=5, depth=4, labels=(0, 1, 2, 3))
        trees += [tree, proto.subcube_like_transform(tree, 0.8)]
    xs, ys = proto._pair_arrays(itertools.product(range(32), range(32)))
    want = [(proto._route_labels(t, xs, ys), routed_steps(t, xs, ys)) for t in trees]
    inner = [  # inner nodes of each level
        sum(isinstance(node, proto.Node) for _, node in steps)
        for t in trees
        for steps, _, _ in proto._levels(t, xs, ys)
    ]
    sizes = []
    real = proto._part_ids

    def recording(nodes, n_bits, first):
        table = real(nodes, n_bits, first)
        sizes.append(len(table))
        return table

    monkeypatch.setattr(proto, "_ROUTE_CELLS", cells)
    monkeypatch.setattr(proto, "_part_ids", recording)
    assert [(proto._route_labels(t, xs, ys), routed_steps(t, xs, ys)) for t in trees] == want
    assert max(sizes) <= max(cells, 1 << 5)
    per_table = max(1, cells >> 5)
    assert len(sizes) == 2 * sum(-(-n // per_table) for n in inner)  # two runs per tree


def test_outputs_agree_detects_a_changed_label():
    tree = small_tree(seed=1, n_bits=4, depth=3)
    other = copy.deepcopy(tree)
    leaf = next(n for n in other.nodes() if isinstance(n, proto.Leaf))
    leaf.label = "changed"
    pairs = list(itertools.product(range(16), range(16)))
    assert not proto.outputs_agree(tree, other, pairs)


def test_outputs_agree_missing_value_raises_keyerror():
    X = proto.full_domain(2)
    Y = proto.full_domain(2)
    p0 = X[X == 0]  # values 1..3 lie in no part
    node = proto.Node("A", proto.Rect(X, Y, 2, 2), [("0", p0, proto.Leaf(0, proto.Rect(p0, Y, 2, 2)))])
    tree = proto.ProtocolTree(node, 2, 2)
    with pytest.raises(KeyError):
        list(proto._route(tree, np.array([0, 3]), np.array([0, 0])))
    with pytest.raises(KeyError):
        proto.outputs_agree(tree, tree, [(0, 0), (3, 0)])
    with pytest.raises(KeyError):
        proto.trees_agree(tree, tree)
    with pytest.raises(KeyError):
        proto.never_wrong(tree, lambda label, v: True, lambda label, v: True)


def _free_by_loop(X, n_bits):
    """The and/or test, one coordinate at a time: the coordinates of
    range(n_bits) where the elements of X do not all agree."""
    andv = int(np.bitwise_and.reduce(X))
    orv = int(np.bitwise_or.reduce(X))
    return tuple(c for c in range(n_bits) if (andv >> c) & 1 != (orv >> c) & 1)


def test_rect_free_matches_the_coordinate_loop():
    rng = np.random.default_rng(26)
    cube = np.arange(1 << 10, dtype=np.int64)
    cases = [cube, cube - (1 << 9), np.zeros(0, dtype=np.int64)]  # full cubes, the empty set
    for trial in range(200):
        size = (1, 2, 5, 40)[trial % 4]  # singletons among them
        X = rng.integers(-(1 << 63), 1 << 63, size=size, dtype=np.int64)
        if trial % 3:  # the bits of a random mask constant
            mask, value = rng.integers(-(1 << 63), 1 << 63, size=2, dtype=np.int64)
            X = (X & ~mask) | (value & mask)
        cases.append(X)
    for X in cases:
        for n_bits in (10, 64):
            rect = proto.Rect(X, X[::-1], n_bits, n_bits)
            assert rect.free("A") == rect.free("B") == _free_by_loop(X, n_bits)
    # two elements that differ only in the sign bit
    X = np.array([-1, (1 << 63) - 1], dtype=np.int64)
    assert proto.Rect(X, X, 64, 64).free("A") == (63,)


def test_validate_rejects_a_side_not_dense_where_it_varies():
    # X = {0, 1, 2} varies on coordinates 0 and 1, and x0 = 0 holds for 2 of
    # its 3 elements: 2 > floor(3 * 2^(-0.8)) = 1.  Over a third coordinate
    # X is fixed there and its free coordinates stay (0, 1).
    X = np.array([0, 1, 2], dtype=np.int64)
    for n_bits in (2, 3):
        rect = proto.Rect(X, proto.full_domain(n_bits), n_bits, n_bits)
        assert rect.free("A") == (0, 1)
        assert not is_subcube_like(rect, 0.8)
    # X + 4 over three coordinates: dense on (0, 1) at gamma = 1/4
    rect = proto.Rect(X + 4, proto.full_domain(3), 3, 3)
    assert rect.free("A") == (0, 1) and is_subcube_like(rect, 0.25)


def test_validate_checks_each_distinct_side_once(monkeypatch):
    calls = []
    real = proto.is_dense

    def counting(X, gamma, coords):
        calls.append((np.asarray(X, dtype=np.int64).tobytes(), tuple(coords)))
        return real(X, gamma, coords)

    monkeypatch.setattr(proto, "is_dense", counting)
    tree = proto.subcube_like_transform(small_tree(seed=3, n_bits=6, depth=5), 0.8)
    nodes = proto.validate_subcube_like(tree, 0.8)
    distinct = {
        (node.rect.elems_of(owner)[0].tobytes(), node.rect.free(owner))
        for node in tree.nodes()
        for owner in "AB"
    }
    assert len(calls) == len(set(calls)) == len(distinct)
    assert len(calls) < 2 * nodes


def sides_in_walk_order(tree) -> list:
    """(elements bytes, Rect.free) of each distinct (bit count, elements)
    side, in the order tree.nodes() first meets it, Alice's side first."""
    sides = {}
    for node in tree.nodes():
        for owner in proto.OWNERS:
            elems, n_bits = node.rect.elems_of(owner)
            sides.setdefault((n_bits, elems.tobytes()), node.rect.free(owner))
    return [(data, free) for (_, data), free in sides.items()]


@pytest.mark.parametrize("seed", [0, 1])
def test_validate_calls_is_dense_once_per_distinct_side_in_walk_order(seed, monkeypatch):
    calls = []
    real = proto.is_dense

    def recording(X, gamma, coords, verdict=None):
        calls.append((X.tobytes(), tuple(coords)))
        return real(X, gamma, coords) if verdict is None else verdict

    monkeypatch.setattr(proto, "is_dense", recording)
    rng = np.random.default_rng(seed)
    tree = proto.random_onebit_tree(rng, 10, 10, 6, labels=[0, 1, 2, 3])
    out = proto.subcube_like_transform(tree, 0.8)
    assert proto.validate_subcube_like(out, 0.8) == sum(1 for _ in out.nodes())
    assert calls == sides_in_walk_order(out)
    # a random tree's parity halves are not 0.8-dense, so it would raise at
    # the first; with every side passed its whole walk is read
    calls.clear()
    monkeypatch.setattr(proto, "is_dense", partial(recording, verdict=True))
    assert proto.validate_subcube_like(tree, 0.8) == sum(1 for _ in tree.nodes())
    assert calls == sides_in_walk_order(tree)


def test_validate_raises_on_a_non_dense_or_empty_side_as_before():
    # X = {0, 1, 2} is not 0.8-dense on (0, 1); an empty side is no set
    empty = np.zeros(0, dtype=np.int64)
    for owner, bad, exc, text in (
        ("A", np.array([0, 1, 2], dtype=np.int64), AssertionError, "node rectangle is not subcube-like"),
        ("B", np.array([0, 1, 2], dtype=np.int64), AssertionError, "node rectangle is not subcube-like"),
        ("A", empty, EmptySet, "set must be nonempty"),
        ("B", empty, EmptySet, "set must be nonempty"),
    ):
        rect = proto.Rect(proto.full_domain(2), proto.full_domain(2), 2, 2).narrow(owner, bad)
        # the bad side sits below a dense root, past nodes that pass
        parts = [("0", rect.elems_of(owner)[0], proto.Leaf(0, rect))]
        root = proto.Node(owner, proto.Rect(proto.full_domain(2), proto.full_domain(2), 2, 2), parts)
        with pytest.raises(exc, match=text):
            proto.validate_subcube_like(proto.ProtocolTree(root, 2, 2), 0.8)
    # a tree with no nonempty side at all
    leaf = proto.Leaf(0, proto.Rect(empty, empty, 2, 2))
    with pytest.raises(EmptySet, match="set must be nonempty"):
        proto.validate_subcube_like(proto.ProtocolTree(leaf, 2, 2), 0.8)


def test_never_wrong_matches_per_pair_check():
    def per_pair(tree, valid_a, valid_b):
        for x in range(16):
            for y in range(16):
                label = run(tree, x, y)[1]
                if label is not BOT and not (valid_a(label, x) and valid_b(label, y)):
                    return False
        return True

    for seed in range(4):
        tree = small_tree(seed=seed, n_bits=4, depth=3)
        for valid_a, valid_b in (
            (lambda label, x: (x >> label) & 1 == 0, lambda label, y: True),
            (lambda label, x: True, lambda label, y: y != 5),
            (lambda label, x: True, lambda label, y: True),
        ):
            expect = per_pair(tree, valid_a, valid_b)
            assert proto.never_wrong(tree, valid_a, valid_b) == expect


def never_wrong_by_pairs(tree, valid_a, valid_b) -> bool:
    """never_wrong by enumeration: route all 2^(n_bits_a + n_bits_b) input
    pairs at once and check the pairs that reach each labelled leaf."""
    xs = np.repeat(proto.full_domain(tree.n_bits_a), 1 << tree.n_bits_b)
    ys = np.tile(proto.full_domain(tree.n_bits_b), 1 << tree.n_bits_a)
    return all(
        (proto._holds(valid_a, node.label, xs[idx]) & proto._holds(valid_b, node.label, ys[idx])).all()
        for _, node, idx in proto._route(tree, xs, ys)
        if isinstance(node, proto.Leaf) and node.label is not BOT
    )


@pytest.mark.parametrize("n_bits", [6, 8])
def test_never_wrong_matches_the_pair_enumeration(n_bits):
    # 100 erring trees (every third one transformed) and their cleanups per
    # size; each cleanup is also checked against predicates it was not
    # cleaned for, which it may violate
    rng = np.random.default_rng(n_bits)
    valid = lambda label, v: (v >> (label % n_bits)) & 1 == 0
    other = lambda label, v: (v >> ((label + 1) % n_bits)) & 1 == 0
    verdicts = []
    for trial in range(100):
        depth = int(rng.integers(2, 7))
        tree = proto.random_onebit_tree(rng, n_bits, n_bits, depth, labels=[0, 1, 2])
        if trial % 3 == 0:
            tree = proto.subcube_like_transform(tree, 0.8)
        err = proto.measure_error(tree, valid, valid)
        assert err > 0
        cleaned = proto.cleanup(tree, err, valid, valid)
        for t, valid_b in ((tree, valid), (cleaned, valid), (cleaned, other)):
            expect = never_wrong_by_pairs(t, valid, valid_b)
            assert proto.never_wrong(t, valid, valid_b) == expect
            verdicts.append(expect)
    assert verdicts[0::3] == [False] * 100 and verdicts[1::3] == [True] * 100
    assert False in verdicts[2::3]


def test_never_wrong_checks_every_pair_at_10_plus_10_bits():
    # 2^20 input pairs per tree, 16 times what the pair enumeration allowed
    rng = np.random.default_rng(10)
    valid = lambda label, v: (v >> (label % 10)) & 1 == 0
    for trial in range(3):
        tree = proto.random_onebit_tree(rng, 10, 10, 8, labels=[0, 1, 2])
        err = proto.measure_error(tree, valid, valid)
        assert err > 0 and not proto.never_wrong(tree, valid, valid)
        assert proto.never_wrong(proto.cleanup(tree, err, valid, valid), valid, valid)


def test_trees_agree_matches_outputs_agree_over_every_pair():
    # criterion 10's 30 trees at 6 + 6 bits, each against its transform and
    # against the transform with one leaf relabelled
    rng = np.random.default_rng(1234)
    pairs = list(itertools.product(range(64), range(64)))
    for trial in range(30):
        tree = proto.random_onebit_tree(rng, 6, 6, 5, labels=list(range(4)))
        out = proto.subcube_like_transform(tree, 0.8)
        assert proto.trees_agree(tree, out) and proto.outputs_agree(tree, out, pairs)
        mutant = copy.deepcopy(out)
        leaves = [node for node in mutant.nodes() if isinstance(node, proto.Leaf)]
        leaves[trial % len(leaves)].label = "changed"
        assert not proto.outputs_agree(tree, mutant, pairs)
        assert not proto.trees_agree(tree, mutant) and not proto.trees_agree(mutant, tree)


def test_trees_agree_rejects_trees_over_different_bit_counts():
    small = proto.random_onebit_tree(np.random.default_rng(0), 3, 3, 3, [0, 1])
    large = proto.random_onebit_tree(np.random.default_rng(0), 4, 4, 3, [0, 1])
    for a, b in [(small, large), (large, small)]:
        shapes = f"({a.n_bits_a}, {a.n_bits_b}), ({b.n_bits_a}, {b.n_bits_b})"
        with pytest.raises(ValueError, match=re.escape(shapes)):
            proto.trees_agree(a, b)


def test_reaching_rects_partition_the_domain_by_routed_leaf():
    # every pair lies in exactly one rectangle, and the rectangle's leaves
    # are the ones _route sends the pair to
    xs, ys = proto._pair_arrays(itertools.product(range(32), range(32)))

    def routed_leaves(tree):
        leaves = [None] * len(xs)
        for _, node, idx in proto._route(tree, xs, ys):
            if isinstance(node, proto.Leaf):
                for k in idx.tolist():
                    leaves[k] = node
        return leaves

    for seed in range(4):
        tree = small_tree(seed=seed, n_bits=5, depth=4, labels=(0, 1, 2, 3))
        out = proto.subcube_like_transform(tree, 0.8)
        expect = list(zip(routed_leaves(tree), routed_leaves(out)))
        covered = []
        for leaves, X, Y in proto._reaching_rects(tree, out):
            for k in (X[:, None] * 32 + Y).ravel().tolist():
                assert all(a is b for a, b in zip(expect[k], leaves))
                covered.append(k)
        assert sorted(covered) == list(range(1024))


def counting_predicate(calls, n_bits):
    """Elementwise validity predicate that records each call's input size."""

    def valid(label, values):
        assert values.dtype == np.int64
        calls.append(values.size)
        return ((values >> (label % n_bits)) & 1) == 0

    return valid


def test_predicates_run_once_per_leaf_side():
    tree = small_tree(seed=1, n_bits=5, depth=4)
    calls = []
    valid = counting_predicate(calls, 5)
    leaves = sum(1 for leaf, _, _ in tree.leaves() if leaf.label is not BOT)
    err = proto.measure_error(tree, valid, valid)
    assert len(calls) == 2 * leaves
    calls.clear()
    cleaned = proto.cleanup(tree, err, valid, valid)
    assert 0 < len(calls) <= 2 * leaves  # one per verification round
    calls.clear()
    assert proto.never_wrong(cleaned, valid, valid)
    # once per side of each labelled leaf, on the side itself, not on pairs
    sides = [
        len(side)
        for leaf, _, _ in cleaned.leaves()
        if leaf.label is not BOT
        for side in (leaf.rect.X, leaf.rect.Y)
    ]
    assert sides and sorted(calls) == sorted(sides)


@pytest.mark.parametrize("value", [True, False])
def test_scalar_predicates_match_elementwise_ones(value):
    tree = small_tree(seed=2, n_bits=4, depth=3)
    scalar = lambda label, v: value
    elementwise = lambda label, v: np.full(v.shape, value)
    results = []
    for valid in (scalar, elementwise):
        err = proto.measure_error(tree, valid, valid)
        cleaned = proto.cleanup(tree, err, valid, valid)
        results.append(
            (err, proto.bottom_probability(cleaned), proto.never_wrong(cleaned, valid, valid))
        )
    assert results[0] == results[1] == [(0.0, 0.0, True), (1.0, 1.0, True)][not value]
