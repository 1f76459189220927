import copy
import itertools

from fractions import Fraction

import numpy as np
import pytest

from nullcode import codes, configs, instances, proto
from nullcode.errors import BudgetExceeded
from nullcode.proto import BOT


def small_tree(seed=0, n_bits=6, depth=4, labels=(0, 1, 2)):
    rng = np.random.default_rng(seed)
    return proto.random_onebit_tree(rng, n_bits, n_bits, depth, labels=list(labels))


def run(tree, x, y):
    """(transcript, output label) of the run on (x, y), from proto._path."""
    path = proto._path(tree, x, y)
    return "".join(msg for msg, _ in path), path[-1][1].label


def walk(tree, x, y):
    """(transcript, output label) of the run on (x, y), found by walking
    the tree with a membership test per part; a later part wins on
    overlap."""
    node, transcript = tree.root, ""
    while isinstance(node, proto.Node):
        value = x if node.owner == "A" else y
        msg, _, node = next(part for part in reversed(node.parts) if value in part[1])
        transcript += msg
    return transcript, node.label


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
        assert 0 in child.rect.side("A").coords
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
        for h, elen in stats:
            assert elen <= h + 1 + 1e-9


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


def test_cleanup_soundness_and_bottom_rate():
    for seed in range(6):
        tree = small_tree(seed=seed, n_bits=5, depth=4)
        valid_a = lambda label, x: ((x >> (label % 5)) & 1) == 0
        valid_b = lambda label, y: ((y >> (label % 5)) & 1) == 0
        err = proto.measure_error(tree, valid_a, valid_b)
        cleaned = proto.cleanup(tree, err, valid_a, valid_b)
        assert proto.never_wrong(cleaned, valid_a, valid_b)
        assert proto.bottom_probability(cleaned) <= 2 * err + 1e-12


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


def test_transform_node_budget(monkeypatch):
    tree = small_tree(seed=0, n_bits=6, depth=4)
    nodes = sum(1 for _ in proto.subcube_like_transform(tree, 0.8).nodes())
    monkeypatch.setattr(proto, "DEFAULT_ENUM_BUDGET", nodes)
    proto.subcube_like_transform(tree, 0.8)  # exactly at the budget
    monkeypatch.setattr(proto, "DEFAULT_ENUM_BUDGET", nodes - 1)
    with pytest.raises(BudgetExceeded):
        proto.subcube_like_transform(tree, 0.8)


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
        return sols[0] if sols else BOT

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
    out = proto.danger_track(tree, spec, insts)
    assert len(out["ledgers"]) == len(insts)
    for inst, ledger in zip(insts, out["ledgers"]):
        x, y = split.inputs(inst.tables)
        assert (ledger.transcript, ledger.output) == walk(tree, x, y)
        assert len(ledger.rounds) == len(ledger.transcript) + 1


def test_danger_track_derives_cells_once_per_visited_node(monkeypatch):
    calls = []
    real = proto._fixed_table_cells

    def counting(rect, split):
        calls.append(rect)
        return real(rect, split)

    monkeypatch.setattr(proto, "_fixed_table_cells", counting)
    spec, insts, tree = danger_setup()
    out = proto.danger_track(tree, spec, insts)
    visited = sum(len(ledger.rounds) for ledger in out["ledgers"])
    assert len(calls) == visited


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
    for side in map(rect.side, proto.OWNERS):
        assert len(side.elems) == 1 << (side.n_bits - len(side.coords))
    assert is_subcube_like(rect, 0.8)


def test_routed_labels_match_run():
    for seed in range(6):
        tree = small_tree(seed=seed, n_bits=5, depth=4, labels=(0, 1, 2, 3))
        for t in (tree, proto.subcube_like_transform(tree, 0.8)):
            pairs = list(itertools.product(range(32), range(32)))
            expect = [run(t, x, y)[1] for x, y in pairs]
            xs, ys = proto._pair_arrays(pairs)
            assert proto._route_labels(t, xs, ys) == expect
            xs, ys = proto._pair_arrays(itertools.product(range(32), range(32)))
            assert proto._route_labels(t, xs, ys) == expect
            assert proto.outputs_agree(t, t, itertools.product(range(32), range(32)))


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
        proto._path(tree, 3, 0)
    with pytest.raises(KeyError):
        proto.outputs_agree(tree, tree, [(0, 0), (3, 0)])


def _dense_split_tree():
    """Root fixes coordinate 2 of X = {0, 1, 2, 3} (dense on the free
    coordinates 0 and 1); its children carry the same X content with no
    fixed coordinate, where the constant bit 2 makes X not dense."""
    X = proto.full_domain(2)  # bit 2 is 0 throughout
    Y = proto.full_domain(3)
    root_rect = proto.Rect(X, Y, 3, 3, I=(2,), a_bits=(0,), J=(), b_bits=())
    parts = []
    for bit in (0, 1):
        half = Y[(Y & 1) == bit]
        rect = proto.Rect(X.copy(), half, 3, 3, I=(), a_bits=(), J=(0,), b_bits=(bit,))
        parts.append((str(bit), half, proto.Leaf(bit, rect)))
    return proto.ProtocolTree(proto.Node("B", root_rect, parts), 3, 3)


def test_validate_keys_sides_by_fixed_coordinates():
    tree = _dense_split_tree()
    assert is_subcube_like(tree.root.rect, 0.8)
    with pytest.raises(AssertionError):
        proto.validate_subcube_like(tree, 0.8)


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
        (side.elems.tobytes(), side.free)
        for node in tree.nodes()
        for side in map(node.rect.side, "AB")
    }
    assert len(calls) == len(set(calls)) == len(distinct)
    assert len(calls) < 2 * nodes


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
