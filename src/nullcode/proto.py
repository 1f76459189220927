"""Deterministic two-party protocol trees with explicit per-node rectangles.

Inputs are bitmask integers: Alice holds x over n_bits_a coordinates, Bob
holds y over n_bits_b.  Every node stores its reachable rectangle X x Y as
explicit sorted arrays, so density checks, codimension accounting, and
transcript statistics are exact counting rather than sampling.

Main operations:

- building random one-bit-per-round trees,
- the message-compression transform that makes every node subcube-like
  (each original bit gets re-sent together with a Huffman-coded index of a
  density-restoring part of the sender's set),
- cleanup into a zero-error tree (codimension abort plus a final
  verification round),
- dangerous-codeword tracking against oracle instances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from operator import attrgetter
from typing import NamedTuple

import numpy as np

from . import codes as codes_mod
from . import huffman as huffman_mod
from .budget import DEFAULT_ENUM_BUDGET
from .density import density_restoring_partition, is_dense
from .errors import BudgetExceeded
from .instances import OracleInstance, Split, solution_mask


class _Bottom:
    __slots__ = ()

    def __repr__(self):
        return "BOT"


BOT = _Bottom()
OWNERS = ("A", "B")


def full_domain(n_bits: int) -> np.ndarray:
    return np.arange(1 << n_bits, dtype=np.int64)


def _constant_coords(X: np.ndarray, n_bits: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    andv = int(np.bitwise_and.reduce(X))
    orv = int(np.bitwise_or.reduce(X))
    coords, bits = [], []
    for c in range(n_bits):
        a, o = (andv >> c) & 1, (orv >> c) & 1
        if a == o:
            coords.append(c)
            bits.append(a)
    return tuple(coords), tuple(bits)


class Side(NamedTuple):
    """One player's side of a rectangle: its elements over n_bits
    coordinates, and the fixed coordinates with their bits."""

    elems: np.ndarray
    n_bits: int
    coords: tuple[int, ...]
    bits: tuple[int, ...]

    @property
    def free(self) -> tuple[int, ...]:
        return tuple(c for c in range(self.n_bits) if c not in self.coords)


# Rect field names of each owner's side: elements, bit count, declared
# fixed coordinates and their bits
_SIDE_FIELDS = {"A": ("X", "n_bits_a", "I", "a_bits"), "B": ("Y", "n_bits_b", "J", "b_bits")}
_SIDE_GET = {owner: attrgetter(*names) for owner, names in _SIDE_FIELDS.items()}


@dataclass
class Rect:
    """Explicit rectangle with declared fixed coordinates.

    When built by the subcube-like transform, (I, J) are the coordinates
    fixed by the construction; otherwise they default to the coordinates
    that happen to be constant.
    """

    X: np.ndarray
    Y: np.ndarray
    n_bits_a: int
    n_bits_b: int
    I: tuple[int, ...] | None = None
    a_bits: tuple[int, ...] | None = None
    J: tuple[int, ...] | None = None
    b_bits: tuple[int, ...] | None = None

    def side(self, owner: str) -> Side:
        """Alice's ("A") or Bob's ("B") side."""
        elems, n_bits, coords, bits = _SIDE_GET[owner](self)
        if coords is None:
            coords, bits = _constant_coords(elems, n_bits)
        return Side(elems, n_bits, coords, bits)

    def narrow(self, owner: str, elems: np.ndarray, coords=(), bits=()) -> "Rect":
        """Child rectangle whose owner side is elems.  When this rectangle
        declares fixed coordinates, the child declares coords (set to bits)
        on top of them."""
        f_elems, _, f_coords, f_bits = _SIDE_FIELDS[owner]
        child = Rect(
            self.X, self.Y, self.n_bits_a, self.n_bits_b, self.I, self.a_bits, self.J, self.b_bits
        )
        setattr(child, f_elems, elems)
        if getattr(self, f_coords) is not None:
            setattr(child, f_coords, getattr(self, f_coords) + tuple(coords))
            setattr(child, f_bits, getattr(self, f_bits) + tuple(bits))
        return child

    @property
    def codim(self) -> int:
        return sum(len(self.side(owner).coords) for owner in OWNERS)


@dataclass
class Leaf:
    label: object
    rect: Rect


@dataclass
class Node:
    owner: str  # "A" or "B"
    rect: Rect
    parts: list  # [(message string, owner-subset array, child node)]


@dataclass
class ProtocolTree:
    root: object
    n_bits_a: int
    n_bits_b: int

    def cost(self) -> int:
        """Worst-case transcript bit-length."""
        return max(len(transcript) for _, transcript, _ in self.leaves())

    def nodes(self):
        stack = [self.root]
        while stack:
            node = stack.pop()
            yield node
            if isinstance(node, Node):
                for _, _, child in node.parts:
                    stack.append(child)

    def leaves(self):
        """(leaf, transcript, rounds) triples."""

        def walk(node, transcript, rounds):
            if isinstance(node, Leaf):
                yield node, transcript, rounds
                return
            for msg, _, child in node.parts:
                yield from walk(child, transcript + msg, rounds + 1)

        yield from walk(self.root, "", 0)


def _part_index(node: Node, values: np.ndarray, n_bits: int) -> np.ndarray:
    """Index into node.parts of the part holding each of the owner's input
    values; a later part wins on overlap.  Raises KeyError for a value that
    lies in no part."""
    bad = values[(values < 0) | (values >= 1 << n_bits)]
    if bad.size:
        raise KeyError(int(bad[0]))
    which = np.full(1 << n_bits, -1, dtype=np.int32)
    for i, (_, subset, _) in enumerate(node.parts):
        which[subset] = i
    which = which[values]
    if (which < 0).any():
        raise KeyError(int(values[np.argmax(which < 0)]))
    return which


def _path(tree: ProtocolTree, x: int, y: int) -> list:
    """(message, node) pairs along the run on (x, y): ("", root), then each
    node reached with the message sent to reach it; the last is a Leaf."""
    path = [("", tree.root)]
    node = tree.root
    while isinstance(node, Node):
        value, n_bits = (x, tree.n_bits_a) if node.owner == "A" else (y, tree.n_bits_b)
        msg, _, node = node.parts[_part_index(node, np.array([value]), n_bits)[0]]
        path.append((msg, node))
    return path


def _route_labels(tree: ProtocolTree, xs: np.ndarray, ys: np.ndarray) -> list:
    """Output label of every pair (xs[k], ys[k]), routing all pairs through
    the tree together; equals the leaf label that _path(tree, x, y) ends
    at, and like _path raises KeyError for a value that lies in no part of
    a node it reaches."""
    labels = [None] * len(xs)
    stack = [(tree.root, np.arange(len(xs)))]
    while stack:
        node, idx = stack.pop()
        if isinstance(node, Leaf):
            for k in idx.tolist():
                labels[k] = node.label
            continue
        values, n_bits = (xs, tree.n_bits_a) if node.owner == "A" else (ys, tree.n_bits_b)
        which = _part_index(node, values[idx], n_bits)
        for i, (_, _, child) in enumerate(node.parts):
            stack.append((child, idx[which == i]))
    return labels


def transcript_stats(tree: ProtocolTree) -> dict:
    """Exact transcript statistics under uniform inputs.

    Leaf probabilities come from rectangle sizes, so the entropy H of the
    transcript, the expected length, and the expected round count are
    exact.  Reports the decomposition bound E[len] <= 2d + H.
    """
    total = float((1 << tree.n_bits_a) * (1 << tree.n_bits_b))
    probs, lens, rounds = [], [], []
    for leaf, transcript, nrounds in tree.leaves():
        p = len(leaf.rect.X) * len(leaf.rect.Y) / total
        if p == 0:
            continue
        probs.append(p)
        lens.append(len(transcript))
        rounds.append(nrounds)
    entropy = -sum(p * math.log2(p) for p in probs if p > 0)
    e_len = sum(p * l for p, l in zip(probs, lens))
    e_rounds = sum(p * r for p, r in zip(probs, rounds))
    return {
        "entropy": entropy,
        "expected_length": e_len,
        "expected_rounds": e_rounds,
        "max_length": max(lens) if lens else 0,
        "max_rounds": max(rounds) if rounds else 0,
        "mass": sum(probs),
        "two_d_plus_H": 2 * e_rounds + entropy,
    }


# -- tree construction ----------------------------------------------------------


def _partition_by(X: np.ndarray, fn) -> tuple[np.ndarray, np.ndarray]:
    """(elements where fn is 0, elements where it is 1); fn maps the whole
    array at once."""
    mask = fn(X).astype(bool)
    return X[~mask], X[mask]


PARITY_PROB = 0.25  # share of random rounds that send the XOR of two coordinates


def random_onebit_tree(
    rng: np.random.Generator,
    n_bits_a: int,
    n_bits_b: int,
    depth: int,
    labels,
) -> ProtocolTree:
    """Random protocol tree sending one bit per round.

    Each internal node queries a coordinate of the owner's input (or, with
    probability PARITY_PROB, the XOR of two coordinates).  Leaf labels are
    drawn from `labels`.
    """

    def pick_label():
        return labels[int(rng.integers(len(labels)))] if len(labels) else BOT

    def build(rect, remaining):
        if remaining == 0:
            return Leaf(pick_label(), rect)
        owner = "A" if rng.random() < 0.5 else "B"
        side, nb = rect.side(owner)[:2]
        fn = None
        for _ in range(10):
            if rng.random() < PARITY_PROB and nb >= 2:
                c1, c2 = rng.choice(nb, size=2, replace=False)
                cand = lambda v, c1=int(c1), c2=int(c2): ((v >> c1) ^ (v >> c2)) & 1
            else:
                c = int(rng.integers(nb))
                cand = lambda v, c=c: (v >> c) & 1
            p0, p1 = _partition_by(side, cand)
            if len(p0) and len(p1):
                fn = cand
                break
        if fn is None:
            return Leaf(pick_label(), rect)
        children = [
            (str(bit), part, build(rect.narrow(owner, part), remaining - 1))
            for bit, part in ((0, p0), (1, p1))
        ]
        return Node(owner, rect, children)

    root = Rect(full_domain(n_bits_a), full_domain(n_bits_b), n_bits_a, n_bits_b)
    return ProtocolTree(build(root, depth), n_bits_a, n_bits_b)


def reveal_tree(builder_labels, n_bits_a: int, n_bits_b: int) -> ProtocolTree:
    """Baseline protocol: Alice sends all her bits, then Bob sends all of
    his; each leaf holds builder_labels(x, y)."""

    def build(rect, owners, coord):
        if not owners:
            return Leaf(builder_labels(int(rect.X[0]), int(rect.Y[0])), rect)
        owner = owners[0]
        side, n_bits = rect.side(owner)[:2]
        if coord == n_bits:
            return build(rect, owners[1:], 0)
        children = []
        for bit in (0, 1):
            part = side[((side >> coord) & 1) == bit]
            if len(part):
                child = build(rect.narrow(owner, part), owners, coord + 1)
                children.append((str(bit), part, child))
        return Node(owner, rect, children)

    root = Rect(full_domain(n_bits_a), full_domain(n_bits_b), n_bits_a, n_bits_b)
    return ProtocolTree(build(root, OWNERS, 0), n_bits_a, n_bits_b)


def reveal_solution_tree(spec) -> ProtocolTree:
    """Full-reveal baseline over the bipartite split of spec's tables: each
    leaf holds the first solution (in message-rank order) of the revealed
    instance, or BOT when it has none."""
    split = Split(spec.n, spec.sigma_size)
    ranks = codes_mod.codeword_rank_matrix(spec)
    words = codes_mod.codeword_matrix(spec)

    def first_solution(x, y):
        hits = np.flatnonzero(solution_mask(split.tables(x, y), ranks))
        if not hits.size:
            return BOT
        return tuple(map(tuple, words[hits[0]].reshape(spec.n, spec.m).tolist()))

    return reveal_tree(first_solution, split.bits_per_side, split.bits_per_side)


# -- subcube-like transform -------------------------------------------------------


def subcube_like_transform(tree: ProtocolTree, gamma, code_stats: list | None = None) -> ProtocolTree:
    """Rebuild the tree so every node's rectangle is subcube-like.

    Each original one-bit round becomes a message (b, C(i)): the original
    bit plus a Huffman code for the density-restoring part of the sender's
    updated set that contains their input.  Outputs are preserved on every
    input pair.

    When code_stats is a list, one (entropy, expected_length) pair per
    constructed Huffman code is appended to it.  Raises BudgetExceeded
    once the new tree has more than DEFAULT_ENUM_BUDGET nodes.
    """
    nodes = 1

    def build(orig, rect):
        nonlocal nodes
        if isinstance(orig, Leaf):
            return Leaf(orig.label, rect)
        if len(orig.parts) > 2:
            raise ValueError("transform needs one-bit (binary) rounds")
        owner = orig.owner
        side = rect.side(owner)
        free = side.free
        new_parts = []
        for msg, orig_subset, child in orig.parts:
            member = np.zeros(1 << side.n_bits, dtype=bool)
            member[orig_subset] = True
            sub = side.elems[member[side.elems]]
            if len(sub) == 0:
                continue
            drp = density_restoring_partition(sub, gamma, free)
            nodes += len(drp)
            if nodes > DEFAULT_ENUM_BUDGET:
                raise BudgetExceeded(f"transformed tree exceeds {DEFAULT_ENUM_BUDGET} nodes")
            sizes = [len(p.elems) for p in drp]
            code = huffman_mod.huffman(sizes)
            if code_stats is not None:
                code_stats.append(
                    (huffman_mod.entropy(sizes), huffman_mod.expected_length(code, sizes))
                )
            for part, word in zip(drp, code):
                child_rect = rect.narrow(owner, part.elems, part.fixed_coords, part.fixed_bits)
                new_parts.append((msg + word, part.elems, build(child, child_rect)))
        return Node(owner, rect, new_parts)

    na, nb = tree.n_bits_a, tree.n_bits_b
    root = Rect(full_domain(na), full_domain(nb), na, nb, I=(), a_bits=(), J=(), b_bits=())
    return ProtocolTree(build(tree.root, root), na, nb)


def validate_subcube_like(tree: ProtocolTree, gamma) -> int:
    """Exact density check at every node; returns the node count.

    Siblings and descendants share the side that does not speak, so each
    distinct (elements, free coordinates) is checked once: density depends
    on nothing else.
    """
    checked = set()
    count = 0
    for node in tree.nodes():
        for side in map(node.rect.side, OWNERS):
            free = side.free
            key = (np.asarray(side.elems, dtype=np.int64).tobytes(), free)
            if key in checked:
                continue
            if not is_dense(side.elems, gamma, free):
                raise AssertionError("node rectangle is not subcube-like")
            checked.add(key)
        count += 1
    return count


def _pair_arrays(pairs) -> tuple[np.ndarray, np.ndarray]:
    xy = np.array(list(pairs), dtype=np.int64).reshape(-1, 2)
    return xy[:, 0], xy[:, 1]


def outputs_agree(tree_a: ProtocolTree, tree_b: ProtocolTree, pairs) -> bool:
    """Whether both trees output the same label on every (x, y) in pairs."""
    xs, ys = _pair_arrays(pairs)
    return _route_labels(tree_a, xs, ys) == _route_labels(tree_b, xs, ys)


# -- cleanup ----------------------------------------------------------------------


def measure_error(tree: ProtocolTree, valid_a, valid_b) -> float:
    """Probability over uniform inputs that the output is not valid.

    Validity must factor through the two sides: a label is correct for
    (x, y) iff valid_a(label, x) and valid_b(label, y).  BOT labels count
    as invalid here.
    """
    total = (1 << tree.n_bits_a) * (1 << tree.n_bits_b)
    bad = 0
    for leaf, _, _ in tree.leaves():
        rect = leaf.rect
        size = len(rect.X) * len(rect.Y)
        if leaf.label is BOT:
            bad += size
            continue
        ok_a = sum(1 for x in rect.X.tolist() if valid_a(leaf.label, x))
        ok_b = sum(1 for y in rect.Y.tolist() if valid_b(leaf.label, y))
        bad += size - ok_a * ok_b
    return bad / total


def cleanup(tree: ProtocolTree, epsilon: float, valid_a, valid_b) -> ProtocolTree:
    """Zero-error version of the tree.

    Aborts to BOT whenever the rectangle codimension exceeds cost/epsilon,
    and appends a verification round at every surviving leaf: the solution
    owner's counterpart checks the label against her own input (one bit
    each way), so an incorrect non-BOT label can never be emitted.
    """
    cost = tree.cost()
    threshold = math.inf if epsilon <= 0 else cost / epsilon

    def verify(rect, owner, valid, label, inner):
        """Owner sends whether label is valid for their input: "0" ends in
        BOT, "1" goes on to inner(the narrowed rectangle)."""
        elems = rect.side(owner).elems
        ok = np.fromiter((valid(label, int(v)) for v in elems), dtype=bool, count=len(elems))
        parts = []
        for msg, part, make in (("0", elems[~ok], partial(Leaf, BOT)), ("1", elems[ok], inner)):
            if len(part):
                parts.append((msg, part, make(rect.narrow(owner, part))))
        return Node(owner, rect, parts)

    def verify_leaf(label, rect):
        if label is BOT:
            return Leaf(BOT, rect)
        return verify(
            rect, "B", valid_b, label,
            lambda inner: verify(inner, "A", valid_a, label, partial(Leaf, label)),
        )

    def walk(node):
        if node.rect.codim > threshold:
            return Leaf(BOT, node.rect)
        if isinstance(node, Leaf):
            return verify_leaf(node.label, node.rect)
        parts = []
        for msg, subset, child in node.parts:
            parts.append((msg, subset, walk(child)))
        return Node(node.owner, node.rect, parts)

    return ProtocolTree(walk(tree.root), tree.n_bits_a, tree.n_bits_b)


def bottom_probability(tree: ProtocolTree) -> float:
    total = (1 << tree.n_bits_a) * (1 << tree.n_bits_b)
    mass = 0
    for leaf, _, _ in tree.leaves():
        if leaf.label is BOT:
            mass += len(leaf.rect.X) * len(leaf.rect.Y)
    return mass / total


def never_wrong(tree: ProtocolTree, valid_a, valid_b) -> bool:
    """Exhaustive check that every non-BOT output is valid."""
    xs = np.repeat(full_domain(tree.n_bits_a), 1 << tree.n_bits_b)
    ys = np.tile(full_domain(tree.n_bits_b), 1 << tree.n_bits_a)
    labels = _route_labels(tree, xs, ys)
    for x, y, label in zip(xs.tolist(), ys.tolist(), labels):
        if label is not BOT and not (valid_a(label, x) and valid_b(label, y)):
            return False
    return True


# -- dangerous codewords ------------------------------------------------------------


DANGER_THRESHOLD = Fraction(2, 5)  # fraction of oracle bits fixed


@dataclass
class DangerLedger:
    """Per-round dangerous-codeword sets along one protocol run, with the
    run's transcript and output label."""

    rounds: list[frozenset]
    transcript: str
    output: object
    solution_flags: list[bool]  # per round-d dangerous codeword: is it a solution?

    def assert_monotone(self) -> None:
        for earlier, later in zip(self.rounds, self.rounds[1:]):
            if not earlier <= later:
                raise AssertionError("dangerous-codeword set shrank")


def _fixed_table_cells(rect: Rect, split: Split) -> list[set]:
    """Per-coordinate sets of symbol ranks whose table bit is fixed."""
    cells = [set() for _ in range(split.n)]
    for owner in OWNERS:
        for bit in rect.side(owner).coords:
            i, e = split.cell(owner, bit)
            cells[i].add(e)
    return cells


def dangerous_codewords(spec, cells: list[set]) -> frozenset:
    """Codeword indexes with >= DANGER_THRESHOLD * n of their oracle bits
    fixed, given per coordinate the symbol ranks whose table bit is fixed
    (`_fixed_table_cells`)."""
    ranks = codes_mod.codeword_rank_matrix(spec)
    thr = math.ceil(DANGER_THRESHOLD * spec.n)
    counts = np.zeros(ranks.shape[0], dtype=np.int64)
    for i in range(spec.n):
        if cells[i]:
            cell = np.array(sorted(cells[i]), dtype=np.int64)
            counts += np.isin(ranks[:, i], cell)
    return frozenset(np.nonzero(counts >= thr)[0].tolist())


def danger_track(
    tree: ProtocolTree,
    spec,
    insts: list[OracleInstance],
) -> dict:
    """Run the tree on each instance and track dangerous codewords.

    Returns per-run ledgers (monotonicity asserted), the cross-check
    against list_recover_count at every visited node, and the aggregate
    frequency with which a codeword that ever became dangerous ends up a
    solution of the instance.
    """
    split = Split(spec.n, spec.sigma_size)
    ranks = codes_mod.codeword_rank_matrix(spec)
    ledgers = []
    danger_events = 0
    danger_solutions = 0
    for inst in insts:
        x, y = split.inputs(inst.tables)
        sols = solution_mask(inst.tables, ranks)
        rounds = []
        path = _path(tree, x, y)
        for _, node in path:
            cells = _fixed_table_cells(node.rect, split)
            q = dangerous_codewords(spec, cells)
            _recount_check(spec, cells, len(q))
            rounds.append(q)
        flags = [bool(sols[idx]) for idx in sorted(rounds[-1])]
        ledger = DangerLedger(
            rounds=rounds,
            transcript="".join(msg for msg, _ in path),
            output=node.label,
            solution_flags=flags,
        )
        ledger.assert_monotone()
        ledgers.append(ledger)
        danger_events += len(rounds[-1])
        danger_solutions += sum(flags)
    return {
        "ledgers": ledgers,
        "danger_events": danger_events,
        "danger_solutions": danger_solutions,
        "danger_to_solution_rate": (
            danger_solutions / danger_events if danger_events else 0.0
        ),
    }


def _recount_check(spec, cells: list[set], expected: int) -> None:
    count = codes_mod.list_recover_count(
        spec, [frozenset(c) for c in cells], float(DANGER_THRESHOLD)
    )
    if count != expected:
        raise AssertionError(
            f"list_recover_count disagrees with the danger recount: {count} != {expected}"
        )
