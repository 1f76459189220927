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
import sys
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial

import numpy as np

from . import codes as codes_mod
from . import huffman as huffman_mod
from .budget import DEFAULT_ENUM_BUDGET
from .density import density_cut, density_restoring_partition, is_dense
from .errors import BudgetExceeded
from .gf import exact
from .instances import OracleInstance, Split, solution_mask


class _Bottom:
    __slots__ = ()

    def __repr__(self):
        return "BOT"


BOT = _Bottom()
OWNERS = ("A", "B")


def full_domain(n_bits: int) -> np.ndarray:
    return np.arange(1 << n_bits, dtype=np.int64)


@dataclass
class Rect:
    """Explicit rectangle X x Y over n_bits_a + n_bits_b coordinates.

    A side's free coordinates are the ones where its elements vary, so
    they are derived (`free`), never stored: for gamma > 0 a side that is
    gamma-dense on its free coordinates is constant on none of them.
    """

    X: np.ndarray
    Y: np.ndarray
    n_bits_a: int
    n_bits_b: int

    def elems_of(self, owner: str) -> tuple[np.ndarray, int]:
        """Alice's ("A") or Bob's ("B") elements and bit count."""
        return (self.X, self.n_bits_a) if owner == "A" else (self.Y, self.n_bits_b)

    def free(self, owner: str) -> tuple[int, ...]:
        """The coordinates where the owner's elements vary, ascending; the
        rest are the side's fixed coordinates."""
        elems, n_bits = self.elems_of(owner)
        return _mask_coords(_varies(elems), n_bits)

    def narrow(self, owner: str, elems: np.ndarray) -> "Rect":
        """Child rectangle whose owner side is elems."""
        if owner == "A":
            return Rect(elems, self.Y, self.n_bits_a, self.n_bits_b)
        return Rect(self.X, elems, self.n_bits_a, self.n_bits_b)

    @property
    def codim(self) -> int:
        return self.n_bits_a + self.n_bits_b - sum(len(self.free(owner)) for owner in OWNERS)


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


_ROUTE_CELLS = 1 << 20  # cells of one routing table: 4 MiB of int32


# a 2^n_bits row per node beats searchsorted over the parts and np.isin
def _part_ids(nodes: list, n_bits: int, first: int) -> np.ndarray:
    """The part lookup of both tree walks: one int32 table with a row of
    2^n_bits cells per node, end to end.  Cell j 2^n_bits + v holds the id
    of node j's part that holds v, or -1 if no part does.  Ids count up
    from first through the nodes' parts in order, and each part is
    written over the ones before it, so a later part wins on overlap."""
    table = np.full((len(nodes), 1 << n_bits), -1, dtype=np.int32)
    for j, node in enumerate(nodes):
        for _, subset, _ in node.parts:
            table[j][subset] = first
            first += 1
    return table.ravel()  # a flat gather beats a 2-D one


def _levels(tree: ProtocolTree, xs: np.ndarray, ys: np.ndarray):
    """Run the tree on every pair (xs[k], ys[k]) at once, one depth at a
    time.  Yields (steps, idx, at) per depth that some pair reaches: the
    reached nodes as (message sent to reach it, node) pairs ("" at the
    root), the ascending indexes of the pairs that reach that depth, and
    each such pair's position in steps.  Each depth routes its pairs with
    one gather from the _part_ids table of its reached inner nodes (one
    table per _ROUTE_CELLS cells' worth of nodes), so a later part wins on
    overlap.  Raises KeyError for a value out of range or in no part of a
    node that its pair reaches."""
    if not len(xs):
        return
    xy = np.stack([xs, ys])
    fits = np.stack([xs >> tree.n_bits_a == 0, ys >> tree.n_bits_b == 0])  # in range
    all_fit = fits.all()
    n_bits = max(tree.n_bits_a, tree.n_bits_b)  # one table width for both sides
    per_table = max(1, _ROUTE_CELLS >> n_bits)
    steps = [("", tree.root)]
    idx = np.arange(len(xs))
    at = np.zeros(len(xs), dtype=np.intp)
    while True:
        yield steps, idx, at
        inner = [isinstance(node, Node) for _, node in steps]
        if not any(inner):
            return
        nodes = [node for _, node in steps]
        if not all(inner):
            # every step holds a pair, so the pairs left reach every inner node
            keep = np.array(inner)[at]
            idx, at = idx[keep], (np.cumsum(inner) - 1)[at[keep]]
            nodes = [node for node in nodes if isinstance(node, Node)]
        side = np.array([node.owner != "A" for node in nodes], dtype=np.intp)[at]  # row of xy
        values = xy[side, idx]
        if not all_fit:
            bad = ~fits[side, idx]
            if bad.any():
                raise KeyError(int(values[np.argmax(bad)]))
        which = np.empty(len(idx), dtype=np.int32)
        kids = []
        for lo in range(0, len(nodes), per_table):
            group = nodes[lo : lo + per_table]
            # the pairs at the group's nodes: all of them, unless it is one of several
            here = slice(None) if len(group) == len(nodes) else (at >= lo) & (at < lo + per_table)
            cells = ((at[here] - lo) << n_bits) + values[here]
            which[here] = _part_ids(group, n_bits, len(kids))[cells]
            kids += [(msg, child) for node in group for msg, _, child in node.parts]
        if (which < 0).any():
            raise KeyError(int(values[np.argmax(which < 0)]))
        reached = np.flatnonzero(np.bincount(which, minlength=len(kids)))
        renumber = np.zeros(len(kids), dtype=np.intp)
        renumber[reached] = np.arange(len(reached))
        steps = [kids[i] for i in reached.tolist()]
        at = renumber[which]


def _route(tree: ProtocolTree, xs: np.ndarray, ys: np.ndarray):
    """Run the tree on every pair (xs[k], ys[k]) at once.  Yields (message,
    node, idx) for each node that some pair reaches, parents first (depth
    by depth, as _levels routes them): the message sent to reach it (""
    at the root) and the ascending indexes of the pairs that reach it.
    Raises KeyError for a value out of range or in no part of a node it
    reaches."""
    for steps, idx, at in _levels(tree, xs, ys):
        order = np.argsort(at, kind="stable")
        ends = np.cumsum(np.bincount(at, minlength=len(steps)))
        for (msg, node), here in zip(steps, np.split(idx[order], ends[:-1])):
            yield msg, node, here


def _route_labels(tree: ProtocolTree, xs: np.ndarray, ys: np.ndarray) -> list:
    """Output label of every pair (xs[k], ys[k])."""
    labels = np.full(len(xs), None, dtype=object)
    for steps, idx, at in _levels(tree, xs, ys):
        leaf = [isinstance(node, Leaf) for _, node in steps]
        if any(leaf):
            got = np.full(len(steps), None, dtype=object)
            for i, (_, node) in enumerate(steps):
                if leaf[i]:  # one at a time: a tuple label would spread
                    got[i] = node.label
            here = np.array(leaf)[at]
            labels[idx[here]] = got[at[here]]
    return labels.tolist()


def _reaching_rects(*trees: ProtocolTree):
    """Run the trees at once on every pair of their common domain;
    yield (leaves, X, Y), one leaf per tree, for each nonempty rectangle
    X x Y of the pairs that reach them.  Nodes split their owner's side by
    its row of _part_ids, as _levels routes pairs (a later part wins;
    KeyError for a value in no part), and the trees take turns, so they
    descend together.  Trees over different bit counts raise ValueError."""
    shapes = [(t.n_bits_a, t.n_bits_b) for t in trees]
    if len(set(shapes)) > 1:
        raise ValueError(f"trees over different (n_bits_a, n_bits_b): {shapes}")
    na, nb, n = trees[0].n_bits_a, trees[0].n_bits_b, len(trees)
    stack = [(tuple(t.root for t in trees), Rect(full_domain(na), full_domain(nb), na, nb), 0)]
    while stack:
        nodes, rect, turn = stack.pop()
        k = next((k % n for k in range(turn, turn + n) if isinstance(nodes[k % n], Node)), None)
        if k is None:
            yield nodes, rect.X, rect.Y
            continue
        node = nodes[k]
        side, n_bits = rect.elems_of(node.owner)
        which = _part_ids([node], n_bits, 0)[side]
        if (which < 0).any():
            raise KeyError(int(side[np.argmax(which < 0)]))
        for i, (_, _, child) in enumerate(node.parts):
            part = side[which == i]
            if part.size:
                rest = nodes[:k] + (child,) + nodes[k + 1 :]
                stack.append((rest, rect.narrow(node.owner, part), k + 1))


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
    entropy = 0.0 - sum(p * math.log2(p) for p in probs if p > 0)
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
    drawn from `labels`.  Raises BudgetExceeded once the tree has more
    than DEFAULT_ENUM_BUDGET nodes: a large depth can split until both
    sides are single points, up to 2^(n_bits_a + n_bits_b) leaves.
    """
    nodes = 0

    def pick_label():
        return labels[int(rng.integers(len(labels)))] if len(labels) else BOT

    def build(rect, remaining):
        nonlocal nodes
        nodes += 1
        if nodes > DEFAULT_ENUM_BUDGET:
            raise BudgetExceeded(f"random tree exceeds {DEFAULT_ENUM_BUDGET} nodes")
        if remaining == 0:
            return Leaf(pick_label(), rect)
        owner = "A" if rng.random() < 0.5 else "B"
        side, nb = rect.elems_of(owner)
        for _ in range(10):
            if rng.random() < PARITY_PROB and nb >= 2:
                c1, c2 = rng.choice(nb, size=2, replace=False)
                bits = (side >> int(c1)) ^ (side >> int(c2))
            else:
                bits = side >> int(rng.integers(nb))
            mask = (bits & 1).astype(bool)
            p0, p1 = side[~mask], side[mask]
            if len(p0) and len(p1):
                break
        else:
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
        side, n_bits = rect.elems_of(owner)
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
    instance, or BOT when it has none.  Raises BudgetExceeded first when
    it would have more than DEFAULT_ENUM_BUDGET leaves."""
    split = Split(spec.n, spec.sigma_size)
    check_input_pairs(split.bits_per_side, split.bits_per_side)
    ranks = codes_mod.codeword_rank_matrix(spec)
    words = codes_mod.codeword_matrix(spec)

    def first_solution(x, y):
        hits = np.flatnonzero(solution_mask(split.tables(x, y), ranks))
        if not hits.size:
            return BOT
        return codes_mod.fold(spec, words[hits[0]])

    return reveal_tree(first_solution, split.bits_per_side, split.bits_per_side)


# -- subcube-like transform -------------------------------------------------------


def subcube_like_transform(tree: ProtocolTree, gamma, code_stats: list | None = None) -> ProtocolTree:
    """Rebuild the tree so every node's rectangle is subcube-like.

    Each original one-bit round becomes a message (b, C(i)): the original
    bit plus a Huffman code for the density-restoring part of the sender's
    updated set that contains their input.  Outputs are preserved on every
    input pair.

    When code_stats is a list, one (entropy, expected_length) pair per
    constructed Huffman code is appended to it on return, in level order:
    by depth, then left to right.  Raises ValueError for a gamma above 1
    (after density's normalisation), where the full domain is not
    gamma-dense, or for a round of more than two parts, before any
    refinement, and BudgetExceeded once the new tree has more than
    DEFAULT_ENUM_BUDGET nodes; code_stats is untouched when it raises.
    """
    if density_cut(2, gamma, 1) == 0:  # floor(2^(1 - gamma)) = 0 iff gamma > 1
        # a Fraction such as the CLI's 3/2 prints as the decimal 1.5, and one
        # past the float range as a bound rather than its hundreds of digits
        shown = gamma
        if isinstance(gamma, Fraction):
            shown = float(gamma) if gamma <= sys.float_info.max else f"above {sys.float_info.max:.2g}"
        raise ValueError(f"gamma {shown} exceeds 1: the full domain is not gamma-dense")
    if any(isinstance(node, Node) and len(node.parts) > 2 for node in tree.nodes()):
        raise ValueError("transform needs one-bit (binary) rounds")
    na, nb = tree.n_bits_a, tree.n_bits_b
    root = _shell(tree.root, Rect(full_domain(na), full_domain(nb), na, nb))
    # One level at a time, so density decides a whole depth's subsets in
    # one batch.  The speaker's refinement depends only on the original
    # node and the speaker's side, so siblings that differ only in the
    # other side share it: (id(orig), side bytes) -> refinement, keyed on
    # id because a Node is unhashable.  A new node sits at its original
    # node's depth, so a memo per level misses nothing.
    level, nodes, stats = [(tree.root, root)], 1, []
    while level:
        inner = [(orig, new) for orig, new in level if isinstance(orig, Node)]
        keys = [(id(orig), new.rect.elems_of(orig.owner)[0].tobytes()) for orig, new in inner]
        todo = {key: (orig, new.rect) for key, (orig, new) in zip(keys, inner)}
        refined, nodes = _refine_level(todo, Counter(keys), nodes, gamma)
        level = []
        for (orig, new), key in zip(inner, keys):
            for code, parts in refined[key]:
                stats.append(code)
                for msg, elems, child in parts:
                    kid = _shell(child, new.rect.narrow(orig.owner, elems))
                    new.parts.append((msg, elems, kid))
                    level.append((child, kid))
    if code_stats is not None:
        code_stats.extend(stats)
    return ProtocolTree(root, na, nb)


def _refine_level(todo: dict, shared: Counter, nodes: int, gamma) -> tuple[dict, int]:
    """(key -> `_refine` of its (original node, rect), the node count once
    the level's children are added), for a level of `shared[key]` nodes
    per key in a tree of `nodes`; BudgetExceeded once the count passes
    DEFAULT_ENUM_BUDGET.  Every child is a nonempty part of its speaker's
    side, so a level whose sides hold at most the nodes the budget has
    left fits, and is refined in one batch.  Any other level is refined in
    batches of 1, 2, 4, ... keys, each key's children counted once per
    node that shares it, and raises as soon as the count must pass the
    budget, with the keys after it left unrefined."""
    keys = list(todo)
    most = sum(shared[key] * len(rect.elems_of(orig.owner)[0]) for key, (orig, rect) in todo.items())
    refined, start, size = {}, 0, len(keys) if nodes + most <= DEFAULT_ENUM_BUDGET else 1
    while start < len(keys):
        batch = keys[start : start + size]
        refined.update(zip(batch, _refine([todo[key] for key in batch], gamma)))
        nodes += sum(shared[key] * len(parts) for key in batch for _, parts in refined[key])
        if nodes > DEFAULT_ENUM_BUDGET:
            raise BudgetExceeded(f"transformed tree exceeds {DEFAULT_ENUM_BUDGET} nodes")
        start, size = start + size, 2 * size
    return refined, nodes


def _shell(orig, rect):
    """A new node over rect for the original node orig: its leaf, or a
    node of the same speaker whose parts are still to come."""
    return Leaf(orig.label, rect) if isinstance(orig, Leaf) else Node(orig.owner, rect, [])


def _refine(pairs: list, gamma) -> list:
    """The speaker's refinement of its side of rect on the side's free
    coordinates, for each (original node, rect) pair: per original bit
    with a nonempty subset, its code's (entropy, expected_length) and a
    (message, part elems, child) tuple per density-restoring part.  Every
    subset is a boolean slice of a side, itself one of full_domain, so its
    elements are distinct and it varies only where its side does.  So for
    gamma < 1 a subset of 2^|V| elements, V the bits where it varies, is
    the subcube on V, certified by its size: its own one part, as
    density_restoring_partition would return it.  Only the others are
    partitioned.  For 0 <= gamma < 1 a one-bit round on one coordinate or
    the XOR of two (as `random_onebit_tree` sends) cuts an affine set with
    disjoint blocks into sets of the same kind, and
    `density_restoring_partition` settles those with no count table.  For
    1/2 < gamma < 1 every side stays a subcube, and each subset not
    certified by its size is a parity half, split into its two parts from
    one certificate with no `find_violation` call.  Only the residual of a
    peel that fixes two blocks or more at once is another set, and that
    happens only at gamma <= 1/2.  `_refine_level` decides how many keys
    of a level go into one call.
    Sides are split by one bool table per original part, not by a _part_ids
    row: one take per part beats a gather plus a compare per part."""
    if not pairs:
        return []
    sides = [rect.elems_of(orig.owner) for orig, rect in pairs]
    free = _free_masks([elems for elems, _ in sides])
    by_node = {}
    for i, (orig, _) in enumerate(pairs):
        by_node.setdefault(id(orig), []).append(i)
    subs, owners = [], []  # nonempty subsets, and (pair, original part) of each
    for group in by_node.values():
        # one table per original part, one bool per input value, kept only
        # while this node's sides are split
        orig, n_bits = pairs[group[0]][0], sides[group[0]][1]
        tables = [np.zeros(1 << n_bits, dtype=bool) for _ in orig.parts]
        for member, (_, subset, _) in zip(tables, orig.parts):
            member[subset] = True
        for i in group:
            for j, member in enumerate(tables):
                sub = sides[i][0][member.take(sides[i][0])]
                if len(sub):
                    subs.append(sub)
                    owners.append((i, j))
    certify = exact(gamma) < 1
    single_code = huffman_mod.huffman([1])
    single = (huffman_mod.entropy([1]), huffman_mod.expected_length(single_code, [1]))
    groups = [[] for _ in pairs]
    for sub, (i, j), varies in zip(subs, owners, _free_masks(subs).tolist()):
        msg, _, child = pairs[i][0].parts[j]
        if certify and len(sub) == 1 << varies.bit_count():
            groups[i].append((single, [(msg + single_code[0], sub, child)]))
            continue
        drp = density_restoring_partition(sub, gamma, _mask_coords(int(free[i]), sides[i][1]))
        sizes = [len(p.elems) for p in drp]
        code = huffman_mod.huffman(sizes)
        stats = (huffman_mod.entropy(sizes), huffman_mod.expected_length(code, sizes))
        groups[i].append((stats, [(msg + word, part.elems, child) for part, word in zip(drp, code)]))
    return groups


def _free_masks(sides: list) -> np.ndarray:
    """Each nonempty side's free coordinates as one uint64 mask, the bits
    where its elements vary, from one AND/OR reduceat pass over them all
    (an empty side would read as its successor's first element)."""
    flat = np.concatenate(sides or [[]]).astype(np.int64, copy=False).view(np.uint64)
    sizes = np.array([len(elems) for elems in sides], dtype=np.intp)
    starts = np.cumsum(sizes) - sizes
    return np.bitwise_and.reduceat(flat, starts) ^ np.bitwise_or.reduceat(flat, starts)


def _varies(elems: np.ndarray) -> int:
    """The bits where the elements vary; -1, every bit, for no elements."""
    return int(np.bitwise_and.reduce(elems)) ^ int(np.bitwise_or.reduce(elems))


@lru_cache(maxsize=4096)
def _mask_coords(mask: int, n_bits: int) -> tuple[int, ...]:
    """The coordinates of range(n_bits) set in mask, ascending."""
    return tuple(c for c in range(n_bits) if mask >> c & 1)


def validate_subcube_like(tree: ProtocolTree, gamma) -> int:
    """Exact density check at every node; returns the node count.

    Each side must be gamma-dense on its free coordinates, the ones where
    its elements vary.  Siblings and descendants share the side that does
    not speak, so each distinct (bit count, elements) is checked once:
    density depends on nothing else.  One walk collects the distinct
    sides, one _free_masks pass finds their free coordinates, and they
    are checked in the order the walk met them.
    """
    by_id, count = {}, 0
    for node in tree.nodes():
        # a side object seen before needs no hashing: the tree keeps it
        # alive, so its id is not reused during the walk
        rect = node.rect
        by_id.setdefault((rect.n_bits_a, id(rect.X)), rect.X)
        by_id.setdefault((rect.n_bits_b, id(rect.Y)), rect.Y)
        count += 1
    sides = {}
    for (n_bits, _), elems in by_id.items():
        sides.setdefault((n_bits, np.asarray(elems, dtype=np.int64).tobytes()), elems)
    masks = iter(_free_masks([elems for elems in sides.values() if len(elems)]).tolist())
    for (n_bits, _), elems in sides.items():
        # Rect.free reads an empty side as varying on every coordinate (the
        # AND/OR identities), and is_dense raises EmptySet on it
        coords = _mask_coords(next(masks) if len(elems) else -1, n_bits)
        if not is_dense(elems, gamma, coords):
            raise AssertionError("node rectangle is not subcube-like")
    return count


def _pair_arrays(pairs) -> tuple[np.ndarray, np.ndarray]:
    xy = np.array(list(pairs), dtype=np.int64).reshape(-1, 2)
    return xy[:, 0], xy[:, 1]


def outputs_agree(tree_a: ProtocolTree, tree_b: ProtocolTree, pairs) -> bool:
    """Whether both trees output the same label on every (x, y) in pairs."""
    xs, ys = _pair_arrays(pairs)
    return _route_labels(tree_a, xs, ys) == _route_labels(tree_b, xs, ys)


def trees_agree(tree_a: ProtocolTree, tree_b: ProtocolTree) -> bool:
    """Whether both trees output the same label on every input pair, read
    once per pair of leaves that some rectangle of pairs reaches.  Trees
    over different bit counts raise ValueError."""
    return all(a.label == b.label for (a, b), _, _ in _reaching_rects(tree_a, tree_b))


# -- cleanup ----------------------------------------------------------------------


def _holds(valid, label, values: np.ndarray) -> np.ndarray:
    """valid(label, values) as a bool array shaped like values; a scalar
    result holds for every value."""
    return np.broadcast_to(np.asarray(valid(label, values), dtype=bool), values.shape)


def measure_error(tree: ProtocolTree, valid_a, valid_b) -> Fraction:
    """Exact probability over uniform inputs that the output is not valid.

    Validity must factor through the two sides: a label is correct for
    (x, y) iff valid_a(label, x) and valid_b(label, y).  Each predicate
    maps an int64 array of one side's inputs to a bool array (or one bool
    for all) and runs once per leaf side.  BOT labels count as invalid.
    """
    total = (1 << tree.n_bits_a) * (1 << tree.n_bits_b)
    bad = 0
    for leaf, _, _ in tree.leaves():
        rect = leaf.rect
        size = len(rect.X) * len(rect.Y)
        if leaf.label is BOT:
            bad += size
            continue
        ok_a = int(np.count_nonzero(_holds(valid_a, leaf.label, rect.X)))
        ok_b = int(np.count_nonzero(_holds(valid_b, leaf.label, rect.Y)))
        bad += size - ok_a * ok_b
    return Fraction(bad, total)


def cleanup(tree: ProtocolTree, epsilon, valid_a, valid_b) -> ProtocolTree:
    """Zero-error version of the tree.

    Aborts to BOT whenever the rectangle codimension exceeds cost/epsilon,
    and appends a verification round at every surviving leaf: the solution
    owner's counterpart checks the label against her own input (one bit
    each way), so an incorrect non-BOT label can never be emitted.  Each
    check calls its array predicate (as in measure_error) once, on all of
    the owner's elements.
    """
    cost = tree.cost()
    threshold = math.inf if epsilon <= 0 else cost / epsilon

    def verify(rect, owner, valid, label, inner):
        """Owner sends whether label is valid for their input: "0" ends in
        BOT, "1" goes on to inner(the narrowed rectangle)."""
        elems = rect.elems_of(owner)[0]
        ok = _holds(valid, label, elems)
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


def bottom_probability(tree: ProtocolTree) -> Fraction:
    """Exact probability over uniform inputs that the output is BOT."""
    total = (1 << tree.n_bits_a) * (1 << tree.n_bits_b)
    mass = 0
    for leaf, _, _ in tree.leaves():
        if leaf.label is BOT:
            mass += len(leaf.rect.X) * len(leaf.rect.Y)
    return Fraction(mass, total)


def check_input_pairs(n_bits_a: int, n_bits_b: int) -> None:
    """Raise BudgetExceeded when the 2^(n_bits_a + n_bits_b) input pairs
    of an exhaustive check exceed DEFAULT_ENUM_BUDGET."""
    pairs = 1 << (n_bits_a + n_bits_b)
    if pairs > DEFAULT_ENUM_BUDGET:
        raise BudgetExceeded(f"{pairs} input pairs exceed budget {DEFAULT_ENUM_BUDGET}")


def never_wrong(tree: ProtocolTree, valid_a, valid_b) -> bool:
    """Exact check that every non-BOT output is valid, on every input pair.
    Validity factors through the sides (as in measure_error), so a leaf
    never errs iff valid_a holds on all of X and valid_b on all of Y, where
    X x Y reaches it; each predicate runs at most once per such side."""
    return all(
        _holds(valid_a, leaf.label, X).all() and _holds(valid_b, leaf.label, Y).all()
        for (leaf,), X, Y in _reaching_rects(tree)
        if leaf.label is not BOT
    )


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


def _fixed_table_cells(rect: Rect, split: Split) -> np.ndarray:
    """The (n, |Sigma|) bool mask of the table cells whose bit the
    rectangle fixes: each side's coordinates other than its free ones."""
    fixed = [((1 << n_bits) - 1) & ~_varies(elems) for elems, n_bits in map(rect.elems_of, OWNERS)]
    return split.tables(*fixed).astype(bool)


def dangerous_codewords(spec, fixed: np.ndarray) -> frozenset:
    """Codeword indexes with >= DANGER_THRESHOLD * n of their oracle bits
    fixed, given the (n, |Sigma|) mask of fixed table cells
    (`_fixed_table_cells`)."""
    ranks = codes_mod.codeword_rank_matrix(spec)
    counts = fixed[np.arange(spec.n), ranks].sum(axis=1)
    return frozenset(np.nonzero(counts >= math.ceil(DANGER_THRESHOLD * spec.n))[0].tolist())


def danger_track(
    tree: ProtocolTree,
    spec,
    insts: list[OracleInstance],
) -> dict:
    """Run the tree on every instance at once and track dangerous codewords.

    Returns per-run ledgers (monotonicity asserted), the cross-check
    against list_recover_count at every reached node, and the aggregate
    frequency with which a codeword that ever became dangerous ends up a
    solution of the instance.  Each reached node's dangerous set is
    computed once, however many runs pass through it.
    """
    split = Split(spec.n, spec.sigma_size)
    # uint8 table bits, shaped (0, n, |Sigma|) too when there are no instances
    tables = np.array([inst.tables for inst in insts], np.uint8).reshape(-1, spec.n, spec.sigma_size)
    ledgers = [DangerLedger([], "", None, []) for _ in insts]
    for msg, node, idx in _route(tree, *_pair_arrays(map(split.inputs, tables))):
        fixed = _fixed_table_cells(node.rect, split)
        q = dangerous_codewords(spec, fixed)
        _recount_check(spec, fixed, len(q))
        label = node.label if isinstance(node, Leaf) else None  # the leaf comes last
        for k in idx.tolist():
            ledgers[k].rounds.append(q)
            ledgers[k].transcript += msg
            ledgers[k].output = label
    sols = solution_mask(tables, codes_mod.codeword_rank_matrix(spec))
    for ledger, ok in zip(ledgers, sols):
        ledger.solution_flags = [bool(ok[j]) for j in sorted(ledger.rounds[-1])]
        ledger.assert_monotone()
    danger_events = sum(len(ledger.rounds[-1]) for ledger in ledgers)
    danger_solutions = sum(sum(ledger.solution_flags) for ledger in ledgers)
    return {
        "ledgers": ledgers,
        "danger_events": danger_events,
        "danger_solutions": danger_solutions,
        "danger_to_solution_rate": danger_solutions / danger_events if danger_events else 0.0,
    }


def _recount_check(spec, fixed: np.ndarray, expected: int) -> None:
    cells = [np.flatnonzero(row).tolist() for row in fixed]
    count = codes_mod.list_recover_count(spec, cells, DANGER_THRESHOLD)
    if count != expected:
        raise AssertionError(
            f"list_recover_count disagrees with the danger recount: {count} != {expected}"
        )
