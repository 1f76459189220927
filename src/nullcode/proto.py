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
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import codes as codes_mod
from . import huffman as huffman_mod
from .density import density_restoring_partition, is_dense
from .errors import ParseError
from .instances import OracleInstance, Split


class _Bottom:
    __slots__ = ()

    def __repr__(self):
        return "BOT"


BOT = _Bottom()


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

    def fixed_a(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        if self.I is not None:
            return self.I, self.a_bits
        return _constant_coords(self.X, self.n_bits_a)

    def fixed_b(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        if self.J is not None:
            return self.J, self.b_bits
        return _constant_coords(self.Y, self.n_bits_b)

    @property
    def codim(self) -> int:
        return len(self.fixed_a()[0]) + len(self.fixed_b()[0])

    def is_subcube(self) -> bool:
        ia, _ = self.fixed_a()
        jb, _ = self.fixed_b()
        return len(self.X) == 1 << (self.n_bits_a - len(ia)) and len(
            self.Y
        ) == 1 << (self.n_bits_b - len(jb))

    def free_sides(self) -> tuple[tuple[np.ndarray, tuple[int, ...]], ...]:
        """(X, free coordinates of X) and (Y, free coordinates of Y)."""
        ia, _ = self.fixed_a()
        jb, _ = self.fixed_b()
        return (
            (self.X, tuple(c for c in range(self.n_bits_a) if c not in ia)),
            (self.Y, tuple(c for c in range(self.n_bits_b) if c not in jb)),
        )

    def is_subcube_like(self, gamma) -> bool:
        return all(is_dense(side, gamma, free) for side, free in self.free_sides())


@dataclass
class Leaf:
    label: object
    rect: Rect


@dataclass
class Node:
    owner: str  # "A" or "B"
    rect: Rect
    parts: list  # [(message string, owner-subset array, child node)]
    _lookup: dict = field(default_factory=dict, repr=False)

    def child_for(self, value: int):
        if not self._lookup:
            for msg, subset, child in self.parts:
                for elem in subset.tolist():
                    self._lookup[elem] = (msg, child)
        return self._lookup[value]


@dataclass
class ProtocolTree:
    root: object
    n_bits_a: int
    n_bits_b: int

    def cost(self) -> int:
        """Worst-case transcript bit-length."""

        def walk(node):
            if isinstance(node, Leaf):
                return 0
            return max(len(msg) + walk(child) for msg, _, child in node.parts)

        return walk(self.root)

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


def tree_to_json(tree: ProtocolTree) -> dict:
    """JSON form: node owner, per-part membership lists, leaf labels.

    Labels must be JSON-serializable; BOT maps to null.  Rectangles are
    implied by the partition structure and rebuilt on load.
    """

    def enc(node):
        if isinstance(node, Leaf):
            return {"label": None if node.label is BOT else node.label}
        return {
            "owner": node.owner,
            "parts": [
                {"msg": msg, "set": subset.tolist(), "child": enc(child)}
                for msg, subset, child in node.parts
            ],
        }

    return {
        "n_bits_a": tree.n_bits_a,
        "n_bits_b": tree.n_bits_b,
        "root": enc(tree.root),
    }


def tree_from_json(data: dict) -> ProtocolTree:
    """Inverse of tree_to_json.

    Raises ParseError, naming the node path and the field, when an owner is
    not "A" or "B" or when a node's parts do not partition the owner's
    current set: an element outside [0, 2^n_bits), two parts sharing an
    element, an element outside the set, or an element of the set left
    uncovered.
    """
    na, nb = int(data["n_bits_a"]), int(data["n_bits_b"])

    def dec(node, X, Y, path):
        rect = Rect(X, Y, na, nb)
        if "label" in node:
            label = node["label"]
            return Leaf(BOT if label is None else label, rect)
        owner = node["owner"]
        if owner not in ("A", "B"):
            raise ParseError(path, "owner", f"owner {owner!r} is not 'A' or 'B'")
        side, n_bits = (X, na) if owner == "A" else (Y, nb)
        subsets = [np.array(part["set"], dtype=np.int64) for part in node["parts"]]
        hits = np.zeros(1 << n_bits, dtype=np.int64)
        for i, subset in enumerate(subsets):
            outside = subset[(subset < 0) | (subset >= 1 << n_bits)]
            if outside.size:
                raise ParseError(
                    f"{path}.parts[{i}]", "set",
                    f"element {outside[0]} is outside [0, 2^{n_bits})",
                )
            np.add.at(hits, subset, 1)
        in_side = np.zeros(1 << n_bits, dtype=bool)
        in_side[side] = True
        for bad, problem in (
            (hits > 1, "is in two parts"),
            ((hits > 0) & ~in_side, "is not in the owner's set"),
            ((hits == 0) & in_side, "is in no part"),
        ):
            if bad.any():
                raise ParseError(path, "parts", f"element {np.argmax(bad)} {problem}")
        parts = []
        for i, (part, subset) in enumerate(zip(node["parts"], subsets)):
            child_path = f"{path}.parts[{i}].child"
            if owner == "A":
                child = dec(part["child"], subset, Y, child_path)
            else:
                child = dec(part["child"], X, subset, child_path)
            parts.append((part["msg"], subset, child))
        return Node(owner, rect, parts)

    return ProtocolTree(
        dec(data["root"], full_domain(na), full_domain(nb), "root"), na, nb
    )


def run(tree: ProtocolTree, x: int, y: int) -> tuple[str, object]:
    """Deterministic execution; returns (transcript, output label)."""
    node = tree.root
    transcript = ""
    while isinstance(node, Node):
        value = x if node.owner == "A" else y
        msg, node = node.child_for(value)
        transcript += msg
    return transcript, node.label


def _route_labels(tree: ProtocolTree, xs: np.ndarray, ys: np.ndarray) -> list:
    """Output label of every pair (xs[k], ys[k]), routing all pairs through
    the tree together; equals [run(tree, x, y)[1] ...], and like run raises
    KeyError for a value that lies in no part of a node it reaches."""
    labels = [None] * len(xs)
    stack = [(tree.root, np.arange(len(xs)))]
    while stack:
        node, idx = stack.pop()
        if isinstance(node, Leaf):
            for k in idx.tolist():
                labels[k] = node.label
            continue
        values, n_bits = (xs, tree.n_bits_a) if node.owner == "A" else (ys, tree.n_bits_b)
        values = values[idx]
        bad = values[(values < 0) | (values >= 1 << n_bits)]
        if bad.size:
            raise KeyError(int(bad[0]))
        # a later part wins on overlap, as in Node.child_for
        which = np.full(1 << n_bits, -1, dtype=np.int32)
        for i, (_, subset, _) in enumerate(node.parts):
            which[subset] = i
        which = which[values]
        if (which < 0).any():
            raise KeyError(int(values[np.argmax(which < 0)]))
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
    mask = np.fromiter((fn(int(v)) for v in X), dtype=bool, count=len(X))
    return X[~mask], X[mask]


def random_onebit_tree(
    rng: np.random.Generator,
    n_bits_a: int,
    n_bits_b: int,
    depth: int,
    labels,
    parity_prob: float = 0.25,
) -> ProtocolTree:
    """Random protocol tree sending one bit per round.

    Each internal node queries a coordinate of the owner's input (or, with
    probability parity_prob, the XOR of two coordinates).  Leaf labels are
    drawn from `labels`.
    """

    def pick_label():
        return labels[int(rng.integers(len(labels)))] if len(labels) else BOT

    def build(X, Y, remaining):
        rect = Rect(X, Y, n_bits_a, n_bits_b)
        if remaining == 0:
            return Leaf(pick_label(), rect)
        owner = "A" if rng.random() < 0.5 else "B"
        side = X if owner == "A" else Y
        nb = n_bits_a if owner == "A" else n_bits_b
        fn = None
        for _ in range(10):
            if rng.random() < parity_prob and nb >= 2:
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
        children = []
        for bit, part in ((0, p0), (1, p1)):
            if owner == "A":
                child = build(part, Y, remaining - 1)
            else:
                child = build(X, part, remaining - 1)
            children.append((str(bit), part, child))
        return Node(owner, rect, children)

    root = build(full_domain(n_bits_a), full_domain(n_bits_b), depth)
    return ProtocolTree(root, n_bits_a, n_bits_b)


def reveal_tree(builder_labels, n_bits_a: int, n_bits_b: int) -> ProtocolTree:
    """Baseline protocol: Alice sends all her bits, then Bob sends all of
    his; each leaf holds builder_labels(x, y)."""

    def build(X, Y, coord, owner_side):
        rect = Rect(X, Y, n_bits_a, n_bits_b)
        if owner_side == "A" and coord == n_bits_a:
            return build(X, Y, 0, "B")
        if owner_side == "B" and coord == n_bits_b:
            return Leaf(builder_labels(int(X[0]), int(Y[0])), rect)
        owner = owner_side
        side = X if owner == "A" else Y
        c = coord
        p0 = side[((side >> c) & 1) == 0]
        p1 = side[((side >> c) & 1) == 1]
        children = []
        for bit, part in ((0, p0), (1, p1)):
            if len(part) == 0:
                continue
            if owner == "A":
                child = build(part, Y, coord + 1, owner_side)
            else:
                child = build(X, part, coord + 1, owner_side)
            children.append((str(bit), part, child))
        return Node(owner, rect, children)

    return ProtocolTree(
        build(full_domain(n_bits_a), full_domain(n_bits_b), 0, "A"),
        n_bits_a,
        n_bits_b,
    )


# -- subcube-like transform -------------------------------------------------------


def subcube_like_transform(tree: ProtocolTree, gamma, code_stats: list | None = None) -> ProtocolTree:
    """Rebuild the tree so every node's rectangle is subcube-like.

    Each original one-bit round becomes a message (b, C(i)): the original
    bit plus a Huffman code for the density-restoring part of the sender's
    updated set that contains their input.  Outputs are preserved on every
    input pair.

    When code_stats is a list, one (entropy, expected_length) pair per
    constructed Huffman code is appended to it.
    """

    def build(orig, X, Y, I, a_bits, J, b_bits):
        rect = Rect(
            X, Y, tree.n_bits_a, tree.n_bits_b,
            I=tuple(I), a_bits=tuple(a_bits), J=tuple(J), b_bits=tuple(b_bits),
        )
        if isinstance(orig, Leaf):
            return Leaf(orig.label, rect)
        if len(orig.parts) > 2:
            raise ValueError("transform needs one-bit (binary) rounds")
        owner = orig.owner
        side = X if owner == "A" else Y
        nb = tree.n_bits_a if owner == "A" else tree.n_bits_b
        fixed = I if owner == "A" else J
        free = tuple(c for c in range(nb) if c not in fixed)
        new_parts = []
        for msg, orig_subset, child in orig.parts:
            member = np.zeros(1 << nb, dtype=bool)
            member[orig_subset] = True
            sub = side[member[side]]
            if len(sub) == 0:
                continue
            drp = density_restoring_partition(sub, gamma, free)
            sizes = [len(p.elems) for p in drp]
            code = huffman_mod.huffman(sizes)
            if code_stats is not None:
                code_stats.append(
                    (huffman_mod.entropy(sizes), huffman_mod.expected_length(code, sizes))
                )
            for part, word in zip(drp, code):
                if owner == "A":
                    child_node = build(
                        child, part.elems, Y,
                        I + part.fixed_coords, a_bits + part.fixed_bits,
                        J, b_bits,
                    )
                else:
                    child_node = build(
                        child, X, part.elems,
                        I, a_bits,
                        J + part.fixed_coords, b_bits + part.fixed_bits,
                    )
                new_parts.append((msg + word, part.elems, child_node))
        return Node(owner, rect, new_parts)

    root = build(
        tree.root,
        full_domain(tree.n_bits_a),
        full_domain(tree.n_bits_b),
        (), (), (), (),
    )
    return ProtocolTree(root, tree.n_bits_a, tree.n_bits_b)


def validate_subcube_like(tree: ProtocolTree, gamma) -> int:
    """Exact density check at every node; returns the node count.

    Siblings and descendants share the side that does not speak, so each
    distinct (elements, free coordinates) is checked once: density depends
    on nothing else.
    """
    checked = set()
    count = 0
    for node in tree.nodes():
        for side, free in node.rect.free_sides():
            key = (np.asarray(side, dtype=np.int64).tobytes(), free)
            if key in checked:
                continue
            if not is_dense(side, gamma, free):
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

    def verify_leaf(label, rect):
        if label is BOT:
            return Leaf(BOT, rect)
        yes_b = rect.Y[np.fromiter(
            (valid_b(label, int(y)) for y in rect.Y), dtype=bool, count=len(rect.Y)
        )]
        no_b = rect.Y[np.fromiter(
            (not valid_b(label, int(y)) for y in rect.Y), dtype=bool, count=len(rect.Y)
        )]
        parts_b = []
        if len(no_b):
            parts_b.append(
                ("0", no_b, Leaf(BOT, Rect(rect.X, no_b, rect.n_bits_a, rect.n_bits_b)))
            )
        if len(yes_b):
            inner_rect = Rect(rect.X, yes_b, rect.n_bits_a, rect.n_bits_b)
            yes_a = rect.X[np.fromiter(
                (valid_a(label, int(x)) for x in rect.X), dtype=bool, count=len(rect.X)
            )]
            no_a = rect.X[np.fromiter(
                (not valid_a(label, int(x)) for x in rect.X), dtype=bool, count=len(rect.X)
            )]
            parts_a = []
            if len(no_a):
                parts_a.append(
                    ("0", no_a, Leaf(BOT, Rect(no_a, yes_b, rect.n_bits_a, rect.n_bits_b)))
                )
            if len(yes_a):
                parts_a.append(
                    ("1", yes_a, Leaf(label, Rect(yes_a, yes_b, rect.n_bits_a, rect.n_bits_b)))
                )
            parts_b.append(("1", yes_b, Node("A", inner_rect, parts_a)))
        return Node("B", rect, parts_b)

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
    """Per-round dangerous-codeword sets along one protocol run."""

    rounds: list[frozenset]
    output: object
    solution_flags: list[bool]  # per round-d dangerous codeword: is it a solution?

    def assert_monotone(self) -> None:
        for earlier, later in zip(self.rounds, self.rounds[1:]):
            if not earlier <= later:
                raise AssertionError("dangerous-codeword set shrank")


def _fixed_table_cells(rect: Rect, split: Split) -> list[set]:
    """Per-coordinate sets of symbol ranks whose table bit is fixed."""
    cells = [set() for _ in range(split.n)]
    ia, _ = rect.fixed_a()
    jb, _ = rect.fixed_b()
    for flat in ia:
        i = flat // split.sigma_size
        cells[i].add(flat % split.sigma_size)
    for flat in jb:
        i = flat // split.sigma_size
        cells[split.half + i].add(flat % split.sigma_size)
    return cells


def dangerous_codewords(spec, rect: Rect, split: Split, threshold=DANGER_THRESHOLD) -> frozenset:
    """Codeword indexes with >= threshold * n of their oracle bits fixed."""
    cells = _fixed_table_cells(rect, split)
    ranks = codes_mod.codeword_rank_matrix(spec)
    thr = math.ceil(threshold * spec.n)
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
    threshold=DANGER_THRESHOLD,
) -> dict:
    """Run the tree on each instance and track dangerous codewords.

    Returns per-run ledgers (monotonicity asserted), the cross-check
    against list_recover_count at every visited node, and the aggregate
    frequency with which a codeword that ever became dangerous ends up a
    solution of the instance.
    """
    from .instances import solution_indicator, split_bits

    split = Split(spec.n, spec.sigma_size)
    ledgers = []
    danger_events = 0
    danger_solutions = 0
    for inst in insts:
        xa, xb = split_bits(inst)
        x = _bits_to_int(xa)
        y = _bits_to_int(xb)
        sols = solution_indicator(inst)
        node = tree.root
        rounds = []
        while True:
            q = dangerous_codewords(spec, node.rect, split, threshold)
            _recount_check(spec, node.rect, split, threshold, len(q))
            rounds.append(q)
            if isinstance(node, Leaf):
                break
            value = x if node.owner == "A" else y
            _, node = node.child_for(value)
        flags = [bool(sols[idx]) for idx in sorted(rounds[-1])]
        ledger = DangerLedger(rounds=rounds, output=node.label, solution_flags=flags)
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


def _bits_to_int(bits: np.ndarray) -> int:
    out = 0
    for j, b in enumerate(bits.tolist()):
        out |= int(b) << j
    return out


def _recount_check(spec, rect: Rect, split: Split, threshold, expected: int) -> None:
    cells = _fixed_table_cells(rect, split)
    count = codes_mod.list_recover_count(spec, [frozenset(c) for c in cells], float(threshold))
    if count != expected:
        raise AssertionError(
            f"list_recover_count disagrees with the danger recount: {count} != {expected}"
        )
