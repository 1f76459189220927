"""Property tests for the exact density checks (skipped without hypothesis)."""

from fractions import Fraction
from functools import reduce
from itertools import combinations
from operator import or_

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from nullcode import density  # noqa: E402
from test_density import SUBCUBE_GAMMAS, _violation_by_definition, subcube  # noqa: E402


def make_set(kind, seed, f, extra):
    """(X, coords) of one kind, on f coordinates among f + extra bits."""
    rng = np.random.default_rng(seed)
    nbits = f + extra
    coords = tuple(int(c) for c in rng.choice(nbits, size=f, replace=False))
    if kind == "random":
        size = int(rng.integers(1, (1 << nbits) + 1))
        return rng.choice(1 << nbits, size=size, replace=False), coords
    if kind == "dense":  # most of the cube, which counting can certify dense
        keep = rng.random(1 << nbits) < rng.uniform(0.75, 1)
        keep[0] = True
        return rng.permutation(np.flatnonzero(keep)), coords
    if kind in PARITY_KINDS:
        return parity_set(kind, rng, coords, nbits)
    if kind in AFFINE_KINDS:
        return affine_set(kind, rng, coords, nbits)
    X = subcube(rng, coords, nbits, outside=kind == "outside")
    if kind == "duplicate":  # |X| stays a power of two when X[0] replaces X[-1]
        X = np.append(X[:-1], X[0]) if len(X) > 1 else np.append(X, X)
    return rng.permutation(X), coords


# A parity half, ascending, and its near misses: one element swapped for
# its pair flip, a parity over three coordinates, a bit varying outside
# coords, a coordinate constant inside coords (its bit moved outside, so the
# elements stay distinct), and the half descending or with a repeated element.
PARITY_KINDS = ("parity", "pair_flip", "three", "outside_bit", "constant", "descending", "repeated")


def parity_set(kind, rng, coords, nbits):
    """(X, coords): the parity half x_c1 xor x_c2 = b of a random cube on
    coords (the other bits below nbits constant), or one of its near
    misses; with probability 1/2 coords[0] is moved to the sign bit."""
    c1, c2, *rest = (int(c) for c in rng.permutation(coords))
    base = int(rng.integers(0, 1 << nbits)) & ~sum(1 << c for c in coords)
    cube = base | np.bitwise_or.reduce(
        [(np.arange(1 << len(coords)) >> j & 1) << c for j, c in enumerate(coords)]
    )
    parity = (cube >> c1 ^ cube >> c2) & 1
    if kind == "three" and rest:
        parity ^= cube >> rest[0] & 1
    X = cube[parity == rng.integers(2)]
    if kind == "pair_flip":
        X[rng.integers(len(X))] ^= 1 << c1
    elif kind == "outside_bit":  # bit nbits is outside coords
        X ^= rng.integers(0, 2, len(X)) << nbits
    elif kind == "constant":
        c0 = rest[0] if rest else c1
        X = X & ~(1 << c0) | (X >> c0 & 1) << nbits
    if rng.integers(2):  # coords[0] swapped with bit 63, which is 0 in every element
        c = coords[0]
        X = X & ~(1 << c) | (X >> c & 1) << 63
        coords = tuple(sorted(coords[1:] + (63,)))
    X = np.sort(X)
    if kind == "descending":
        X = X[::-1]
    elif kind == "repeated":
        X = np.sort(np.append(X[:-1], X[0]))
    return np.ascontiguousarray(X), coords


# An affine set with disjoint blocks, ascending, and its near misses: one
# bit of one element flipped, the elements permuted, a bit varying outside
# coords, and a coordinate at the sign bit.
AFFINE_KINDS = ("affine", "affine_flip", "affine_permuted", "affine_outside", "affine_sign")


def affine_set(kind, rng, coords, nbits):
    """(X, coords): a random point plus the span of disjoint blocks of 1 to
    4 of coords, the rest of coords and the other bits below nbits
    constant, ascending, or one of its near misses."""
    varying = [int(c) for c in rng.permutation(coords) if rng.integers(4)]
    blocks = []
    while varying:
        size = int(rng.integers(1, 5))
        blocks.append(sum(1 << c for c in varying[:size]))
        varying = varying[size:]
    choice = np.arange(1 << len(blocks))[:, None] >> np.arange(len(blocks)) & 1
    X = np.sort(int(rng.integers(0, 1 << nbits)) ^ (choice * np.array(blocks, dtype=np.int64)).sum(axis=1))
    if kind == "affine_flip":
        X[rng.integers(len(X))] ^= 1 << int(rng.choice(coords))
    elif kind == "affine_permuted":
        X = rng.permutation(X)
    elif kind == "affine_outside":  # bit nbits is outside coords
        X ^= rng.integers(0, 2, len(X)) << nbits
    elif kind == "affine_sign":  # coords[0] moved to bit 63, ascending as uint64
        c = coords[0]
        X = np.sort((X & ~(1 << c) | (X >> c & 1) << 63).view(np.uint64)).view(np.int64)
        coords = coords[1:] + (63,)
    return X, coords


def affine_by_definition(X, coords):
    """(x0, V, wide) as density._affine_blocks answers it, from the
    definition: X's patterns on coords must be distinct, and their xors
    with the least one x0 a linear space L.  Coordinates on which every
    vector of L agrees form classes, and L has disjoint blocks iff it is
    the span of their 2^(classes) sums; wide lists the classes of two or
    more coordinates.  None for any other X."""
    cmask = sum(1 << c for c in coords)
    patterns = sorted({x & cmask for x in X.view(np.uint64).tolist()})
    if len(patterns) < len(X):
        return None
    L = {p ^ patterns[0] for p in patterns}
    if any(u ^ v not in L for u in L for v in L):
        return None
    V, classes = reduce(or_, L), {}
    for c in coords:
        if V >> c & 1:
            key = tuple(sorted(u for u in L if u >> c & 1))
            classes[key] = classes.get(key, 0) | 1 << c
    if len(L) != 1 << len(classes):
        return None
    return patterns[0], V, sorted(B for B in classes.values() if B & (B - 1))


def affine_subcube(X, coords):
    """density._affine_blocks read as subcube_by_sort answers: (K, bits)
    for a set with one-bit blocks only, None otherwise."""
    found = density._affine_blocks(X, sum(1 << c for c in coords))
    if found is None or found[2]:
        return None
    x0, V, _ = found
    K = tuple(c for c in coords if not V >> c & 1)
    return K, tuple(x0 >> c & 1 for c in K)


def parity_by_definition(X, coords):
    """(c1, c2, b) when X is strictly ascending and, as a set, the parity
    half x_c1 xor x_c2 = b of the cube on coords through X[0]; None
    otherwise.  The reference for the parity halves that
    density._affine_blocks finds."""
    if len(X) < 2 or not (X[1:] > X[:-1]).all():
        return None
    elems = set(X.view(np.uint64).tolist())
    base = int(X.view(np.uint64)[0]) & ~sum(1 << c for c in coords)
    cube = [base | sum((p >> j & 1) << c for j, c in enumerate(coords)) for p in range(1 << len(coords))]
    for c1, c2 in combinations(coords, 2):
        for b in (0, 1):
            if elems == {x for x in cube if (x >> c1 ^ x >> c2) & 1 == b}:
                return c1, c2, b
    return None


PARITY_GAMMAS = (0, Fraction(1, 2), Fraction(501, 1000), 0.8, Fraction(999, 1000), 1, Fraction(3, 2))


@hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)
@hypothesis.given(
    kind=st.sampled_from(PARITY_KINDS),
    seed=st.integers(0, 2**32 - 1),
    f=st.sampled_from(range(2, 9)),  # more even than integers(2, 8), which favours f = 2
    extra=st.integers(0, 2),
    gamma=st.sampled_from(PARITY_GAMMAS),
)
def test_parity_halves_and_near_misses_equal_the_definition(kind, seed, f, extra, gamma):
    X, coords = make_set(kind, seed, f, extra)
    assert 2 * len(X) == 1 << f  # every case reaches the closed form's gate
    pair = parity_by_definition(X, tuple(sorted(coords)))
    cmask = sum(1 << c for c in coords)
    found = density._affine_blocks(X, cmask)
    assert found == affine_by_definition(X, coords)
    if pair is not None:  # the whole cube on coords, one block: the pair
        c1, c2, _ = pair
        assert found[1:] == (cmask, [1 << c1 | 1 << c2])
    if kind == "parity":
        assert pair is not None
    want = _violation_by_definition(X, gamma, coords)
    assert density.find_violation(X, gamma, coords) == want
    assert density.is_dense(X, gamma, coords) == (want is None)
    parts = density.density_restoring_partition(X, gamma, coords)
    density.validate_partition(X, parts, gamma, coords)
    first = (parts[0].fixed_coords, parts[0].fixed_bits)
    assert first == (want or ((), ()))


@hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)
@hypothesis.given(
    kind=st.sampled_from(["subcube", "duplicate", "outside", "random", "dense"]),
    seed=st.integers(0, 2**32 - 1),
    f=st.integers(1, 6),
    extra=st.integers(0, 2),
    gamma=st.sampled_from(SUBCUBE_GAMMAS),
)
def test_find_violation_equals_the_definition(kind, seed, f, extra, gamma):
    X, coords = make_set(kind, seed, f, extra)
    want = _violation_by_definition(X, gamma, coords)
    assert density.find_violation(X, gamma, coords) == want
    assert density.is_dense(X, gamma, coords) == (want is None)
    parts = density.density_restoring_partition(X, gamma, coords)
    density.validate_partition(X, parts, gamma, coords)


AFFINE_GAMMAS = (
    0,
    Fraction(1, 5),
    Fraction(1, 3),
    Fraction(2, 5),
    Fraction(1, 2),
    Fraction(501, 1000),
    0.8,
    Fraction(999, 1000),
    1,
    Fraction(3, 2),
)


@hypothesis.settings(max_examples=400, deadline=None, derandomize=True, database=None)
@hypothesis.given(
    kind=st.sampled_from(AFFINE_KINDS),
    seed=st.integers(0, 2**32 - 1),
    f=st.sampled_from(range(1, 9)),
    extra=st.integers(0, 2),
    gamma=st.sampled_from(AFFINE_GAMMAS),
)
def test_affine_sets_and_near_misses_equal_the_definition(kind, seed, f, extra, gamma):
    X, coords = make_set(kind, seed, f, extra)
    found = density._affine_blocks(X, sum(1 << c for c in coords))
    assert found == affine_by_definition(X, coords)
    if kind != "affine_flip":
        assert found is not None
    want = _violation_by_definition(X, gamma, coords)
    assert density.find_violation(X, gamma, coords) == want
    assert density.is_dense(X, gamma, coords) == (want is None)
    parts = density.density_restoring_partition(X, gamma, coords)
    density.validate_partition(X, parts, gamma, coords)
    assert (parts[0].fixed_coords, parts[0].fixed_bits) == (want or ((), ()))


def subcube_by_sort(X, coords):
    """The subcube closed form with every pattern sorted, no shortcut: the
    reference for density._affine_blocks on sets with one-bit blocks."""
    bits = np.asarray(X, dtype=np.int64).view(np.uint64)
    low = int(np.bitwise_and.reduce(bits))
    V = (low ^ int(np.bitwise_or.reduce(bits))) & sum(1 << c for c in coords)
    if len(bits) != 1 << V.bit_count() or len(np.unique(bits & np.uint64(V))) < len(bits):
        return None
    K = tuple(c for c in coords if not V >> c & 1)
    return K, tuple(low >> c & 1 for c in K)


def certificate_case(kind, seed, f, extra, order, sign):
    """(X, coords): a set of make_set's kind, or a subcube short of one
    element ("short"), ascending, as drawn or descending, and with
    coords[0] moved to the sign bit when sign is set."""
    X, coords = make_set("subcube" if kind == "short" else kind, seed, f, extra)
    if kind == "short" and len(X) > 1:  # a size that is not a power of two
        X = X[1:]
    if sign:  # bit b moved to bit position[b], coords[0] to the sign bit
        position = np.random.default_rng(seed).choice(63, size=f + extra, replace=False)
        position[coords[0]] = 63
        X = np.bitwise_or.reduce([((X >> b) & 1) << int(p) for b, p in enumerate(position)])
        coords = tuple(sorted(int(position[c]) for c in coords))
    X = np.asarray(X, dtype=np.int64)
    X = {"ascending": np.sort(X), "drawn": X, "descending": np.sort(X)[::-1]}[order]
    return np.ascontiguousarray(X), coords


def assert_subcube_cases(cases, gamma):
    """Each case's subcube decision: _affine_blocks finds X a subcube
    exactly when sorting its patterns does, and then its density-restoring
    partition at gamma < 1 keeps it whole as one part.  When X's elements
    are distinct and vary only on coords, it is a subcube exactly when it
    has 2^|V| elements, V the bits where it varies: the size certificate
    that proto.subcube_like_transform reads."""
    found = []
    for X, coords in cases:
        fixed = subcube_by_sort(X, coords)
        assert affine_subcube(X, coords) == fixed
        bits = X.view(np.uint64)
        varies = int(np.bitwise_and.reduce(bits)) ^ int(np.bitwise_or.reduce(bits))
        if len(np.unique(bits)) == len(X) and varies & ~sum(1 << c for c in coords) == 0:
            assert (fixed is not None) == (len(X) == 1 << varies.bit_count())
        if fixed is not None and gamma < 1:
            parts = density.density_restoring_partition(X, gamma, coords)
            assert len(parts) == 1 and np.array_equal(parts[0].elems, X)
        found.append(fixed is not None)
    return found


CERTIFICATE_GAMMAS = (0, Fraction(1, 2), 0.8, 1)


@hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)
@hypothesis.given(
    sets=st.lists(
        st.tuples(
            st.sampled_from(["subcube", "short", "duplicate", "outside", "random", "dense"]),
            st.integers(0, 2**32 - 1),
            st.integers(1, 6),
            st.integers(0, 2),
            st.sampled_from(["ascending", "drawn", "descending"]),
            st.booleans(),
        ),
        min_size=1,
        max_size=6,
    ),
    gamma=st.sampled_from(CERTIFICATE_GAMMAS),
)
def test_subcubes_by_closed_form_sort_and_size_agree(sets, gamma):
    assert_subcube_cases([certificate_case(*args) for args in sets], gamma)


def test_subcube_closed_form_decides_each_kind_of_set():
    low = -(1 << 63)
    cases = [
        (np.arange(8), (0, 1, 2), True),  # the whole cube
        (np.array([4, 5, 6, 7]), (0, 1, 2), True),  # coordinate 2 fixed at 1
        (np.array([5, 4, 6, 7]), (0, 1, 2), True),  # not ascending, still a subcube
        (np.array([4, 4, 6, 7]), (0, 1, 2), False),  # a repeated element
        (np.array([0, 1, 2]), (0, 1, 2), False),  # a size that is not a power of two
        (np.array([0, 1, 2, 3]), (0,), False),  # bit 1 varies outside coords: tied patterns
        (np.array([1, 9]), (0, 1, 2), False),  # distinct, but tied patterns on coords
        # coordinate 63, with negative elements: free, and then fixed at 1
        (np.array([low, low + 1, 0, 1]), (0, 63), True),
        (np.array([low, low + 1]), (0, 63), True),
        (np.array([low + 1, low, 1, 0]), (0, 63), True),  # descending
    ]
    for gamma in CERTIFICATE_GAMMAS:
        got = assert_subcube_cases([(np.asarray(X, dtype=np.int64), c) for X, c, _ in cases], gamma)
        assert got == [want for _, _, want in cases]
    assert affine_subcube(np.array([low, low + 1]), (0, 63)) == ((63,), (1,))


def part_list(parts):
    """Each part's elements as bytes, in order, with its pattern."""
    return [(p.elems.tobytes(), p.fixed_coords, p.fixed_bits) for p in parts]


@hypothesis.settings(max_examples=500, deadline=None, derandomize=True, database=None)
@hypothesis.given(
    kind=st.sampled_from(AFFINE_KINDS + PARITY_KINDS + ("subcube", "duplicate", "outside")),
    seed=st.integers(0, 2**32 - 1),
    f=st.sampled_from(range(2, 9)),
    extra=st.integers(0, 2),
    gamma=st.sampled_from(AFFINE_GAMMAS),
)
def test_partition_closed_form_equals_the_peel_loop(kind, seed, f, extra, gamma):
    # with _affine_peel answering None, every pattern comes from the count
    # table and the greedy peels one part at a time
    X, coords = make_set(kind, seed, f, extra)
    got = density.density_restoring_partition(X, gamma, coords)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(density, "_affine_peel", lambda *args: None)
        want = density.density_restoring_partition(X, gamma, coords)
    assert part_list(got) == part_list(want)
    density.validate_partition(X, got, gamma, coords)
