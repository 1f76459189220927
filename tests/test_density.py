
import re
import threading
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from nullcode import density, proto
from nullcode.density import (
    Part,
    density_cut,
    density_restoring_partition,
    expected_codimension,
    find_violation,
    is_dense,
    min_entropy,
    subcube_counts,
    validate_partition,
)
from nullcode.errors import BudgetExceeded, EmptySet
from test_qsim import child_peak


def test_min_entropy_uniform_cube():
    X = np.arange(8)
    assert min_entropy(X, (0, 1)) == 2.0
    assert min_entropy(X, (0, 1, 2)) == 3.0
    assert min_entropy(X, ()) == 0.0
    # counted over the |X| patterns present, with no 2^40 count array
    assert min_entropy(X, range(40)) == 3.0


def test_min_entropy_requires_nonempty():
    with pytest.raises(EmptySet):
        min_entropy(np.array([], dtype=np.int64), (0,))


def test_subcube_conditionals_are_dense():
    X = np.arange(8)
    sub = X[(X & 1) == 0]  # fix coordinate 0
    assert is_dense(sub, 1.0, (1, 2))
    assert not is_dense(sub, 0.5, (0, 1, 2))  # coordinate 0 is constant


def test_three_point_set_not_dense():
    # strings x1x2 in {00, 01, 10}: Pr[x1 = 0] = 2/3 > 2^-0.9
    X = np.array([0, 2, 1])
    assert not is_dense(X, 0.9, (0, 1))
    assert is_dense(X, 0.5, (0, 1))


def test_density_cut_exact_ties():
    # 16 * 2^(-0.8*5) = 1 exactly: a count of 1 must NOT violate
    assert density_cut(16, 0.8, 5) == 1
    assert density_cut(16, 0.8, 4) == 1  # floor(16 * 2^-3.2) = floor(1.74)
    assert density_cut(1024, 0.5, 2) == 512
    # 2^(gamma s) above size: 0, without building 2^(gamma s) as an integer
    assert density_cut(2, 1e300, 1) == density_cut(2, Fraction(10**9), 1) == 0


def test_exact_tie_is_dense():
    # |X| = 2, gamma = 1, one coordinate: counts 1 = 2 * 2^-1 exactly
    X = np.array([0, 1])
    assert is_dense(X, 1.0, (0,))


def test_find_violation_subcube_returns_fixed_coord():
    X = np.arange(8)
    sub = X[(X & 1) == 0]
    I, bits = find_violation(sub, 0.8, (0, 1, 2))
    assert I == (0,) and bits == (0,)


def test_partition_subcube_single_part():
    X = np.arange(16)
    sub = X[((X >> 1) & 1) == 1]  # fix coordinate 1 to 1
    parts = density_restoring_partition(sub, 0.8, (0, 1, 2, 3))
    assert len(parts) == 1
    assert parts[0].fixed_coords == (1,) and parts[0].fixed_bits == (1,)
    validate_partition(sub, parts, 0.8, (0, 1, 2, 3))


def test_partition_already_dense():
    X = np.arange(16)
    parts = density_restoring_partition(X, 0.8, (0, 1, 2, 3))
    assert len(parts) == 1 and parts[0].fixed_coords == ()


def test_partition_three_point_example():
    X = np.array([0, 2, 1])
    parts = density_restoring_partition(X, 0.9, (0, 1))
    validate_partition(X, parts, 0.9, (0, 1))
    assert sorted(parts[0].elems.tolist()) == [0, 2]
    assert parts[0].fixed_coords == (0,)


def test_partition_random_sets_small():
    rng = np.random.default_rng(5)
    for _ in range(25):
        size = int(rng.integers(1, 257))
        X = rng.choice(256, size=size, replace=False)
        parts = density_restoring_partition(X, 0.8, tuple(range(8)))
        validate_partition(X, parts, 0.8, tuple(range(8)))


def test_partition_structured_sets():
    rng = np.random.default_rng(9)
    coords = tuple(range(12))
    for _ in range(5):
        # union of two random subcubes plus noise
        elems = set()
        for _ in range(2):
            fixed = rng.choice(12, size=4, replace=False)
            vals = rng.integers(0, 2, size=4)
            base = 0
            for c, v in zip(fixed, vals):
                base |= int(v) << int(c)
            mask = 0
            for c in fixed:
                mask |= 1 << int(c)
            free = [c for c in range(12) if not (mask >> c) & 1]
            for _ in range(120):
                x = base
                for c in free:
                    x |= int(rng.integers(2)) << c
                elems.add(x)
        elems |= {int(v) for v in rng.choice(4096, size=60, replace=False)}
        X = np.array(sorted(elems), dtype=np.int64)
        parts = density_restoring_partition(X, 0.8, coords)
        validate_partition(X, parts, 0.8, coords)


def test_expected_codimension_versus_entropy_gap():
    rng = np.random.default_rng(3)
    coords = tuple(range(10))
    gaps = []
    for _ in range(10):
        mask = rng.integers(0, 2, size=1024).astype(bool)
        if not mask.any():
            mask[0] = True
        X = np.nonzero(mask)[0].astype(np.int64)
        parts = density_restoring_partition(X, 0.8, coords)
        validate_partition(X, parts, 0.8, coords)
        gap = expected_codimension(parts) - (10 - min_entropy(X, coords))
        gaps.append(gap)
    # the gap is a small constant, reported rather than asserted tightly
    assert max(abs(g) for g in gaps) < 12


def _violation_by_definition(X, gamma, coords):
    """Every I subseteq coords, one bincount each: the largest exact ratio
    count * 2^(gamma |I|) among violating patterns, ties to larger |I|, then
    the lexicographically first I, then the smallest pattern."""
    g = Fraction(repr(gamma)) if isinstance(gamma, float) else Fraction(gamma)
    num, den = g.numerator, g.denominator
    coords = tuple(sorted(coords))
    best = None  # (count, |I|, I, pattern)
    for s in range(len(coords), 0, -1):
        for I in combinations(coords, s):
            counts = np.bincount(density._project(X, I), minlength=1 << s)
            a = int(counts.argmax())
            c = int(counts[a])
            if c**den << (num * s) <= len(X) ** den:
                continue  # count <= |X| 2^(-gamma s): no violation
            if best is None or c**den << (num * s) > best[0] ** den << (num * best[1]):
                best = (c, s, I, a)
    if best is None:
        return None
    _, s, I, a = best
    return I, tuple((a >> (s - 1 - j)) & 1 for j in range(s))


def test_varying_outside_coords_is_not_dense():
    # bit 2 is 0 in all 4 elements, and 4 > 4 * 2^-1
    X = np.array([0, 1, 2, 3])
    assert not is_dense(X, 1.0, (2,))
    assert find_violation(X, 1.0, (2,)) == ((2,), (0,))


def test_find_violation_matches_definition_on_random_sets():
    rng = np.random.default_rng(11)
    gammas = (0.3, 0.5, 0.8, 1.0, Fraction(2, 3))
    for trial in range(300):
        f = int(rng.integers(1, 8))
        nbits = f + int(rng.integers(0, 3))  # bits outside coords may vary
        coords = tuple(int(c) for c in rng.choice(nbits, size=f, replace=False))
        size = int(rng.integers(1, min(1 << nbits, 64) + 1))
        X = rng.choice(1 << nbits, size=size, replace=False).astype(np.int64)
        if trial % 4 == 0:  # a constant coordinate inside coords
            X = np.unique(X | (1 << coords[0]))
        gamma = gammas[trial % len(gammas)]
        want = _violation_by_definition(X, gamma, coords)
        assert find_violation(X, gamma, coords) == want
        assert is_dense(X, gamma, coords) == (want is None)


def test_huge_gamma_acts_as_the_bit_length_of_the_set():
    # with 2^gamma > |X| the ratio-maximal width is f and the cut is 0, so
    # every gamma >= L = bit_length(|X|) gives what gamma = L gives
    rng = np.random.default_rng(23)
    for trial in range(60):
        f = int(rng.integers(1, 11))
        coords = tuple(range(f))
        size = int(rng.integers(1, (1 << f) + 1))
        X = rng.choice(1 << f, size=size, replace=False).astype(np.int64)
        L = size.bit_length()
        want = _violation_by_definition(X, L, coords)
        for gamma in (1e300, Fraction(10**400, 3), 2 * L + 0.5):
            assert find_violation(X, gamma, coords) == want
        parts = density_restoring_partition(X, 1e300, coords)
        base = density_restoring_partition(X, L, coords)
        assert [(p.elems.tolist(), p.fixed_coords, p.fixed_bits) for p in parts] == [
            (p.elems.tolist(), p.fixed_coords, p.fixed_bits) for p in base
        ]


def test_subcube_counts_match_direct_counts():
    rng = np.random.default_rng(2)
    X = rng.choice(1 << 6, size=23, replace=False).astype(np.int64)
    coords = (1, 3, 4, 5)
    counts = subcube_counts(X, coords)
    assert len(counts) == 3 ** len(coords)
    for t, got in enumerate(counts):
        # ternary digits of t, first coordinate most significant; 2 is free
        digits = [t // 3 ** (len(coords) - 1 - j) % 3 for j in range(len(coords))]
        hit = np.ones(len(X), dtype=bool)
        for c, d in zip(coords, digits):
            if d != 2:
                hit &= ((X >> c) & 1) == d
        assert got == hit.sum()


def test_subcube_counts_over_budget(monkeypatch):
    # 3^17 cells are over the 2^26 budget: the gate raises before the set
    # is projected or any count is allocated
    def no_projection(*args):
        raise AssertionError("the set was projected")

    monkeypatch.setattr(density, "_project", no_projection)
    coords = tuple(range(17))
    message = "3\\^17 = 129140163 subcube counts exceed budget 67108864"
    with pytest.raises(BudgetExceeded, match=message):
        subcube_counts(np.arange(16), coords)
    with pytest.raises(BudgetExceeded):
        is_dense(np.arange(16), 0.5, coords)


# The largest count table the budget admits, 3^16 cells, for 2^16 distinct
# elements (every count needs a uint32).  Element 1 moves to bit 16, so two
# elements share pattern 0: the set is no subcube and is counted.
DENSITY_F16_RUN = """
import numpy as np
from nullcode import density

X = np.arange(1 << 16)
X[1] = 1 << 16
assert density._affine_blocks(X, (1 << 16) - 1) is None
assert density.find_violation(X, 0.5, range(16)) is None
"""


def test_density_at_f_16_runs_in_a_child_under_512_mb():
    peak_mb, elapsed = child_peak(DENSITY_F16_RUN)
    assert peak_mb < 512, f"peak RSS {peak_mb:.0f} MB"
    assert elapsed < 20, f"{elapsed:.1f} s"


def _embed(patterns, coords, nbits, rng):
    """Bit j of each pattern at coords[j]; every other bit below nbits random."""
    X = rng.integers(0, 1 << nbits, size=len(patterns))
    for j, c in enumerate(coords):
        X = (X & ~(1 << c)) | (((patterns >> j) & 1) << c)
    return X


def _subcube(space, bits, values):
    """The elements of space with bit j equal to v for each (j, v)."""
    return space[np.all([((space >> j) & 1) == v for j, v in zip(bits, values)], axis=0)]


def _wide_cases():
    """Seeded sets on f = 8..12 coordinates, some with bits varying outside
    coords: random sets, two subcubes with tied top patterns, sets closed
    under swapping two coordinates, constant coordinates, and
    sets where narrower patterns hold the top count of the ratio-maximal
    width (x_p = x_q = 0 on 2/3 of X, and x_e = 0 on as many)."""
    gammas = (0.8, 0.5, 1.0, Fraction(2, 3), 0.3)
    for f in range(8, 13):
        for kind in range(6):
            rng = np.random.default_rng([f, kind])
            nbits = f + kind % 3
            coords = tuple(int(c) for c in rng.choice(nbits, size=f, replace=False))
            gamma = gammas[(f + kind) % len(gammas)]
            space = np.arange(1 << f)
            if kind == 0:
                size = int(rng.integers(1, min(1 << nbits, 1500)))
                yield rng.choice(1 << nbits, size=size, replace=False), gamma, coords
                continue
            if kind in (1, 2):
                # two full subcubes whose top patterns tie: on disjoint
                # coordinate sets (kind 1) or on one set, two bits apart (2)
                gamma = 0.8
                J, K = rng.permutation(f)[:6].reshape(2, 3)
                a, b = rng.integers(0, 2, size=(2, 3))
                if kind == 2:
                    K, b = J, a ^ np.array([1, 1, 0])
                B = np.union1d(_subcube(space, J, a), _subcube(space, K, b))
            elif kind == 3:
                B = space[rng.random(1 << f) < 0.1]
                j, k = (int(v) for v in rng.choice(f, size=2, replace=False))
                swapped = B & ~((1 << j) | (1 << k))
                swapped |= (((B >> j) & 1) << k) | (((B >> k) & 1) << j)
                B = np.union1d(B, swapped)
            elif kind == 4:
                B = space[rng.random(1 << f) < 0.2]
                for j in rng.choice(f, size=1 + f % 2, replace=False):
                    B = np.unique(B | (1 << int(j)))
            else:
                gamma = 0.8
                # with sorted coords (even f), x_e = 0 is the lexicographically
                # first pattern holding the top count of width 2
                e, p, q = 0, f - 2, f - 1
                coords = tuple(sorted(coords)) if f % 2 == 0 else coords
                H = _subcube(space, (p, q), (0, 0))
                B = np.union1d(H, _subcube(space, (e, p, q), (0, 1, 1)))
            yield _embed(B, coords, nbits, rng), gamma, coords


def _cell_widths(cells, f):
    return (cells[:, None] // 3 ** np.arange(f - 1, -1, -1) % 3 != 2).sum(axis=1)


def test_find_violation_matches_definition_on_wide_sets():
    tied = narrower = wide = 0
    for X, gamma, coords in _wide_cases():
        want = _violation_by_definition(X, gamma, coords)
        assert find_violation(X, gamma, coords) == want
        assert is_dense(X, gamma, coords) == (want is None)
        if want is None:
            continue
        I, bits = want
        top = int(np.all([((X >> c) & 1) == b for c, b in zip(I, bits)], axis=0).sum())
        widths = _cell_widths(np.flatnonzero(subcube_counts(X, coords) == top), len(coords))
        tied += int((widths == len(I)).sum() > 1)
        narrower += int((widths < len(I)).any())
        wide += len(coords) >= 10
    # the cases reach the tie-breaks the differential check is for
    assert tied >= 10 and narrower >= 10 and wide >= 10


@pytest.mark.parametrize("f", range(1, 13))
def test_width_maxima_blocks_match_width_order(f):
    # the maxima over the cells of each width, widths read digit by digit
    rng = np.random.default_rng(f)
    widths = _cell_widths(np.arange(3**f), f)
    for dtype, high in ((np.uint8, 1 << 8), (np.uint16, 1 << 16), (np.int64, 1 << 40)):
        table = rng.integers(0, high, size=3**f).astype(dtype)
        want = [int(table[widths == w].max()) for w in range(f + 1)]
        assert density._width_maxima(table, f).tolist() == want


def _subcube_counts_int64(X, coords):
    """Yates's algorithm in int64, one concatenation per pass."""
    f = len(coords)
    counts = np.bincount(density._project(X, tuple(sorted(coords))), minlength=1 << f)
    for _ in range(f):
        pair = counts.reshape(-1, 2)
        counts = np.concatenate([pair[:, 0], pair[:, 1], pair.sum(axis=1)])
    return counts


@pytest.mark.parametrize("f", [6, 10])
@pytest.mark.parametrize("size", [255, 256, 65535, 65536])
def test_subcube_counts_at_dtype_edges(size, f):
    rng = np.random.default_rng([size, f])
    X = rng.choice(1 << 17, size=size, replace=False)
    coords = tuple(sorted(int(c) for c in rng.choice(17, size=f, replace=False)))
    table = density._count_table(density._histogram(X, coords), len(X))
    assert table.dtype == np.min_scalar_type(size)
    counts = subcube_counts(X, coords)
    assert counts.dtype == np.int64
    assert counts[-1] == size  # every coordinate free
    assert np.array_equal(counts, _subcube_counts_int64(X, coords))


def test_workspace_keeps_no_pass_above_the_reuse_limit(monkeypatch):
    monkeypatch.setattr(density, "_REUSED_CELLS", 3**9)
    rng = np.random.default_rng(5)
    X = rng.choice(1 << 13, size=3000, replace=False)
    coords = tuple(range(1, 12))
    kept = []

    def count():  # a new thread starts with an empty workspace
        counts = subcube_counts(X, coords)
        kept.append((counts, [b.nbytes for b in density._WORKSPACE.buffers]))

    worker = threading.Thread(target=count)
    worker.start()
    worker.join()
    (counts, nbytes), = kept
    assert np.array_equal(counts, _subcube_counts_int64(X, coords))
    assert 0 < max(nbytes) <= 3**9 * 2  # uint16 cells


def _project_bitwise(X, coords):
    """`_project` one coordinate at a time."""
    s = len(coords)
    out = np.zeros(len(X), dtype=np.int64)
    for j, c in enumerate(coords):
        out |= ((X >> c) & 1) << (s - 1 - j)
    return out


def test_project_matches_bitwise_loop():
    rng = np.random.default_rng(21)
    X = rng.integers(-(1 << 63), 1 << 63, size=300, dtype=np.int64)
    cases = [
        (),
        (0,),
        (7, 8),  # the last bit of one byte and the first of the next
        (0, 1, 2, 3, 4, 5, 6, 7, 8, 9),
        (3, 9, 17, 30, 41),
        (56, 57, 60, 62, 63),  # the top byte, sign bit included
        (5, 2, 9),
        (63, 0, 40, 12),
    ]
    cases += [tuple(int(c) for c in rng.choice(64, size=k, replace=False)) for k in range(1, 17)]
    cases += [tuple(sorted(c)) for c in cases[-16:]]
    for coords in cases:
        coords = tuple(sorted(coords))
        assert np.array_equal(density._project(X, coords), _project_bitwise(X, coords)), coords
    assert density._project(np.zeros(0, dtype=np.int64), (1, 2)).shape == (0,)


def _count_table_transposed(X, coords):
    """The count table with one transposed Yates pass per coordinate."""
    f = len(coords)
    counts = np.bincount(_project_bitwise(X, sorted(coords)), minlength=1 << f)
    counts = counts.astype(np.min_scalar_type(len(X)))
    for _ in range(f):
        pair = counts.reshape(-1, 2)
        out = np.empty((3, len(pair)), dtype=counts.dtype)
        out[:2] = pair.T
        np.add(pair[:, 0], pair[:, 1], out=out[2])
        counts = out.reshape(-1)
    return counts


@pytest.mark.parametrize("size", [255, 256, 65535, 65536])
def test_count_table_matches_transposed_passes(size):
    rng = np.random.default_rng(size)
    X = rng.choice(1 << 17, size=size, replace=False)
    for f in range(1, 13):
        coords = tuple(sorted(int(c) for c in rng.choice(17, size=f, replace=False)))
        got = density._count_table(density._histogram(X, coords), len(X))
        want = _count_table_transposed(X, coords)
        assert got.dtype == want.dtype == np.min_scalar_type(size)
        assert np.array_equal(got, want), f


def _tied_narrow_cases():
    """Seeded sets on f = 8 and 9 coordinates built from full subcubes of
    one codimension, so several patterns hold the top count of a width, and
    random sets of up to 512 elements."""
    gammas = (0.8, 0.5, Fraction(2, 3), 1.0, 0.3)
    for f in (8, 9):
        space = np.arange(1 << f)
        for trial in range(15):
            rng = np.random.default_rng([f, trial, 10])
            nbits = f + trial % 3
            coords = tuple(int(c) for c in rng.choice(nbits, size=f, replace=False))
            gamma = gammas[trial % len(gammas)]
            if trial % 5 == 4:
                size = int(rng.integers(1, min(1 << nbits, 512) + 1))
                yield rng.choice(1 << nbits, size=size, replace=False), gamma, coords
                continue
            codim = 2 + trial % 3
            cubes = [
                _subcube(space, rng.choice(f, size=codim, replace=False), rng.integers(0, 2, codim))
                for _ in range(2 + trial % 3)
            ]
            yield _embed(np.unique(np.concatenate(cubes)), coords, nbits, rng), gamma, coords


def test_find_violation_matches_definition_on_narrow_ties():
    tied = 0
    for X, gamma, coords in _tied_narrow_cases():
        assert len(coords) < 10
        want = _violation_by_definition(X, gamma, coords)
        assert find_violation(X, gamma, coords) == want
        if want is None:
            continue
        I, bits = want
        top = int(np.all([((X >> c) & 1) == b for c, b in zip(I, bits)], axis=0).sum())
        widths = _cell_widths(np.flatnonzero(subcube_counts(X, coords) == top), len(coords))
        tied += int((widths == len(I)).sum() > 1)
    assert tied >= 10  # the cases reach the tie-break


def _density_cut_search(size, gamma, s):
    """floor(size * 2^(-gamma s)) by an uncached binary search."""
    g = Fraction(repr(gamma)) if isinstance(gamma, float) else Fraction(gamma)
    lo, hi = 0, size
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if mid**g.denominator << (g.numerator * s) <= size**g.denominator:
            lo = mid
        else:
            hi = mid - 1
    return lo


def test_density_cut_matches_uncached_search():
    # a float is read exactly as the decimal its repr prints, so 0.001 is
    # 1/1000 although the float and the Fraction differ (and hash apart)
    pairs = [(0.001, Fraction(1, 1000)), (0.5, Fraction(1, 2)), (0.8, Fraction(4, 5))]
    args = [(size, s) for size in (1, 7, 64, 1000, 10**6) for s in (0, 1, 5, 10)]
    for float_gamma, frac_gamma in pairs:
        for first, second in ((float_gamma, frac_gamma), (frac_gamma, float_gamma)):
            density._cut.cache_clear()
            for gamma in (first, second, first):
                for size, s in args:
                    assert density_cut(size, gamma, s) == _density_cut_search(size, gamma, s)
    assert 0.001 != Fraction(1, 1000)
    # a Fraction is taken as given: 801/1000 cuts at 3, where 4/5 cuts at 4
    assert density_cut(1024, Fraction(801, 1000), 10) == 3
    assert density_cut(1024, Fraction(4, 5), 10) == 4


@pytest.mark.parametrize("gamma", [1 / 1024, 0.8001, 0.0001, 2 / 3, 5e-324])
def test_float_gamma_with_a_denominator_above_the_cap_raises(gamma):
    # 0.8001 once read as 4/5 and 0.0001 as 0
    message = re.escape(f"gamma {gamma!r} has a reduced denominator above 1000")
    with pytest.raises(ValueError, match=message):
        density_cut(1024, gamma, 10)
    for X in (np.arange(8), np.array([0, 2, 1])):  # a subcube and another set
        with pytest.raises(ValueError, match=message):
            find_violation(X, gamma, (0, 1, 2))


def _partition_by_coordinate_peel(X, gamma, coords):
    """The partition greedy selecting each peeled part one coordinate at a
    time."""
    residual, parts = np.asarray(X, dtype=np.int64), []
    while residual.size:
        viol = find_violation(residual, gamma, coords)
        if viol is None:
            parts.append((residual.tolist(), (), ()))
            break
        I, bits = viol
        hit = np.all([((residual >> c) & 1) == b for c, b in zip(I, bits)], axis=0)
        parts.append((residual[hit].tolist(), I, bits))
        residual = residual[~hit]
    return parts


@pytest.mark.parametrize(
    "coords", [tuple(range(8)), (50, 55, 58, 61, 62), (0, 57, 62, 63), (2, 31, 32, 40, 63)]
)
def test_peel_matches_coordinate_peel(coords):
    rng = np.random.default_rng(len(coords))
    X = np.unique(rng.integers(-(1 << 63), 1 << 63, size=250, dtype=np.int64))
    for gamma in (0.8, 0.3):
        parts = density_restoring_partition(X, gamma, coords)
        got = [(p.elems.tolist(), p.fixed_coords, p.fixed_bits) for p in parts]
        assert got == _partition_by_coordinate_peel(X, gamma, coords)


@pytest.mark.parametrize(
    "call",
    [
        lambda coords: find_violation(np.arange(8), 0.5, coords),
        lambda coords: subcube_counts(np.arange(8), coords),
        lambda coords: density_restoring_partition(np.arange(8), 0.5, coords),
        lambda coords: min_entropy(np.arange(8), coords),
        lambda coords: validate_partition(np.arange(8), [], 0.5, coords),
    ],
    ids=[
        "find_violation",
        "subcube_counts",
        "density_restoring_partition",
        "min_entropy",
        "validate_partition",
    ],
)
def test_bad_coordinates_raise_value_error(call):
    with pytest.raises(ValueError, match="coordinate -1 is outside"):
        call((-1, 0))
    with pytest.raises(ValueError, match="coordinate 64 is outside"):
        call((0, 64))
    with pytest.raises(ValueError, match="coordinate 1 is given twice"):
        call((1, 0, 1))


def _fixed_by_loop(elems, coords, bits):
    """The per-coordinate test of declared bits that `validate_partition`
    made before its single mask test."""
    elems = np.asarray(elems, dtype=np.int64)
    return all(np.all(((elems >> c) & 1) == b) for c, b in zip(coords, bits))


@pytest.mark.parametrize("dtype", [np.int64, np.int32, np.int16])
def test_validate_partition_checks_fixed_bits_like_the_coordinate_loop(dtype):
    # parts of negative elements, in the caller's dtype, split on their
    # patterns over coordinates that include the sign bit 63; half the
    # trials flip one declared bit of one part
    rng = np.random.default_rng(np.dtype(dtype).itemsize)
    info = np.iinfo(dtype)
    X = np.unique(rng.integers(info.min, info.max, size=120, dtype=dtype, endpoint=True))
    wide = X.astype(np.int64)
    rejected = 0
    for trial in range(60):
        size = int(rng.integers(1, 4))
        coords = tuple(sorted(int(c) for c in rng.choice([0, 5, 14, 30, 62, 63], size, False)))
        pattern = sum(((wide >> c) & 1) << j for j, c in enumerate(coords))
        parts = []
        for p in np.unique(pattern):
            hit = pattern == p
            parts.append(Part(X[hit], coords, tuple(int(wide[hit][0] >> c & 1) for c in coords)))
        if trial % 2:
            k, j = int(rng.integers(len(parts))), int(rng.integers(size))
            bits = list(parts[k].fixed_bits)
            bits[j] ^= 1
            parts[k] = Part(parts[k].elems, coords, tuple(bits))
        fixed = all(_fixed_by_loop(p.elems, p.fixed_coords, p.fixed_bits) for p in parts)
        if fixed:
            validate_partition(X, parts, 0.5, coords)
        else:
            rejected += 1
            with pytest.raises(AssertionError, match="part is not fixed on its coordinates"):
                validate_partition(X, parts, 0.5, coords)
    assert rejected == 30
    assert (X < 0).any()


# every entry point reads gamma through one checked reader
GAMMA_READERS = {
    "density_cut": lambda gamma: density_cut(1024, gamma, 10),
    "find_violation": lambda gamma: find_violation(np.array([0, 2, 1]), gamma, (0, 1, 2)),
    "is_dense": lambda gamma: is_dense(np.arange(8), gamma, (0, 1, 2)),
    "subcube_like_transform": lambda gamma: proto.subcube_like_transform(
        proto.random_onebit_tree(np.random.default_rng(0), 4, 4, 3, labels=[0, 1]), gamma
    ),
}


@pytest.mark.parametrize(
    "gamma, message",
    [
        # the cap once held for floats only: 1/1001 took a 1001st-power search
        (Fraction(1, 1001), "gamma 1/1001 has a reduced denominator above 1000"),
        ("1/1001", "gamma 1/1001 has a reduced denominator above 1000"),
        (np.float64(0.0004), "gamma 0.0004 has a reduced denominator above 1000"),
        # density_cut and the transform once raised 'negative shift count'
        (-0.5, "gamma -0.5 is negative"),
        (np.float64(-0.5), "gamma -0.5 is negative"),
        (Fraction(-1, 3), "gamma -1/3 is negative"),
    ],
    ids=repr,
)
@pytest.mark.parametrize("reader", list(GAMMA_READERS))
def test_every_gamma_reader_checks_the_sign_and_the_cap(reader, gamma, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        GAMMA_READERS[reader](gamma)


def test_numpy_gamma_is_read_as_its_value():
    # under numpy 2 the repr of np.float64(0.8) is not a decimal
    assert density_cut(1024, np.float64(0.8), 10) == density_cut(1024, Fraction(4, 5), 10) == 4
    # and a numpy integer as its int: np.int64(70) once overflowed a C long
    assert density_cut(10**30, np.int64(70), 1) == density_cut(10**30, 70, 1) == 847032947
    rng = np.random.default_rng(5)
    for _ in range(20):
        X = rng.choice(64, size=int(rng.integers(1, 40)), replace=False)
        want = find_violation(X, Fraction(4, 5), range(6))
        assert find_violation(X, np.float64(0.8), range(6)) == want
        assert find_violation(X, np.float32(0.5), range(6)) == find_violation(X, 0.5, range(6))


def test_negative_gamma_raises_value_error():
    for X in (np.arange(8), np.array([0, 2, 1])):  # a subcube and another set
        with pytest.raises(ValueError, match="gamma -0.5 is negative"):
            find_violation(X, -0.5, (0, 1, 2))
        with pytest.raises(ValueError, match="gamma -1/3 is negative"):
            density_restoring_partition(X, Fraction(-1, 3), (0, 1))


SUBCUBE_GAMMAS = (0, Fraction(1, 3), 0.8, 1, Fraction(3, 2), 5)


def subcube(rng, coords, nbits, outside=False):
    """A random subcube on coords: a random subset of coords varies over
    every pattern once, and the rest of coords is constant.  Bits below
    nbits outside coords are constant too, or with outside=True random."""
    V = [c for c in coords if rng.integers(2)]
    X = np.full(1 << len(V), int(rng.integers(0, 1 << nbits)), dtype=np.int64)
    for c in V:
        X &= ~(1 << c)
    for j, c in enumerate(V):
        X |= ((np.arange(len(X)) >> j) & 1) << c
    if outside:
        rest = sum(1 << c for c in range(nbits) if c not in coords)
        X = (X & ~rest) | (rng.integers(0, 1 << nbits, size=len(X)) & rest)
    return X


def _outcome(call, *args):
    try:
        return call(*args)
    except (BudgetExceeded, EmptySet, ValueError) as e:
        return type(e), str(e)


def test_subcube_certificate_matches_the_count_table(monkeypatch):
    rng = np.random.default_rng(24)
    cases = [(np.zeros(0, dtype=np.int64), (0, 1)), (np.arange(16), tuple(range(17)))]
    for trial in range(200):
        f = int(rng.integers(1, 8))
        nbits = f + trial % 3
        coords = tuple(int(c) for c in rng.choice(nbits, size=f, replace=False))
        X = subcube(rng, coords, nbits, outside=trial % 3 == 2)
        if trial % 4 == 1 and len(X) > 1:  # one element repeated in place of another
            X[int(rng.integers(1, len(X)))] = X[0]
        if trial % 5 == 4:  # bit b moved to bit position[b], coords[0] to the sign bit
            position = rng.choice(63, size=nbits, replace=False)
            position[coords[0]] = 63
            X = np.bitwise_or.reduce([((X >> b) & 1) << p for b, p in enumerate(position)])
            coords = tuple(int(position[c]) for c in coords)
        cases.append((rng.permutation(X), coords))
    gammas = SUBCUBE_GAMMAS + (-0.5,)
    blocks, answered = density._affine_blocks, []  # (coordinate mask, answer)

    def recorded(arr, cmask):
        answered.append((cmask, blocks(arr, cmask)))
        return answered[-1][1]

    monkeypatch.setattr(density, "_affine_blocks", recorded)
    got = [_outcome(find_violation, X, g, coords) for X, coords in cases for g in gammas]
    monkeypatch.setattr(density, "_affine_blocks", lambda *a: None)
    want = [_outcome(find_violation, X, g, coords) for X, coords in cases for g in gammas]
    assert got == want
    # subcubes (one-bit blocks only) with and without constant coordinates,
    # other sets, and every exception
    subcubes = [cmask & ~a[1] for cmask, a in answered if a is not None and not a[2]]
    assert sum(constant > 0 for constant in subcubes) >= 300
    assert sum(constant == 0 for constant in subcubes) >= 20
    assert sum(a is None for _, a in answered) >= 100
    assert {w[0] for w in want if type(w) is tuple and type(w[0]) is type} == {
        BudgetExceeded,
        EmptySet,
        ValueError,
    }



def parity_half(coords, c1, c2, b, base=0):
    """The parity half x_c1 xor x_c2 = b of the cube on coords through
    base, as ascending int64 elements."""
    cube = [base | sum((p >> j & 1) << c for j, c in enumerate(coords)) for p in range(1 << len(coords))]
    half = [x for x in cube if (x >> c1 ^ x >> c2) & 1 == b]
    return np.sort(np.array(half, dtype=np.uint64).view(np.int64))


PARITY_HAND_GAMMAS = (0, Fraction(1, 2), Fraction(501, 1000), 0.8, Fraction(999, 1000), 1, Fraction(3, 2))

# (coords, c1, c2, b, base): the pair adjacent or apart, at bits 0 and 63,
# and with some or every element negative
PARITY_HAND_CASES = [
    ((0, 1), 0, 1, 0, 0),  # {0b00, 0b11}
    ((0, 1), 0, 1, 1, 1 << 5),  # {0b01, 0b10}, with bit 5 constant outside coords
    ((0, 1, 2), 1, 2, 1, 0),
    ((0, 3, 7, 9), 0, 9, 0, 0),
    ((0, 5, 63), 0, 63, 1, 0),  # half the elements negative
    ((4, 62, 63), 62, 63, 0, 1 << 10),
    ((1, 2, 3), 2, 3, 1, 1 << 63),  # every element negative
]


def test_parity_half_closed_form_by_hand():
    for coords, c1, c2, b, base in PARITY_HAND_CASES:
        X = parity_half(coords, c1, c2, b, base)
        cmask = sum(1 << c for c in coords)
        x0 = int(X.view(np.uint64).min()) & cmask
        assert density._affine_blocks(X, cmask) == (x0, cmask, [1 << c1 | 1 << c2])
        for gamma in PARITY_HAND_GAMMAS:
            got = find_violation(X, gamma, coords)
            assert got == _violation_by_definition(X, gamma, coords)
            parts = density_restoring_partition(X, gamma, coords)
            validate_partition(X, parts, gamma, coords)
            peeled = [(p.fixed_coords, p.fixed_bits) for p in parts]
            if gamma <= Fraction(1, 2):  # ratio at most |X|: dense, one part
                assert got is None and peeled == [((), ())]
            elif gamma < 1:  # the pair at (0, b), then the rest at (1, 1 - b)
                assert got == ((c1, c2), (0, b))
                assert peeled == [((c1, c2), (0, b)), ((c1, c2), (1, 1 - b))]
            else:  # wider consistent patterns tie (gamma = 1) or win: width f
                assert got is not None and got[0] == coords


CRITERION_9_ALPHAS = (0.3, 0.5, 0.7, 0.9)
COUNTING_GAMMAS = (0, Fraction(1, 5), Fraction(1, 2), Fraction(4, 5), 1, 2)


def _criterion_9_sets(count):
    """Criterion 9's first sets: random 12-bit sets at each alpha in turn."""
    rng = np.random.default_rng(99)
    sets = []
    for trial in range(count):
        mask = rng.random(4096) < CRITERION_9_ALPHAS[trial % 4]
        if not mask.any():
            mask[0] = True
        sets.append(np.nonzero(mask)[0].astype(np.int64))
    return sets


def _counting_cases():
    """Sets on up to 12 coordinates: criterion 9's, random ones at several
    densities, ones with few elements that have some bit on one
    coordinate (or two), so that width 1 or 2 violates while the bound
    clears the wider widths, with repeated elements, with bits outside coords varying, and
    with a coordinate at the sign bit."""
    rng = np.random.default_rng(34)
    cases = [(X, tuple(range(12))) for X in _criterion_9_sets(4)]
    for trial in range(150):
        f = int(rng.integers(1, 13))
        nbits = f + trial % 3
        coords = tuple(int(c) for c in rng.choice(nbits, size=f, replace=False))
        cube = np.arange(1 << nbits)
        keep = rng.random(cube.size) < (0.3, 0.5, 0.7, 0.9, 0.97, 1)[trial % 6]
        if trial % 4 == 1:
            thin = (cube >> coords[0] & 1) == trial % 3 % 2
            if trial % 8 == 5 and f > 1:
                thin &= (cube >> coords[1] & 1) == trial % 5 % 2
            keep &= ~thin | (rng.random(cube.size) < rng.uniform(0.1, 0.7))
        keep[0] = True
        X = cube[keep]
        if trial % 7 == 3:  # repeated elements
            X = np.append(X, X[rng.integers(0, len(X), size=len(X) // 3 + 1)])
        if trial % 5 == 4:  # bit b moved to bit position[b], coords[0] to the sign bit
            position = rng.choice(63, size=nbits, replace=False)
            position[coords[0]] = 63
            X = np.bitwise_or.reduce([((X >> b) & 1) << p for b, p in enumerate(position)])
            coords = tuple(int(position[c]) for c in coords)
        cases.append((rng.permutation(X), coords))
    return cases


def test_counting_certificate_matches_the_count_table(monkeypatch):
    cases = _counting_cases()
    certify, pattern_bits = density._dense_by_counting, density._pattern_bits
    exact, answered = [], []  # _pattern_bits runs only for the exact widths 1 and 2

    def recorded(*args):
        before = len(exact)
        answered.append((certify(*args), len(exact) > before))
        return answered[-1][0]

    monkeypatch.setattr(density, "_pattern_bits", lambda f: exact.append(f) or pattern_bits(f))
    monkeypatch.setattr(density, "_dense_by_counting", recorded)
    got = [_outcome(find_violation, X, g, coords) for X, coords in cases for g in COUNTING_GAMMAS]
    monkeypatch.setattr(density, "_dense_by_counting", lambda *a: False)
    want = [_outcome(find_violation, X, g, coords) for X, coords in cases for g in COUNTING_GAMMAS]
    assert got == want
    # dense by the bound alone, dense after counting widths 1 and 2, a
    # violation at width 1 or 2, and sets left to the table
    assert sum(answer and not counted for answer, counted in answered) >= 50
    assert sum(answer and counted for answer, counted in answered) >= 50
    assert sum(not answer and counted for answer, counted in answered) >= 20
    assert sum(not answer and not counted for answer, counted in answered) >= 100
    assert sum(w is not None and type(w[0]) is tuple for w in want) >= 100


def test_dense_criterion_9_sets_build_no_count_table(monkeypatch):
    count_table, built = density._count_table, []

    def counted(hist, size):
        built.append(size)
        return count_table(hist, size)

    monkeypatch.setattr(density, "_count_table", counted)
    coords = tuple(range(12))
    for trial, X in enumerate(_criterion_9_sets(8)):
        built.clear()
        parts = density_restoring_partition(X, 0.8, coords)
        validate_partition(X, parts, 0.8, coords)
        alpha = CRITERION_9_ALPHAS[trial % 4]
        assert (alpha, len(built) > 0) in {(0.3, True), (0.5, True), (0.7, False), (0.9, False)}
    # exact ties do not violate: the full cube at gamma = 1 meets the bound
    # with equality at every width; at gamma = 1/2 this set meets it at
    # width 2, and its pattern x0 = x1 = 0 holds exactly |X|/2 elements
    built.clear()
    assert is_dense(np.arange(1 << 12), 1, coords) and not built
    tie = np.array([0] * 6 + [4] * 6 + [1, 2, 3, 5, 6, 7] * 2)
    assert is_dense(tie, Fraction(1, 2), (0, 1, 2)) and not built
    assert _violation_by_definition(tie, Fraction(1, 2), (0, 1, 2)) is None


def test_budget_and_value_errors_come_before_the_histogram(monkeypatch):
    def no_histogram(*args):
        raise AssertionError("built a histogram")

    monkeypatch.setattr(density, "_histogram", no_histogram)
    dense = np.arange((1 << 17) - 1)  # not a subcube; dense by counting for gamma < 1
    with pytest.raises(BudgetExceeded):
        find_violation(dense, 0.5, range(17))
    small = np.arange(7)
    with pytest.raises(ValueError, match="gamma -0.5 is negative"):
        find_violation(small, -0.5, range(3))
    with pytest.raises(ValueError, match="above 1000"):
        find_violation(small, 0.0001, range(3))
    with pytest.raises(ValueError, match="coordinate 64 is outside"):
        find_violation(small, 0.5, (0, 64))
    with pytest.raises(EmptySet):
        find_violation(small[:0], 0.5, range(3))
    monkeypatch.undo()
    with pytest.raises(BudgetExceeded):
        find_violation(dense, 0.5, range(17))
    assert density._dense_by_counting(density._histogram(small, (0, 1, 2)), 7, 1, 2)
    assert find_violation(small, 0.5, range(3)) is None
