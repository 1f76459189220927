"""Min-entropy, gamma-density, and density-restoring partitions.

Sets are numpy arrays of distinct bitmask integers over a fixed number of
coordinates, distinct integers j in [0, 64); coordinate j of element x is
bit (x >> j) & 1.  Every public function that takes coordinates reads
them in ascending order and raises ValueError for one outside [0, 64) or
given twice; the private helpers it calls take them as normalised.  All
checks are exact: the density threshold comparison

    count > |X| * 2^(-gamma |I|)

is evaluated in integer arithmetic, so exact ties never violate.  gamma is
read by `gf.exact` (0.8 is 4/5); a negative one, or one of any type whose
reduced denominator is above `MAX_GAMMA_DEN` (the power the comparisons
raise |X| to), raises ValueError at every entry point.  One
subcube count (Yates's algorithm over {0, 1, *}^f) gives the count of
every pattern (I, a) on the f coordinates at once.  For an integer count,
count > floor(|X| 2^(-gamma |I|)) iff the violation ratio
count * 2^(gamma |I|) exceeds |X|, so a single threshold test at the
ratio-maximal width decides density.

The partition greedy peels the *maximally violating* pattern: the (I, a)
maximizing the violation ratio Pr[x_I = a] * 2^(gamma |I|), ties broken by
larger |I|, then lexicographically smaller (I, a).  Maximality makes each
peeled part gamma-dense on its free coordinates by construction: a
violation inside the part would extend the pattern to a strictly larger
ratio.  `validate_partition` re-checks that exactly anyway.

An affine set has the maximal pattern in closed form, with no count
table.  Say X is constant on the part K of coords, and on the rest V,
where it varies, it is x0 plus the span of disjoint blocks B_1 .. B_k
covering V: on each block every element agrees with x0 or is its
complement, and each of the 2^k choices is taken once.  A subcube has
one-bit blocks only; a one-bit round that sends x_c1 xor x_c2 cuts a
subcube into sets with the block {c1, c2}.  A pattern (I, a) consistent
with X holds |X| 2^(-r(I)) elements, r(I) the number of blocks I
touches, and an inconsistent one none, so the consistent one's ratio is
|X| 2^(gamma |I| - r(I)).  A touched block is best taken whole, so for
0 <= gamma < 1 the ratio is largest, with the largest I, at K plus every
block with gamma |B| >= 1 (never a single bit).  Some pattern violates
iff that exponent is positive: for gamma > 0 when K is nonempty or some
block has gamma |B| > 1, and for gamma = 0 never.  The winning a is x0
on I with each taken block flipped where x0 has a 1 at its lowest
coordinate, the lexicographically least consistent pattern.  At
gamma >= 1 these sets take the count table like every other set.
Whether X is such a set needs no sort when X is strictly ascending and
varies on no bit outside coords: it then lists its points in binary
order of the blocks taken by their top bits, so the blocks are
X[2^j] xor X[0] for j < k = log2 |X|.  They must be disjoint and cover
V, and every element must agree with X[0] on each block of two or more
bits or be its complement there; then X lies in the affine set, and its
2^k distinct elements fill it.  When k = |V| every block is one bit and
X is a subcube, which needs no further check.  `_affine_blocks` sorts
the patterns on coords only for other sets.  Distinct elements that
vary only on V are the subcube on V iff there are 2^|V| of them, and
for gamma < 1 its partition is itself as one part: that is how
`proto.subcube_like_transform` certifies a subset, by its size alone.

The same one certificate gives the density-restoring partition of such
a set whenever the greedy takes at most one block.  With none taken, X
is dense (one part fixing nothing) or its pattern fixes only K, which
every element matches (one part fixed on K).  With one block B taken,
the elements that match a on B are the first part.  The rest are
constant on K and B, at a with B flipped, and vary only on blocks that
no pattern takes, so the loop's next peel fixes exactly that pattern
and keeps all of them: the second part.  Both keep X's order.  With two
or more blocks taken the first residual holds three of every four
elements, no longer such a set, so the loop peels on from the pattern
the certificate gave.

Most other large sets are certified dense by counting, with no count
table either.  Let M be the largest count of one full pattern on the f
coordinates (1 for distinct elements).  A pattern of width w spans
2^(f - w) full patterns, so its count is at most M 2^(f - w), and no
pattern of width w violates when (M 2^(f - w))^den 2^(num w) <= |X|^den
(gamma = num/den).  For gamma < 1 that clears every width from
(f - log2(|X|/M)) / (1 - gamma) up.  When it clears every width >= 3, the
counts of widths 1 and 2 come from the 2^f histogram as h B and
B^T diag(h) B, with B the f pattern bits of each histogram cell; if
neither width violates, X is dense.  The certificate only ever answers
"dense", so the maximal pattern and its tie-break always come from the
table.
"""

from __future__ import annotations

import math
import operator
import threading
from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np

from .budget import DEFAULT_CELL_BUDGET
from .errors import BudgetExceeded, EmptySet
from .gf import exact


def _as_array(X) -> np.ndarray:
    arr = np.asarray(X, dtype=np.int64)
    if arr.size == 0:
        raise EmptySet("set must be nonempty")
    return arr


# The largest reduced denominator of gamma: `_cut` raises sizes to this
# power, and a gamma such as 0.123456789 would make it 10^9.
MAX_GAMMA_DEN = 1000


def _ratio(gamma) -> tuple[int, int]:
    """(num, den) of gamma read by `gf.exact`; a negative gamma, or one
    whose reduced denominator is above MAX_GAMMA_DEN, raises ValueError."""
    g = exact(gamma)
    num, den = g.numerator, g.denominator
    if num < 0:
        raise ValueError(f"gamma {gamma} is negative")
    if den > MAX_GAMMA_DEN:
        raise ValueError(f"gamma {gamma} has a reduced denominator above {MAX_GAMMA_DEN}")
    return num, den


def density_cut(size: int, gamma, s: int) -> int:
    """floor(size * 2^(-gamma s)) computed exactly; a pattern of width s
    violates gamma-density iff its count exceeds this."""
    # keyed on the normalised gamma: a float and a Fraction can be equal
    # and still normalise to different fractions
    num, den = _ratio(gamma)
    return _cut(size, num * s, den)


@lru_cache(maxsize=4096)
def _cut(size: int, num: int, den: int) -> int:
    """floor(size * 2^(-num/den)): the largest c with c^den * 2^num <= size^den."""
    if num > den * size.bit_length():  # 2^(num/den) > size: no 2^num to build
        return 0
    lo, hi = 0, size
    target = size**den
    shift = 1 << num
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if mid**den * shift <= target:
            lo = mid
        else:
            hi = mid - 1
    return lo


def _project(X, coords: tuple[int, ...]) -> np.ndarray:
    """Pattern integers for each element, for ascending coords in [0, 64);
    the first coordinate lands in the most-significant bit, so integer
    order equals assignment-string order.  One table lookup per input byte
    that holds a coordinate, from the byte's table shifted into place."""
    if not coords:
        return np.zeros(len(X), dtype=np.int64)
    data = np.ascontiguousarray(X, dtype="<i8").view(np.uint8)
    masks: dict[int, int] = {}  # byte -> its coordinates' bits, bytes ascending
    for c in coords:
        masks[c >> 3] = masks.get(c >> 3, 0) | 1 << (c & 7)
    rest, parts = len(coords), []
    for byte, mask in masks.items():
        rest -= mask.bit_count()
        parts.append((_byte_table(mask) << rest).take(data[byte::8]))
    return reduce(operator.ior, parts)


@lru_cache(maxsize=None)
def _byte_table(mask: int) -> np.ndarray:
    """The bits of every byte value selected by the 8-bit mask, packed with
    the lowest selected bit most significant."""
    byte = np.arange(256, dtype=np.int64)
    table = np.zeros(256, dtype=np.int64)
    for b in range(8):
        if mask >> b & 1:
            table = table << 1 | (byte >> b & 1)
    return table


def min_entropy(X, coords) -> float:
    """Exact min-entropy of the uniform marginal on coords."""
    arr = _as_array(X)
    _, counts = np.unique(_project(arr, _coords(coords)[0]), return_counts=True)
    return math.log2(len(arr) / counts.max())


# The largest Yates pass output, in cells, that reuses the workspace; a
# larger one is allocated per call, so no thread keeps more than two
# buffers of this many cells.  3^12 covers the 12-coordinate tables of the
# partition workload.
_REUSED_CELLS = 3**12


class _Workspace(threading.local):
    """Two byte buffers, reused by the Yates passes of every count table and
    grown to the largest pass output of at most `_REUSED_CELLS` cells
    counted so far in the thread.  The passes alternate between them, so a
    count table of at most that many cells is a view of one.  A fresh
    megabyte-sized array costs page faults on every call, which at f = 12
    took longer than the passes themselves."""

    def __init__(self):
        self.buffers = [np.empty(0, dtype=np.uint8), np.empty(0, dtype=np.uint8)]

    def take(self, k: int, n: int, dtype: np.dtype) -> np.ndarray:
        if n > _REUSED_CELLS:
            return np.empty(n, dtype=dtype)
        nbytes = n * dtype.itemsize
        if self.buffers[k].nbytes < nbytes:
            self.buffers[k] = np.empty(nbytes, dtype=np.uint8)
        return self.buffers[k][:nbytes].view(dtype)


_WORKSPACE = _Workspace()


def _coords(coords) -> tuple[tuple[int, ...], int]:
    """coords as ascending ints and their mask; each must be a distinct
    integer in [0, 64), a bit of the int64 elements.  Each distinct tuple
    is sorted and checked once."""
    return _normalised(tuple(map(operator.index, coords)))


@lru_cache(maxsize=4096)
def _normalised(coords: tuple[int, ...]) -> tuple[tuple[int, ...], int]:
    coords = tuple(sorted(coords))
    if coords and not 0 <= coords[0] <= coords[-1] < 64:
        bad = coords[0] if coords[0] < 0 else coords[-1]
        raise ValueError(f"coordinate {bad} is outside [0, 64)")
    if len(set(coords)) < len(coords):
        bad = next(a for a, b in zip(coords, coords[1:]) if a == b)
        raise ValueError(f"coordinate {bad} is given twice")
    return coords, sum(1 << c for c in coords)


def _pattern(mask: int, value: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(I, a): the coordinates set in mask, ascending, and value's bits on
    them."""
    I = _mask_coords(mask)
    return I, tuple(value >> c & 1 for c in I)


@lru_cache(maxsize=4096)
def _mask_coords(mask: int) -> tuple[int, ...]:
    """The coordinates set in a mask of bits 0 to 63, ascending."""
    return tuple(c for c in range(64) if mask >> c & 1)


def _check_cells(f: int) -> None:
    if 3**f > DEFAULT_CELL_BUDGET:
        raise BudgetExceeded(f"3^{f} = {3**f} subcube counts exceed budget {DEFAULT_CELL_BUDGET}")


def subcube_counts(X, coords) -> np.ndarray:
    """Count of every pattern (I, a) with I subseteq coords, as one array of
    length 3^f (f = len(coords)).  Index t has one ternary digit per sorted
    coordinate, the first coordinate most significant; digit 0 or 1 fixes
    the coordinate to that bit and digit 2 leaves it free."""
    arr, (coords, _) = _as_array(X), _coords(coords)
    _check_cells(len(coords))
    return _count_table(_histogram(arr, coords), len(arr)).astype(np.int64)


def _histogram(arr: np.ndarray, coords: tuple[int, ...]) -> np.ndarray:
    """The count of each of the 2^f full patterns on coords, in `_project`'s
    pattern order."""
    return np.bincount(_project(arr, coords), minlength=1 << len(coords))


def _count_table(hist: np.ndarray, size: int) -> np.ndarray:
    """`subcube_counts` from the histogram of a set of `size` elements, in
    the narrowest unsigned dtype that holds the size, which bounds every
    count.  A table of at least one coordinate and at most `_REUSED_CELLS`
    cells is a view of the thread's workspace, valid until the next call.
    Callers check the cell budget."""
    f = hist.size.bit_length() - 1
    counts = hist.astype(np.min_scalar_type(size))
    # Yates's algorithm: each pass turns a binary digit into a ternary one
    # (bit 0, bit 1, then their sum for a free coordinate).  Every digit
    # stays in place, least significant first, and each pass moves
    # contiguous blocks of the 3^k ternary cells below it.
    block = 1
    for k in range(f):
        pair = counts.reshape(-1, 2, block)
        out = _WORKSPACE.take(k % 2, 3 * pair.size // 2, counts.dtype).reshape(-1, 3, block)
        out[:, :2] = pair
        np.add(pair[:, 0], pair[:, 1], out=out[:, 2])
        counts = out.reshape(-1)
        block *= 3
    return counts


@lru_cache(maxsize=None)
def _width_table(f: int) -> np.ndarray:
    """The width |I| (number of fixed digits) of each of the 3^f cells."""
    width = np.zeros(1, dtype=np.int8)
    for _ in range(f):
        width = (width[:, None] + np.array([1, 1, 0], dtype=np.int8)).reshape(-1)
    return width


def _width_maxima(counts: np.ndarray, f: int) -> np.ndarray:
    """The largest count of each width |I| = 0..f: each pass reduces the
    most significant remaining digit, and row w holds the maxima over the
    digits reduced so far with w of them fixed."""
    by_width = counts.reshape(1, -1)
    for _ in range(f):
        blocks = by_width.reshape(len(by_width), 3, -1)
        out = np.empty((len(by_width) + 1, blocks.shape[2]), dtype=counts.dtype)
        # a fixed digit (0 or 1) moves row w to row w + 1, a free one keeps it
        np.maximum(blocks[:, 0], blocks[:, 1], out=out[1:])
        np.maximum(out[1:-1], blocks[1:, 2], out=out[1:-1])
        out[0] = blocks[0, 2]
        by_width = out
    return by_width[:, 0]


def _winner(counts: np.ndarray, f: int, s: int, count: int) -> int:
    """The tie-break winner among the cells of width s that hold `count`:
    take every cell with the count and drop those of another width,
    reading each cell's width as the sum of its two halves' widths.  For
    equal |I| the lexicographically first I has the largest MSB-first mask
    of fixed digits; for equal I, cell order is pattern order."""
    cells = np.flatnonzero(counts == count)
    low = f // 2
    hi, lo = np.divmod(cells, 3**low)
    tied = cells[_width_table(f - low)[hi] + _width_table(low)[lo] == s]
    fixed = tied[:, None] // 3 ** np.arange(f - 1, -1, -1) % 3 != 2
    mask = fixed @ (1 << np.arange(f - 1, -1, -1))
    return int(tied[np.lexsort((tied, -mask))[0]])


def _matches(arr: np.ndarray, coords, bits) -> np.ndarray:
    """Which elements of the int64 array have the given bits on coords, as
    one mask test on their uint64 view (coordinate 63 included)."""
    mask = sum(1 << c for c in coords)
    value = sum(b << c for c, b in zip(coords, bits))
    return (arr.view(np.uint64) & np.uint64(mask)) == np.uint64(value)


def _affine_blocks(arr: np.ndarray, cmask: int) -> tuple[int, int, list[int]] | None:
    """(x0, V, wide) when X's patterns on the coordinates set in cmask are
    distinct and form an affine set with disjoint blocks (module
    docstring): x0 the least pattern, V the mask of coordinates where
    they vary, and wide the blocks of two or more bits as masks, by
    their top bits; None for any other X.  X needs no sort when its
    uint64 view is strictly ascending and varies on no bit outside cmask;
    other sets have their patterns sorted."""
    P = arr.view(np.uint64)
    V = int(np.bitwise_and.reduce(P)) ^ int(np.bitwise_or.reduce(P))
    if V & ~cmask or not (P[1:] > P[:-1]).all():
        P = np.sort(P & np.uint64(cmask))
        if not (P[1:] > P[:-1]).all():
            return None
        V &= cmask
    x0, k = int(P[0]), len(P).bit_length() - 1
    if k == V.bit_count():
        return x0 & cmask, V, []
    blocks = [int(P[1 << j]) ^ x0 for j in range(k)]
    if sum(blocks) != V or reduce(operator.or_, blocks) != V:
        return None
    wide = [B for B in blocks if B & (B - 1)]
    for B in map(np.uint64, wide):
        on = (P ^ np.uint64(x0)) & B
        if not ((on == 0) | (on == B)).all():
            return None
    return x0 & cmask, V, wide


@lru_cache(maxsize=None)
def _pattern_bits(f: int) -> np.ndarray:
    """B: row p holds the f bits of pattern p, least significant first, as
    float64."""
    return (np.arange(1 << f)[:, None] >> np.arange(f) & 1).astype(np.float64)


def _dense_by_counting(hist: np.ndarray, size: int, num: int, den: int) -> bool:
    """True when the histogram of a set of `size` elements shows it
    (num/den)-dense without a count table (module docstring); False when
    it cannot tell."""
    f = hist.size.bit_length() - 1
    target = size**den
    # (M 2^(f - w))^den 2^(num w) > |X|^den: widths the bound leaves open
    top = int(hist.max()) ** den
    open_widths = [w for w in range(1, f + 1) if top << den * (f - w) + num * w > target]
    if not open_widths:
        return True
    if open_widths[-1] > 2:
        return False
    # exact counts of widths 1 and 2 from both = B^T diag(h) B: both[j, k]
    # counts the elements whose pattern bits j and k are 1.  It is built
    # over the low and high halves of the bits, so no operand has more
    # cells than h; every entry is an integer of at most |X| < 2^53, so
    # the float64 products are exact.
    lo = f // 2
    H = hist.reshape(-1, 1 << lo).astype(np.float64)
    low, high = _pattern_bits(lo), _pattern_bits(f - lo)
    both = np.empty((f, f))
    both[:lo, :lo] = (low.T * H.sum(axis=0)) @ low
    both[lo:, lo:] = (high.T * H.sum(axis=1)) @ high
    both[lo:, :lo] = high.T @ H @ low
    both[:lo, lo:] = both[lo:, :lo].T
    ones = both.diagonal().copy()
    one_zero = ones[:, None] - both  # bit j 1 and bit k 0 (its transpose: k 1, j 0)
    zeros = size - ones - one_zero  # both bits 0
    np.fill_diagonal(both, 0)
    np.fill_diagonal(zeros, 0)
    widest = max(ones.max(), size - ones.min()), max(both.max(), one_zero.max(), zeros.max())
    return all(int(c) ** den << num * w <= target for w, c in zip((1, 2), widest))


def is_dense(X, gamma, coords) -> bool:
    """Exact check: no pattern (I, a) over nonempty I subseteq coords has
    count exceeding |X| * 2^(-gamma |I|)."""
    return find_violation(X, gamma, coords) is None


def find_violation(X, gamma, coords) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    """The maximally violating pattern (I, a), or None when X is
    gamma-dense on coords.

    Maximal means the largest violation ratio count * 2^(gamma |I|); ties
    prefer larger |I|, then lexicographically smaller (I, a).  I is an
    ascending coordinate tuple, a the matching bits.  A coordinate outside
    [0, 64) or given twice, a negative gamma, or a gamma whose reduced
    denominator is above `MAX_GAMMA_DEN`, raises ValueError.
    """
    arr, (coords, cmask) = _as_array(X), _coords(coords)
    num, den = _ratio(gamma)
    if not coords:
        return None
    _check_cells(len(coords))
    if (peel := _affine_peel(arr, cmask, num, den)) is not None:
        return _pattern(*peel[:2]) if peel[0] else None
    return _table_violation(arr, coords, num, den)


def _affine_peel(arr: np.ndarray, cmask: int, num: int, den: int) -> tuple[int, int, list[int]] | None:
    """(mask, a, taken) for an affine set with disjoint blocks at
    0 <= gamma = num/den < 1 and |X| a power of two (module docstring):
    the maximally violating pattern as the mask of I and the bits a on
    it, and the blocks it takes, those with gamma |B| >= 1; (0, 0, [])
    when X is dense, and None for any other set or gamma.  The pattern
    is X's constant coordinates and every taken block, at x0's bits with
    each taken block led by a 0."""
    n = len(arr)
    if num >= den or n & (n - 1) or (affine := _affine_blocks(arr, cmask)) is None:
        return None
    x0, V, wide = affine
    fixed, taken = cmask & ~V, [B for B in wide if num * B.bit_count() >= den]
    if not num or not fixed and all(num * B.bit_count() == den for B in taken):
        return 0, 0, []
    mask = fixed | sum(taken)
    return mask, (x0 ^ sum(B for B in taken if x0 & B & -B)) & mask, taken


def _table_violation(arr: np.ndarray, coords: tuple[int, ...], num: int, den: int):
    """find_violation for a set its closed form does not settle, from the
    histogram on the normalised coords: counting certifies it dense, or
    the count table gives the maximal pattern."""
    # every gamma with 2^gamma > |X| finds what gamma = L finds (the
    # ratio-maximal width is f and the cut is 0), so a larger gamma is
    # clamped to L before it sizes the integer powers below
    n, f = len(arr), len(coords)
    L = n.bit_length()
    if num > den * L:
        num, den = L, 1
    hist = _histogram(arr, coords)
    if _dense_by_counting(hist, n, num, den):
        return None
    counts = _count_table(hist, n)
    top = _width_maxima(counts, f).tolist()
    # the ratio-maximal width: top[w] 2^(gamma w) > top[s] 2^(gamma s) for
    # w < s, with both sides raised to the power den
    power = [c**den for c in top]
    s = f
    for w in range(f - 1, 0, -1):
        if power[w] > power[s] << num * (s - w):
            s = w
    # an integer count exceeds floor(|X| 2^(-gamma s)) iff its ratio exceeds
    # |X|, so some pattern violates iff a ratio-maximal one does
    if top[s] <= _cut(n, num * s, den):
        return None
    cell = _winner(counts, f, s, top[s])
    I, bits = [], []
    for j, c in enumerate(coords):
        digit = cell // 3 ** (f - 1 - j) % 3
        if digit != 2:
            I.append(c)
            bits.append(digit)
    return tuple(I), tuple(bits)


@dataclass(frozen=True)
class Part:
    elems: np.ndarray
    fixed_coords: tuple[int, ...]
    fixed_bits: tuple[int, ...]

    @property
    def codim(self) -> int:
        return len(self.fixed_coords)


def density_restoring_partition(X, gamma, coords) -> list[Part]:
    """Partition X so each part is fixed on its coordinates and gamma-dense
    on the rest of `coords`; parts appear in peel order.  An affine set
    with disjoint blocks whose greedy takes at most one block is settled
    from its one certificate (module docstring)."""
    residual, (coords, cmask) = _as_array(X), _coords(coords)
    num, den = _ratio(gamma)
    if not coords:
        return [Part(residual, (), ())]
    _check_cells(len(coords))
    peel = _affine_peel(residual, cmask, num, den)
    if peel is None:
        viol = _table_violation(residual, coords, num, den)
    elif len(peel[2]) == 1:  # the one taken block's two halves
        mask, a, (B,) = peel
        hit = (residual.view(np.uint64) & np.uint64(B)) == np.uint64(a & B)
        return [Part(residual[hit], *_pattern(mask, a)), Part(residual[~hit], *_pattern(mask, a ^ B))]
    else:  # no block taken keeps X whole; two or more take the loop
        viol = _pattern(*peel[:2]) if peel[0] else None
    parts: list[Part] = []
    while viol is not None:
        I, bits = viol
        hit = _matches(residual, I, bits)
        if hit.all():
            parts.append(Part(residual, I, bits))
            return parts
        parts.append(Part(residual[hit], I, bits))
        residual = residual[~hit]
        viol = find_violation(residual, gamma, coords)
    parts.append(Part(residual, (), ()))
    return parts


def validate_partition(X, parts: list[Part], gamma, coords) -> None:
    """Exact re-check of the partition postconditions; raises on failure."""
    arr, (coords, _) = _as_array(X), _coords(coords)
    seen = np.concatenate([p.elems for p in parts]) if parts else np.array([])
    if not np.array_equal(np.sort(seen), np.sort(arr)):
        raise AssertionError("parts do not partition the input set")
    for p in parts:
        elems = np.asarray(p.elems, dtype=np.int64)
        if p.fixed_coords and not _matches(elems, p.fixed_coords, p.fixed_bits).all():
            raise AssertionError("part is not fixed on its coordinates")
        free = tuple(c for c in coords if c not in p.fixed_coords)
        if not is_dense(elems, gamma, free):
            raise AssertionError("part free coordinates are not dense")


def expected_codimension(parts: list[Part]) -> float:
    total = sum(len(p.elems) for p in parts)
    return sum(len(p.elems) * p.codim for p in parts) / total
