"""Linear codes over GF(2^s): generalized Reed-Solomon, folded views,
duals, decoding, and list-recovery counting.

A generalized Reed-Solomon code here always evaluates at the points
gamma^0, ..., gamma^(N-1), i.e. all of F_q^*, so N = q - 1.  Folding
groups m consecutive F_q symbols into one symbol of Sigma = F_q^m.

Codewords are tuples of n symbols; each symbol is a tuple of m field
elements.  Unfolded vectors are numpy int64 arrays of length N.  A symbol's
rank reads its m elements as base-q digits and a word's flat rank reads its
n symbol ranks as base-|Sigma| digits, most significant first; so a word's
flat rank is its unfolded vector read as one base-q number (`to_digits`,
`from_digits`).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache

import numpy as np

from . import linalg
from .budget import DEFAULT_ENUM_BUDGET
from .errors import BudgetExceeded, LengthMismatch, ParseError
from .gf import FieldCtx
from .parallel import parallel_map

Symbol = tuple[int, ...]
Codeword = tuple[Symbol, ...]


@dataclass(frozen=True)
class CodeSpec:
    """A linear code over Sigma = F_q^m.

    kind "grs-folded": degree-k GRS with per-coordinate multipliers v,
    m-folded.  kind "generic-linear": explicit unfolded generator matrix
    (rows are basis codewords over F_q), m-folded.
    """

    kind: str
    field: FieldCtx
    m: int
    k: int | None = None
    gamma: int | None = None
    v: tuple[int, ...] | None = None
    genmat: tuple[tuple[int, ...], ...] | None = None

    def __post_init__(self):
        q = self.field.q
        if self.kind == "grs-folded":
            if self.gamma is None or self.k is None or self.v is None:
                raise ValueError("grs-folded needs gamma, k and v")
            if len(self.v) != q - 1:
                raise LengthMismatch("multiplier vector must have length q-1")
            if any(not 0 < x < q for x in self.v):
                raise ValueError("multipliers must be nonzero field elements")
            if not 0 <= self.k <= q - 2:
                raise ValueError(f"degree k={self.k} outside [0, q-2]")
            if not _generates(self.field, self.gamma):
                raise ValueError(f"gamma={self.gamma} does not generate F_q^*")
            if (q - 1) % self.m:
                raise ValueError("m must divide N = q-1")
        elif self.kind == "generic-linear":
            if not self.genmat or not self.genmat[0]:
                raise ValueError("generic-linear needs a non-empty generator matrix")
            ncols = len(self.genmat[0])
            if any(len(r) != ncols for r in self.genmat):
                raise LengthMismatch("ragged generator matrix")
            if ncols % self.m:
                raise ValueError("m must divide the matrix width")
            gm = np.array(self.genmat, dtype=np.int64)
            if linalg.rank(self.field, gm) != len(self.genmat):
                raise ValueError("generator matrix rows must be independent")
        else:
            raise ValueError(f"unknown code kind {self.kind!r}")

    # -- geometry ------------------------------------------------------------

    @property
    def N(self) -> int:
        if self.kind == "grs-folded":
            return self.field.q - 1
        return len(self.genmat[0])

    @property
    def n(self) -> int:
        return self.N // self.m

    @property
    def dim(self) -> int:
        if self.kind == "grs-folded":
            return self.k + 1
        return len(self.genmat)

    @property
    def size(self) -> int:
        return self.field.q ** self.dim

    @property
    def sigma_size(self) -> int:
        return self.field.q ** self.m

    # -- evaluation points and basis -----------------------------------------

    def points(self) -> np.ndarray:
        """gamma^0, ..., gamma^(N-1); cached per spec and read-only."""
        return _points_cached(self)

    def generator_matrix(self) -> np.ndarray:
        """Unfolded generator matrix (dim x N), GRS row j = v * points^j;
        cached per spec and read-only."""
        return _generator_matrix_cached(self)

    def basis_rref(self) -> np.ndarray:
        return _basis_rref_cached(self)

    # -- symbol <-> rank -------------------------------------------------------

    def symbol_rank(self, sym: Symbol) -> int:
        q = self.field.q
        r = 0
        for d in sym:
            r = r * q + int(d)
        return r

    def rank_symbol(self, rank: int) -> Symbol:
        q = self.field.q
        out = []
        for _ in range(self.m):
            out.append(rank % q)
            rank //= q
        return tuple(reversed(out))

    def word_ranks(self, word: Codeword) -> tuple[int, ...]:
        return tuple(self.symbol_rank(s) for s in word)

    def to_json(self) -> dict:
        data = {"kind": self.kind, "field": self.field.to_json(), "m": self.m}
        if self.kind == "grs-folded":
            data.update({"gamma": self.gamma, "k": self.k, "v": list(self.v)})
        else:
            data["genmat"] = [list(r) for r in self.genmat]
        return data

    @classmethod
    def from_json(cls, data: dict) -> "CodeSpec":
        """Inverse of to_json.

        Raises ParseError, naming the field, for an unknown kind, a field
        without s or modulus, an m, k or gamma that is not an integer, an
        m below 1, a gamma that does not generate F_q^*, a multiplier
        vector v whose length is not q-1, and an empty or ragged genmat.
        """
        kind = data.get("kind")
        if kind not in ("grs-folded", "generic-linear"):
            raise ParseError("code", "kind", f"unknown code kind {kind!r}")
        fdata = data.get("field")
        if not isinstance(fdata, dict) or not {"s", "modulus"} <= fdata.keys():
            raise ParseError("code", "field", "field needs 's' and 'modulus'")
        field = FieldCtx.from_json(fdata)
        m = _json_int(data, "m")
        if m < 1:
            raise ParseError("code", "m", f"folding width m = {m} is not positive")
        if kind == "grs-folded":
            gamma = _json_int(data, "gamma")
            if not _generates(field, gamma):
                raise ParseError("code", "gamma", f"gamma={gamma} does not generate F_q^*")
            v = data.get("v")
            if not isinstance(v, list) or len(v) != field.q - 1:
                raise ParseError(
                    "code", "v", f"multiplier vector must have length {field.q - 1}"
                )
            return cls(
                kind=kind,
                field=field,
                m=m,
                k=_json_int(data, "k"),
                gamma=gamma,
                v=tuple(int(x) for x in v),
            )
        genmat = data.get("genmat")
        if (
            not isinstance(genmat, list)
            or not genmat
            or not all(isinstance(r, list) and r for r in genmat)
            or len({len(r) for r in genmat}) != 1
        ):
            raise ParseError(
                "code", "genmat", "generator matrix must be non-empty equal-length rows"
            )
        return cls(
            kind=kind,
            field=field,
            m=m,
            genmat=tuple(tuple(int(x) for x in r) for r in genmat),
        )


def _generates(field: FieldCtx, gamma: int) -> bool:
    """Whether gamma is a generator of F_q^*."""
    return 0 < gamma < field.q and field.element_order(gamma) == field.q - 1


def _json_int(data: dict, key: str) -> int:
    value = data.get(key)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParseError("code", key, f"{key} must be an integer, got {value!r}")
    return value


def preset(t: int) -> CodeSpec:
    """Folded-RS code on the standard schedule: n = 2^t - 1 symbols over
    Sigma = F_q^m with q = 2^(2t), N = q - 1, m = 2^t + 1, k = floor(0.1 N)."""
    if t < 1:
        raise ValueError("t must be >= 1")
    s = 2 * t
    ctx = FieldCtx(s)
    N = ctx.q - 1
    m = (1 << t) + 1
    k = N // 10
    if k == 0:
        warnings.warn(f"preset t={t} is degenerate (k=0)", stacklevel=2)
    gamma = ctx.generator()
    return CodeSpec(
        kind="grs-folded",
        field=ctx,
        m=m,
        k=k,
        gamma=gamma,
        v=tuple([1] * N),
    )


# -- digits, fold / unfold -----------------------------------------------------


def _place_values(base: int, count: int) -> np.ndarray:
    """base^(count-1), ..., base, 1 as int64; raises BudgetExceeded when
    base**count does not fit in int64."""
    if base**count > np.iinfo(np.int64).max:
        raise BudgetExceeded(f"{count} base-{base} digits overflow int64")
    return base ** np.arange(count - 1, -1, -1, dtype=np.int64)


def to_digits(values, base: int, count: int) -> np.ndarray:
    """The count base-`base` digits of each value, most significant first,
    as an int64 array of shape values.shape + (count,).  Raises
    BudgetExceeded when base**count does not fit in int64."""
    return np.asarray(values, dtype=np.int64)[..., None] // _place_values(base, count) % base


def from_digits(digits, base: int) -> np.ndarray:
    """Inverse of to_digits: the last axis of digits read as one base-`base`
    number, most significant digit first.  Raises BudgetExceeded when
    base**(number of digits) does not fit in int64."""
    digits = np.asarray(digits, dtype=np.int64)
    return digits @ _place_values(base, digits.shape[-1])


def fold(spec: CodeSpec, x) -> Codeword:
    x = list(int(v) for v in x)
    if len(x) != spec.N:
        raise LengthMismatch(f"expected {spec.N} field symbols, got {len(x)}")
    m = spec.m
    return tuple(tuple(x[i * m : (i + 1) * m]) for i in range(spec.n))


def unfold(spec: CodeSpec, z: Codeword) -> np.ndarray:
    if len(z) != spec.n:
        raise LengthMismatch(f"expected {spec.n} symbols, got {len(z)}")
    if any(len(sym) != spec.m for sym in z):
        raise LengthMismatch("symbol width does not match folding")
    return np.array(z, dtype=np.int64).reshape(spec.N)


def hw_unfolded(vec) -> int:
    return int(np.count_nonzero(np.asarray(vec)))


# -- encoding and enumeration ---------------------------------------------------


def encode(spec: CodeSpec, message) -> Codeword:
    """Encode a coefficient sequence (ascending degree for GRS) and fold."""
    return fold(spec, encode_unfolded(spec, message))


def encode_unfolded(spec: CodeSpec, message) -> np.ndarray:
    """message times the generator matrix; a GRS message shorter than the
    degree budget k + 1 is padded with zero coefficients."""
    msg = [spec.field.check_element(int(c)) for c in message]
    if spec.kind == "grs-folded" and len(msg) <= spec.dim:
        msg += [0] * (spec.dim - len(msg))
    if len(msg) != spec.dim:
        raise LengthMismatch(f"message length {len(msg)} != code dimension {spec.dim}")
    return linalg.matmul(spec.field, [msg], spec.generator_matrix())[0]


@lru_cache(maxsize=64)
def _points_cached(spec: CodeSpec) -> np.ndarray:
    ctx = spec.field
    pts = np.empty(spec.N, dtype=np.int64)
    x = 1
    for i in range(spec.N):
        pts[i] = x
        x = ctx.mul(x, spec.gamma)
    pts.setflags(write=False)
    return pts


@lru_cache(maxsize=64)
def _generator_matrix_cached(spec: CodeSpec) -> np.ndarray:
    if spec.kind == "generic-linear":
        out = np.array(spec.genmat, dtype=np.int64)
    else:
        out = np.empty((spec.dim, spec.N), dtype=np.int64)
        out[0] = spec.v
        for j in range(1, spec.dim):
            out[j] = linalg.mul_arrays(spec.field, out[j - 1], spec.points())
    out.setflags(write=False)
    return out


@lru_cache(maxsize=64)
def _basis_rref_cached(spec: CodeSpec) -> np.ndarray:
    out = linalg.row_space_canonical(spec.field, spec.generator_matrix())
    out.setflags(write=False)
    return out


def codeword_matrix(spec: CodeSpec) -> np.ndarray:
    """All codewords, unfolded, as a (|C| x N) array in message-rank order.

    Cached per spec; treat the result as read-only.
    """
    if spec.size > DEFAULT_ENUM_BUDGET:
        raise BudgetExceeded(f"|C| = {spec.size} exceeds budget {DEFAULT_ENUM_BUDGET}")
    return _codeword_matrix_cached(spec)


@lru_cache(maxsize=16)
def _codeword_matrix_cached(spec: CodeSpec) -> np.ndarray:
    # message coefficient j is digit j of the rank, least significant first
    msgs = to_digits(np.arange(spec.size), spec.field.q, spec.dim)[:, ::-1]
    out = linalg.matmul(spec.field, msgs, spec.generator_matrix())
    out.setflags(write=False)
    return out


def codeword_rank_matrix(spec: CodeSpec) -> np.ndarray:
    """All codewords as (|C| x n) symbol-rank arrays in message-rank order."""
    codeword_matrix(spec)  # budget gate
    return _codeword_rank_matrix_cached(spec)


@lru_cache(maxsize=16)
def _codeword_rank_matrix_cached(spec: CodeSpec) -> np.ndarray:
    unfolded = _codeword_matrix_cached(spec)
    out = from_digits(unfolded.reshape(-1, spec.n, spec.m), spec.field.q)
    out.setflags(write=False)
    return out


@lru_cache(maxsize=16)
def _rank_columns_cached(spec: CodeSpec) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """Per coordinate i, the sorted distinct symbol ranks of the codewords
    and each codeword's index into them; read-only.  Both are bounded by
    |C|, whatever |Sigma| is."""
    out = []
    for col in _codeword_rank_matrix_cached(spec).T:
        values, index = np.unique(col, return_inverse=True)
        values.setflags(write=False)
        index.setflags(write=False)
        out.append((values, index))
    return tuple(out)


def contains(spec: CodeSpec, word: Codeword) -> bool:
    """Rank-based membership test."""
    vec = unfold(spec, word)
    return linalg.in_row_space(spec.field, spec.basis_rref(), vec)


def min_distance(spec: CodeSpec) -> int:
    """Exact unfolded minimum distance; exhaustive for small codes."""
    if spec.kind == "grs-folded":
        return spec.N - spec.k
    mat = codeword_matrix(spec)
    weights = np.count_nonzero(mat, axis=1)
    nz = weights[weights > 0]
    return int(nz.min()) if nz.size else 0


# -- duality ---------------------------------------------------------------------


@lru_cache(maxsize=64)
def dual(spec: CodeSpec) -> CodeSpec:
    """Dual code under the unfolded coordinate-wise inner product.

    For GRS specs the dual is the GRS code of degree N-k-2 with
    multipliers v'_i = gamma^i / v_i (evaluation at all of F_q^*,
    characteristic 2); the null-space computation certifies it for
    N <= 1024, once per spec.
    """
    ctx = spec.field
    if spec.kind == "grs-folded":
        if spec.k > spec.N - 2:
            raise ValueError("dual of a (near-)full GRS code is not GRS")
        pts = spec.points()
        vdual = tuple(
            ctx.mul(int(pts[i]), ctx.inv(spec.v[i])) for i in range(spec.N)
        )
        out = CodeSpec(
            kind="grs-folded",
            field=ctx,
            m=spec.m,
            k=spec.N - spec.k - 2,
            gamma=spec.gamma,
            v=vdual,
        )
        if spec.N <= 1024:
            _certify_dual(spec, out)
        return out
    ns = linalg.null_space(ctx, spec.generator_matrix())
    out = CodeSpec(
        kind="generic-linear",
        field=ctx,
        m=spec.m,
        genmat=tuple(tuple(int(x) for x in row) for row in ns),
    )
    return out


def _certify_dual(spec: CodeSpec, cand: CodeSpec) -> None:
    """Null-space certificate: cand's rows annihilate spec's rows and the
    dimensions add up to N."""
    ctx = spec.field
    g = spec.generator_matrix()
    gd = cand.generator_matrix()
    prod = linalg.matmul(ctx, gd, g.T)
    if prod.any():
        raise AssertionError("claimed dual is not orthogonal to the code")
    if cand.dim + spec.dim != spec.N:
        raise AssertionError("dual dimension mismatch")


# -- decoding ---------------------------------------------------------------------


DECODER_EPSILON = Fraction(1, 100)  # slack of the acceptance radius over p


@dataclass(frozen=True)
class DecoderParams:
    """Bias and slack for the dual decoder; the acceptance radius is
    floor((p + epsilon) * N) at the unfolded level."""

    p: Fraction
    epsilon: Fraction
    radius_unfolded: int

    @classmethod
    def for_spec(cls, spec: CodeSpec, p) -> "DecoderParams":
        p = Fraction(p)
        epsilon = DECODER_EPSILON
        radius = int((p + epsilon) * spec.N)  # floor for positive values
        dual_spec = dual(spec)
        d_dual = min_distance(dual_spec)
        unique_frac = Fraction((d_dual - 1) // 2, spec.N)
        if p + epsilon >= unique_frac:
            raise ValueError(
                f"p + epsilon = {float(p + epsilon):.4f} is not below the "
                f"dual unique-decoding fraction {float(unique_frac):.4f}"
            )
        return cls(p=p, epsilon=epsilon, radius_unfolded=radius)


def _poly_divmod(ctx: FieldCtx, num: list[int], den: list[int]):
    """Polynomial division over F_q; coefficients ascending."""
    num = list(num)
    while num and num[-1] == 0:
        num.pop()
    dd = len(den) - 1
    lead_inv = ctx.inv(den[-1])
    quot = [0] * max(0, len(num) - dd)
    while len(num) - 1 >= dd and num:
        shift = len(num) - 1 - dd
        factor = ctx.mul(num[-1], lead_inv)
        quot[shift] = factor
        for i, c in enumerate(den):
            num[shift + i] ^= ctx.mul(factor, c)
        while num and num[-1] == 0:
            num.pop()
    return quot, num


@lru_cache(maxsize=64)
def _bw_constants(spec: CodeSpec, radius: int) -> tuple[np.ndarray, np.ndarray]:
    """Berlekamp-Welch constants of (spec, radius), cached and read-only:
    the inverted multipliers 1/v_i and the point powers a_i^j for
    j <= k + radius."""
    ctx = spec.field
    vinv = np.array([ctx.inv(x) for x in spec.v], dtype=np.int64)
    pts = spec.points()
    pw = np.ones((spec.N, spec.k + radius + 1), dtype=np.int64)
    for j in range(1, pw.shape[1]):
        pw[:, j] = linalg.mul_arrays(ctx, pw[:, j - 1], pts)
    vinv.setflags(write=False)
    pw.setflags(write=False)
    return vinv, pw


def _berlekamp_welch(spec: CodeSpec, z: np.ndarray, radius: int) -> np.ndarray | None:
    """Unique decoding of an unfolded GRS word within the given radius.

    Solves Q(a_i) = r_i * E(a_i) with E monic of degree `radius`; valid for
    radius <= floor((N - k - 1) / 2).  Returns the unfolded codeword or
    None when no codeword lies within the radius.
    """
    ctx = spec.field
    N, k = spec.N, spec.k
    vinv, pw = _bw_constants(spec, radius)
    r = linalg.mul_arrays(ctx, np.asarray(z, dtype=np.int64), vinv)
    e = radius
    nq = k + e + 1  # coefficients of Q
    cols = nq + e
    A = np.zeros((N, cols), dtype=np.int64)
    A[:, :nq] = pw[:, :nq]
    if e:
        A[:, nq:] = linalg.mul_arrays(ctx, r[:, None], pw[:, :e])
    b = linalg.mul_arrays(ctx, r, pw[:, e])
    sol = linalg.solve(ctx, A, b)
    if sol is None:
        return None
    qcoeffs = [int(c) for c in sol[:nq]]
    ecoeffs = [int(c) for c in sol[nq:]] + [1]  # monic
    f, rem = _poly_divmod(ctx, qcoeffs, ecoeffs)
    if rem:
        return None
    if len(f) > k + 1:
        return None
    cand = encode_unfolded(spec, f)
    if hw_unfolded(cand ^ np.asarray(z, dtype=np.int64)) > radius:
        return None
    return cand


def list_decode(spec: CodeSpec, z: Codeword, radius: int) -> list[Codeword]:
    """All codewords within symbol Hamming distance `radius` of z.

    Small codes are decoded by exhaustive enumeration; unfolded GRS specs
    fall back to Berlekamp-Welch unique decoding, valid up to
    floor((d - 1) / 2) with d = N - k.
    """
    if spec.size <= DEFAULT_ENUM_BUDGET:
        zr = spec.word_ranks(z)
        ranks = codeword_rank_matrix(spec)
        mat = codeword_matrix(spec)
        dist = (ranks != np.array(zr)[None, :]).sum(axis=1)
        return [fold(spec, mat[idx]) for idx in np.nonzero(dist <= radius)[0]]
    if spec.kind != "grs-folded" or spec.m != 1:
        raise BudgetExceeded(
            "code too large for exhaustive decoding and not an unfolded GRS"
        )
    unique_radius = (spec.N - spec.k - 1) // 2
    if radius > unique_radius:
        raise BudgetExceeded(
            f"radius {radius} exceeds the unique-decoding bound {unique_radius}"
        )
    cand = _berlekamp_welch(spec, unfold(spec, z), radius)
    if cand is None:
        return []
    return [fold(spec, cand)]


def dual_decode(spec: CodeSpec, params: DecoderParams, z: Codeword):
    """Decode z against the dual code at the unfolded level.

    Unfolds z, finds the codewords of the unfolded dual within
    radius_unfolded, and returns the folded candidate when it is unique;
    returns None otherwise.  A radius beyond the unique-decoding bound of
    a dual too large to enumerate raises BudgetExceeded (for_spec never
    builds one).
    """
    dspec_unf = replace(dual(spec), m=1)
    zword = fold(dspec_unf, unfold(spec, z))
    cands = list_decode(dspec_unf, zword, params.radius_unfolded)
    if len(cands) != 1:
        return None
    return fold(spec, unfold(dspec_unf, cands[0]))


# -- list recovery -----------------------------------------------------------------


def list_recover_count(
    spec: CodeSpec,
    S,
    zeta: float,
    jobs: int = 1,
) -> int:
    """Exact number of codewords agreeing with the candidate sets S_i of
    symbol ranks on at least zeta * n coordinates."""
    if len(S) != spec.n:
        raise LengthMismatch(f"need {spec.n} candidate sets, got {len(S)}")
    sets = [np.array(sorted({int(r) for r in s}), dtype=np.int64) for s in S]
    codeword_rank_matrix(spec)  # budget gate
    columns = _rank_columns_cached(spec)
    # membership of each coordinate's distinct codeword symbols in S_i
    members = []
    for (values, _), s in zip(columns, sets):
        member = np.zeros(values.size, dtype=bool)
        pos = np.searchsorted(values, s).clip(max=values.size - 1)
        member[pos[values[pos] == s]] = True
        members.append(member)
    threshold = math.ceil(zeta * spec.n - 1e-9)

    def chunk_count(bounds):
        lo, hi = bounds
        agree = np.zeros(hi - lo, dtype=np.int64)
        for member, (_, index) in zip(members, columns):
            agree += member[index[lo:hi]]
        return int((agree >= threshold).sum())

    nrows = columns[0][1].shape[0]
    step = max(1, nrows // max(jobs, 1))
    chunks = [(lo, min(lo + step, nrows)) for lo in range(0, nrows, step)]
    return sum(parallel_map(chunk_count, chunks, jobs))


def lr_param_check(N, m, k, ell, s, r, zeta, q) -> dict:
    """Numeric check of the two folded-RS list-recoverability inequalities;
    returns their truth values and the guaranteed list bound q^s."""
    if m - s + 1 == 0:
        raise ZeroDivisionError("m - s + 1 must be nonzero")
    if k == 0:
        raise ZeroDivisionError("degree k must be nonzero")
    lhs1 = zeta * N / m
    rhs1 = (1 + s / r) * (N * ell * k**s) ** (1.0 / (s + 1)) / (m - s + 1)
    ineq1 = lhs1 >= rhs1
    lhs2 = (r + s) * (N * ell / k) ** (1.0 / (s + 1))
    ineq2 = lhs2 < q
    return {"ineq1": bool(ineq1), "ineq2": bool(ineq2), "L": q**s}
