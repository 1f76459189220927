"""Linear codes over GF(2^s): generalized Reed-Solomon, folded views,
duals, decoding, and list-recovery counting.

A generalized Reed-Solomon code here always evaluates at the points
gamma^0, ..., gamma^(N-1), i.e. all of F_q^*, so N = q - 1.  Folding
groups m consecutive F_q symbols into one symbol of Sigma = F_q^m.

Codewords are tuples of n symbols; each symbol is a tuple of m field
elements.  Unfolded vectors are numpy int64 arrays of length N.  A symbol's
rank reads its m elements as base-q digits and a word's flat rank reads its
n symbol ranks as base-|Sigma| digits, most significant first; so a word's
flat rank is its unfolded vector read as one base-q number.  `fold`,
`unfold`, `to_digits` and `from_digits` are the only conversions between
these forms.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass, replace
from decimal import Decimal, localcontext
from fractions import Fraction
from functools import lru_cache
from itertools import chain

import numpy as np

from . import linalg
from .budget import DEFAULT_ENUM_BUDGET
from .errors import BudgetExceeded, DomainMismatch, LengthMismatch, ParseError
from .gf import FieldCtx, exact, json_int
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
        if self.m < 1:
            raise ValueError(f"folding width m = {self.m} is not positive")
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
            if any(not 0 <= x < q for row in self.genmat for x in row):
                raise ValueError("generator matrix entries must be field elements")
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

    @lru_cache(maxsize=64)
    def points(self) -> np.ndarray:
        """gamma^0, ..., gamma^(N-1); cached per spec and read-only."""
        ctx = self.field
        steps = np.arange(self.N, dtype=np.int64) * ctx.log_np[self.gamma]
        pts = ctx.exp_np[steps % (ctx.q - 1)]
        pts.setflags(write=False)
        return pts

    @lru_cache(maxsize=64)
    def generator_matrix(self) -> np.ndarray:
        """Unfolded generator matrix (dim x N), GRS row j = v * points^j;
        cached per spec and read-only."""
        if self.kind == "generic-linear":
            out = np.array(self.genmat, dtype=np.int64)
        else:
            out = np.empty((self.dim, self.N), dtype=np.int64)
            out[0] = self.v
            for j in range(1, self.dim):
                out[j] = linalg.mul_arrays(self.field, out[j - 1], self.points())
        out.setflags(write=False)
        return out

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
        vector v whose length is not q-1, and an empty or ragged genmat;
        TypeError for an s, modulus, v entry or genmat entry that is not an
        integer.
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
                v=tuple(json_int(x, "v") for x in v),
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
            genmat=tuple(tuple(json_int(x, "genmat") for x in r) for r in genmat),
        )


def _generates(field: FieldCtx, gamma: int) -> bool:
    """Whether gamma is a generator of F_q^*."""
    return 0 < gamma < field.q and field.element_order(gamma) == field.q - 1


def _json_int(data: dict, key: str) -> int:
    try:
        return json_int(data.get(key), key)
    except TypeError as exc:
        raise ParseError("code", key, str(exc)) from None


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
    """The N field elements of x (any iterable; each is passed through int)
    grouped into n symbols of m.  Raises LengthMismatch unless x has N."""
    # tolist gives a 1-D integer array's values as int() would, in one call
    if isinstance(x, np.ndarray) and x.ndim == 1 and x.dtype.kind in "iu":
        x = x.tolist()
    else:
        x = list(map(int, x))
    if len(x) != spec.N:
        raise LengthMismatch(f"expected {spec.N} field symbols, got {len(x)}")
    return tuple(zip(*[iter(x)] * spec.m))


def unfold(spec: CodeSpec, z: Codeword) -> np.ndarray:
    """The N digits of the folded word z as an int64 vector.  Raises
    LengthMismatch unless z has n symbols of m digits, and DomainMismatch
    for a digit that is not an integer in [0, q); a bool is not one."""
    if len(z) != spec.n:
        raise LengthMismatch(f"expected {spec.n} symbols, got {len(z)}")
    if any(len(sym) != spec.m for sym in z):
        raise LengthMismatch("symbol width does not match folding")
    digits = list(chain.from_iterable(z))
    # one check per distinct digit type, then one range check on the extremes
    if not _all_integers(digits) or not 0 <= min(digits) <= max(digits) < spec.field.q:
        raise DomainMismatch(f"every digit must be an integer in [0, {spec.field.q})")
    return np.array(digits, dtype=np.int64)


def _all_integers(values) -> bool:
    """Whether every value is an int or a numpy integer; a bool is not one."""
    types = set(map(type, values))
    return bool not in types and all(issubclass(t, (int, np.integer)) for t in types)


# -- encoding and enumeration ---------------------------------------------------


def encode_unfolded(spec: CodeSpec, message) -> np.ndarray:
    """message times the generator matrix; a GRS message shorter than the
    degree budget k + 1 is padded with zero coefficients."""
    msg = [spec.field.check_element(int(c)) for c in message]
    if spec.kind == "grs-folded" and len(msg) <= spec.dim:
        msg += [0] * (spec.dim - len(msg))
    if len(msg) != spec.dim:
        raise LengthMismatch(f"message length {len(msg)} != code dimension {spec.dim}")
    return linalg.matmul(spec.field, [msg], spec.generator_matrix())[0]


@lru_cache(maxsize=16)
def codeword_matrix(spec: CodeSpec) -> np.ndarray:
    """All codewords, unfolded, as a (|C| x N) array in message-rank order.

    Cached per spec and read-only; every call past the enumeration budget raises.
    """
    if spec.size > DEFAULT_ENUM_BUDGET:
        raise BudgetExceeded(f"|C| = {spec.size} exceeds budget {DEFAULT_ENUM_BUDGET}")
    # message coefficient j is digit j of the rank, least significant first
    msgs = to_digits(np.arange(spec.size), spec.field.q, spec.dim)[:, ::-1]
    out = linalg.matmul(spec.field, msgs, spec.generator_matrix())
    out.setflags(write=False)
    return out


@lru_cache(maxsize=16)
def codeword_rank_matrix(spec: CodeSpec) -> np.ndarray:
    """All codewords as (|C| x n) symbol-rank arrays in message-rank order.

    Cached per spec and read-only; column-major, so each coordinate's
    ranks are one contiguous column.  Raises BudgetExceeded like
    codeword_matrix.
    """
    unfolded = codeword_matrix(spec)
    out = np.asfortranarray(from_digits(unfolded.reshape(-1, spec.n, spec.m), spec.field.q))
    out.setflags(write=False)
    return out


@lru_cache(maxsize=16)
def _symbol_index_cached(spec: CodeSpec) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """Per coordinate i, the codeword ids grouped by symbol (a stable
    argsort of column i) and the symbol ranks in that order; read-only.
    The codewords with symbol r at i are ids[lo:hi], with [lo, hi) the
    searchsorted run of r in the sorted ranks."""
    out = []
    for col in codeword_rank_matrix(spec).T:
        ids = np.argsort(col, kind="stable")
        ranks = col[ids]
        ids.setflags(write=False)
        ranks.setflags(write=False)
        out.append((ids, ranks))
    return tuple(out)


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
        vinv = [ctx.inv(x) for x in spec.v]
        vdual = tuple(linalg.mul_arrays(ctx, spec.points(), vinv).tolist())
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
    """Bias for the dual decoder; the acceptance radius is
    floor((p + epsilon) * N) at the unfolded level, epsilon = DECODER_EPSILON."""

    p: Fraction
    radius_unfolded: int

    @classmethod
    def for_spec(cls, spec: CodeSpec, p) -> "DecoderParams":
        """The parameters for bias p, read by `gf.exact` (0.1 is 1/10); raises
        ValueError when p + epsilon reaches the dual unique-decoding fraction."""
        p = exact(p)
        slack = p + DECODER_EPSILON
        radius = int(slack * spec.N)  # floor for positive values
        dual_spec = dual(spec)
        d_dual = min_distance(dual_spec)
        unique_frac = Fraction((d_dual - 1) // 2, spec.N)
        if slack >= unique_frac:
            raise ValueError(
                f"p + epsilon = {float(slack):.4f} is not below the "
                f"dual unique-decoding fraction {float(unique_frac):.4f}"
            )
        return cls(p=p, radius_unfolded=radius)


def _berlekamp_massey(ctx: FieldCtx, syndromes: list[int]) -> tuple[int, list[int]]:
    """Massey's shift-register synthesis: the length L of the shortest LFSR
    generating the sequence and its connection polynomial C (ascending,
    C[0] = 1, at most L + 1 coefficients).  When at most len/2 errors
    occurred, C is their locator prod_l (1 - X_l x)."""
    # every list below has at most L + 1 <= n + 1 entries at step n
    c, b = [1], [1]
    length, gap, b_disc = 0, 1, 1
    for n, s in enumerate(syndromes):
        disc = s
        for i in range(1, len(c)):
            disc ^= ctx.mul(c[i], syndromes[n - i])
        if disc == 0:
            gap += 1
            continue
        scale = ctx.mul(disc, ctx.inv(b_disc))
        new = c + [0] * (len(b) + gap - len(c))
        for i, coef in enumerate(b):
            new[i + gap] ^= ctx.mul(scale, coef)
        if 2 * length <= n:
            length, b, b_disc, gap = n + 1 - length, c, disc, 1
        else:
            gap += 1
        c = new
    return length, c


def _syndrome_decode(spec: CodeSpec, z: np.ndarray, radius: int) -> np.ndarray | None:
    """Unique decoding of an unfolded GRS word within the given radius.

    The parity checks are the generator rows of the dual, so with
    S_j = sum_i z_i (a_i / v_i) a_i^j: Berlekamp-Massey over
    S_0 .. S_(2 radius - 1) gives the error locator, a Chien search over
    the inverted points its roots, and Forney's formula the error values
    e_i = v_i Omega(a_i^-1) / Lambda'(a_i^-1).  The candidate is kept only
    if all N - k - 1 syndromes of z - e vanish; its error weight is at most
    deg Lambda <= radius.  Valid for k <= N - 2 and radius <=
    floor((N - k - 1) / 2).
    Returns the unfolded codeword or None when no codeword lies within the
    radius.
    """
    ctx = spec.field
    z = np.asarray(z, dtype=np.int64)
    check = dual(spec).generator_matrix()
    syn = linalg.matmul(ctx, check, z[:, None])[:, 0]
    syn_list = syn.tolist()
    length, locator = _berlekamp_massey(ctx, syn_list[: 2 * radius])
    if length > radius:
        return None
    inv_points = spec.points()[-np.arange(spec.N) % spec.N]  # a_i^-1 = gamma^-i
    pos = np.flatnonzero(linalg.poly_eval(ctx, locator, inv_points) == 0)
    if pos.size != length:
        return None
    # Forney: Omega = S * Lambda mod x^L; in characteristic 2, Lambda' keeps
    # the odd-degree terms of Lambda, each lowered by one degree
    omega = [0] * length
    for j, lam in enumerate(locator[:length]):
        for i in range(j, length):
            omega[i] ^= ctx.mul(lam, syn_list[i - j])
    deriv = [coef if i % 2 == 0 else 0 for i, coef in enumerate(locator[1:])]
    x = inv_points[pos]
    forney = zip(pos.tolist(), *(linalg.poly_eval(ctx, f, x).tolist() for f in (omega, deriv)))
    err = np.array(
        [ctx.mul(ctx.mul(spec.v[i], o), ctx.inv(d)) for i, o, d in forney], dtype=np.int64
    )
    if (linalg.matmul(ctx, check[:, pos], err[:, None])[:, 0] != syn).any():
        return None
    cand = z.copy()
    cand[pos] ^= err
    return cand


def list_decode(spec: CodeSpec, z: Codeword, radius: int) -> list[Codeword]:
    """All codewords within symbol Hamming distance `radius` of z.

    Both branches read z through unfold, so a word whose length or symbol
    width does not match the code raises LengthMismatch, and one with a
    digit that is not an integer in [0, q) raises DomainMismatch.  Small
    codes are decoded by exhaustive enumeration, symbol block by symbol
    block.  Larger unfolded GRS specs are decoded from their syndromes
    (Berlekamp-Massey, Chien search, Forney), which finds the codeword
    only when it is unique: radius may be at most floor((d - 1) / 2) with
    d = N - k, else BudgetExceeded is raised.  Other codes too large to
    enumerate raise BudgetExceeded.
    """
    word = unfold(spec, z)
    if spec.size <= DEFAULT_ENUM_BUDGET:
        mat = codeword_matrix(spec)
        blocks = (-1, spec.n, spec.m)
        dist = (mat.reshape(blocks) != word.reshape(blocks)).any(axis=2).sum(axis=1)
        return [fold(spec, mat[idx]) for idx in np.flatnonzero(dist <= radius)]
    if spec.kind != "grs-folded" or spec.m != 1:
        raise BudgetExceeded(
            "code too large for exhaustive decoding and not an unfolded GRS"
        )
    unique_radius = (spec.N - spec.k - 1) // 2
    if radius > unique_radius:
        raise BudgetExceeded(
            f"radius {radius} exceeds the unique-decoding bound {unique_radius}"
        )
    # with no parity checks (dimension N) the word is a codeword
    cand = word if spec.dim == spec.N else _syndrome_decode(spec, word, radius)
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
    return fold(spec, chain.from_iterable(cands[0]))


# -- list recovery -----------------------------------------------------------------


def list_recover_count(
    spec: CodeSpec,
    S,
    zeta,
    jobs: int = 1,
) -> int:
    """Exact number of codewords agreeing with the candidate sets S_i of
    symbol ranks on at least zeta * n coordinates.  zeta is read by
    `gf.exact`, a float as the decimal its repr prints.  Raises
    DomainMismatch for a rank that is not an integer (a bool is not one);
    an integer no codeword symbol has matches nothing."""
    if len(S) != spec.n:
        raise LengthMismatch(f"need {spec.n} candidate sets, got {len(S)}")
    sets = [set(s) for s in S]
    if not _all_integers(chain.from_iterable(sets)):
        raise DomainMismatch("every candidate rank must be an integer")
    sigma = spec.sigma_size
    # the ids of the codewords whose symbol at i lies in S_i, over every i;
    # the index passes the budget gate, so |Sigma| fits in int64 below
    hits = []
    for (ids, ranks), s in zip(_symbol_index_cached(spec), sets):
        if s and not 0 <= min(s) <= max(s) < sigma:
            s = {r for r in s if 0 <= r < sigma}
        s = np.fromiter(s, np.int64, len(s))
        lo = np.searchsorted(ranks, s, "left")
        lens = np.searchsorted(ranks, s, "right") - lo
        # the runs [lo, lo + lens) laid end to end, from offsets cumsum - lens
        offsets = np.cumsum(lens) - lens
        hits.append(ids[np.repeat(lo - offsets, lens) + np.arange(lens.sum())])
    hits = np.concatenate(hits)
    threshold = math.ceil(exact(zeta) * spec.n)

    def chunk_count(bounds):
        lo, hi = bounds
        chunk = hits[(hits >= lo) & (hits < hi)] - lo
        return int((np.bincount(chunk, minlength=hi - lo) >= threshold).sum())

    nrows = spec.size
    step = max(1, nrows // max(jobs, 1))
    chunks = [(lo, min(lo + step, nrows)) for lo in range(0, nrows, step)]
    return sum(parallel_map(chunk_count, chunks, jobs))


def _iroot(n: int, f: int) -> int:
    """floor(n^(1/f)) for n >= 0 and f >= 1, by Newton's method on ints."""
    if n < 2 or f >= n.bit_length():  # 2^f > n, so the root is 1 (or 0)
        return n and 1
    x = 1 << -(-n.bit_length() // f)  # above the root
    while (y := ((f - 1) * x + n // x ** (f - 1)) // f) < x:
        x = y
    return x


def _root(x: Fraction, f: int) -> Fraction | None:
    """The rational t with t^f = x, for x > 0 and f >= 1, or None."""
    num, den = _iroot(x.numerator, f), _iroot(x.denominator, f)
    return Fraction(num, den) if num**f == x.numerator and den**f == x.denominator else None


def _power_sign(A: Fraction, e: int, B: Fraction, f: int) -> int:
    """The sign of A^e - B^f for rationals A, B > 0 and coprime e, f >= 0,
    exactly, with neither power built.  With gcd(e, f) = 1, A^e = B^f iff
    A = t^f and B = t^e for one rational t (t = A^y B^x for xe + yf = 1),
    so a tie is told by exact roots; otherwise e ln A - f ln B is not 0,
    and decimal logarithms carried to enough digits give its sign."""
    if e == 0 or f == 0:
        return (A > 1) - (A < 1) if f == 0 else (B < 1) - (B > 1)
    if (t := _root(A, f)) is not None and t == _root(B, e):
        return 0
    with localcontext() as ctx:
        for digits in (40 << i for i in range(10)):
            ctx.prec = digits
            ln = [Decimal(v).ln() for v in (A.numerator, A.denominator, B.numerator, B.denominator)]
            diff = e * (ln[0] - ln[1]) - f * (ln[2] - ln[3])
            # every ln, product and sum is rounded to `digits` digits, so
            # diff is off by far less than 10^(3 - digits) of this size
            size = e * (ln[0] + ln[1]) + f * (ln[2] + ln[3])
            if abs(diff) > size.scaleb(3 - digits):
                return 1 if diff > 0 else -1
    raise ValueError("parameters lie too close to a tie to decide")


def lr_param_check(N, m, k, ell, s, r, zeta, q) -> dict:
    """Exact check of the two folded-RS list-recoverability inequalities

        zeta N / m >= (1 + s/r) (N ell k^s)^(1/(s+1)) / (m - s + 1),
        (r + s) (N ell / k)^(1/(s+1)) < q;

    returns their truth values and the guaranteed list bound L = q**s in
    the arguments' own arithmetic (a float when q or s is one).  The
    parameters are read by `gf.exact` (0.4 is 2/5), and with s + 1 = c/b
    in lowest terms each comparison of a root becomes the sign of
    A^e - B^f for rationals A, B and coprime e, f (`_power_sign`).
    Raises ValueError for a NaN or infinite parameter, for parameters out
    of domain, and when q**s overflows a float or, for ell > 0, k^s passes
    the float range, as in the float arithmetic this check once ran in."""
    if not all(-math.inf < v < math.inf for v in (N, m, k, ell, s, r, zeta, q)):
        raise ValueError("every parameter must be finite")
    given_q, given_s = q, s
    N, m, k, ell, s, r, zeta, q = map(exact, (N, m, k, ell, s, r, zeta, q))
    if not (min(N, m, k, r, q) > 0 and min(ell, s) >= 0):
        raise ValueError("N, m, k, r and q must be positive, ell and s nonnegative")
    if m - s + 1 == 0:
        raise ValueError("m - s + 1 must be nonzero")
    try:
        bound = given_q**given_s
    except OverflowError as exc:
        raise ValueError(f"parameters overflow float arithmetic: {exc}") from None
    # k^s past the float range, which the check in floats could not take
    if ell and k > 1 and s > math.log(sys.float_info.max) / (math.log(k.numerator) - math.log(k.denominator)):
        raise ValueError("parameters overflow float arithmetic: k^s passes the float range")
    c, b = (s + 1).numerator, (s + 1).denominator  # s = (c - b)/b
    # ineq1 times (m - s + 1)/(1 + s/r): u against the root
    # T = (N ell k^s)^(1/(s+1)), flipped when m - s + 1 < 0.  T = 0 iff
    # ell = 0; for u, T > 0, u^(s+1) >= N ell k^s is (u/k)^s >= N ell / u
    u = zeta * N / m * (m - s + 1) / (1 + s / r)
    if ell == 0 or u <= 0:
        side = (u > 0) - (u < 0) if ell == 0 else -1
    else:
        side = _power_sign(u / k, c - b, N * ell / u, b)
    ineq1 = side >= 0 if m - s + 1 > 0 else side <= 0
    # ineq2: (N ell / k)^(1/(s+1)) < q / (r + s), a root of 0 when ell = 0
    ineq2 = ell == 0 or _power_sign(N * ell / k, b, q / (r + s), c) < 0
    return {"ineq1": ineq1, "ineq2": ineq2, "L": bound}
