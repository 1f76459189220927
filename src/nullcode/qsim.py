"""Exact dense simulation of the one-round SMP protocol and exact
verification of its error analysis.

States are vectors over Sigma^n, Sigma = F_q^m, indexed by flat symbol
rank with the first coordinate most significant; K = |Sigma|^n.  Every
field is GF(2^s), so the Fourier transform over Sigma^n is the n m-fold
tensor power of the +-1 sign matrix (-1)^Tr(x z) on F_q, over sqrt(q).
States are integer-valued float64 vectors (exact below 2^53), and every
normalisation is an integer denominator.

The main pipeline computes, exactly:

- the two error masses eps = sum over BAD pairs of |Vhat(x) What(e)|^2 and
  delta = sum_z |sum over BAD pairs with x+e=z of Vhat(x) What(e)|^2,
- the actual output state (I x QFT^-1) U_F U_add (QFT x QFT) |psi>|phi>
  on the only first-register rows it can occupy, supp(Vhat) + range(F) =
  C-dual, one block of those rows at a time,
- its distance from the ideal state |Sigma|^(n/2) sum_z (V.W)(z) |0>|z>,

and checks in integers that the distance is at most sqrt(eps) +
sqrt(delta), which is the guarantee the protocol's analysis rests on.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

import numpy as np

from . import codes, instances, linalg
from .codes import CodeSpec, DecoderParams
from .errors import BudgetExceeded, EmptySupport, LengthMismatch
from .gf import FieldCtx, exact
from .instances import OracleInstance

# The largest K = |Sigma|^n, and |Sigma|, the dense referee admits.  It
# is the exactness bound: every partial sum of a transform is at most
# K S <= 2^36 < 2^53, and the total mass S K^3 <= K^5 = 2^60 < 2^63.
_DENSE_QFT_LIMIT = 1 << 12
_CELL_CAP = 1 << 14


# -- Fourier kernels -------------------------------------------------------------


def qft_matrix(ctx: FieldCtx) -> np.ndarray:
    """Trace-character sign matrix on F_q: entry (z, x) = (-1)^Tr(x z).

    The unitary transform is this matrix over sqrt(q); the matrix is
    symmetric and squares to q I.
    """
    q = ctx.q
    if q > _DENSE_QFT_LIMIT:
        raise BudgetExceeded(f"dense transform for q = {q} exceeds the limit {_DENSE_QFT_LIMIT}")
    elems = np.arange(q)
    traces = np.array([ctx.trace(x) for x in range(q)], dtype=bool)
    return np.where(traces[linalg.mul_arrays(ctx, elems[:, None], elems)], -1.0, 1.0)


@functools.lru_cache(maxsize=16)
def sigma_qft_matrix(ctx: FieldCtx, m: int) -> np.ndarray:
    """Sign matrix over Sigma = F_q^m as an m-fold Kronecker power, squaring
    to |Sigma| I; symbol ranks put the first F_q digit in the
    most-significant position.  Cached per (field, m); read-only."""
    base = qft_matrix(ctx)
    if ctx.q**m > _DENSE_QFT_LIMIT:
        raise BudgetExceeded(f"|Sigma| = {ctx.q ** m} exceeds the dense limit {_DENSE_QFT_LIMIT}")
    out = np.array([[1.0]])
    for _ in range(m):
        out = np.kron(out, base)
    out.setflags(write=False)
    return out


def apply_qft_vec(vec: np.ndarray, kernel: np.ndarray, n: int) -> np.ndarray:
    """Apply the symmetric kernel to each of the n symbol axes of the last
    axis of vec (length |Sigma|^n); any leading axes are carried along.
    Each pass is one matmul on the last symbol axis and a transpose that
    rotates it to the front, so n passes put every axis back in place."""
    s = kernel.shape[0]
    t = vec.reshape(-1, s ** (n - 1), s)
    for _ in range(n):
        t = (t @ kernel).transpose(0, 2, 1).reshape(t.shape)
    return t.reshape(vec.shape)


def _dense_size(spec: CodeSpec) -> int:
    """K = |Sigma|^n, or raise BudgetExceeded above _DENSE_QFT_LIMIT."""
    K = spec.sigma_size**spec.n
    if K > _DENSE_QFT_LIMIT:
        raise BudgetExceeded(
            f"K = |Sigma|^n = {K} exceeds the dense limit {_DENSE_QFT_LIMIT}; over budget. "
            "Use a smaller generic-code toy configuration."
        )
    return K


# -- state preparation -------------------------------------------------------------


def prepare_phi(inst: OracleInstance, i: int) -> np.ndarray:
    """Indicator vector of T_i = {e : H_i(e) = 0}; i is 1-based.  The
    uniform superposition over T_i is this vector over sqrt|T_i|."""
    support = inst.tables[i - 1] == 0
    if not support.any():
        raise EmptySupport(f"table {i} maps every symbol to 1")
    return support.astype(np.float64)


@functools.lru_cache(maxsize=16)
def prepare_psi(spec: CodeSpec) -> np.ndarray:
    """Indicator vector of the code over Sigma^n; the uniform superposition
    over the code is this vector over sqrt|C|.  Cached per spec; the
    vector is shared and read-only."""
    vec = np.zeros(_dense_size(spec))
    vec[_code_flat_ranks(spec)] = 1.0
    vec.setflags(write=False)
    return vec


# -- decoding --------------------------------------------------------------------


@functools.lru_cache(maxsize=16)
def _coset_census(spec: CodeSpec, radius: int):
    """The syndrome cosets of C-dual in Sigma^n and the words of each within
    the unfolded radius, cached per (spec, radius), all read-only:

    - words: the (K, N) digits of every flat rank;
    - leaders: each coset's smallest flat rank, in syndrome order;
    - coset: the coset index of every flat rank;
    - reach: the number of words of weight at most radius in each coset.
    """
    total = _dense_size(spec)
    q = spec.field.q
    words = codes.to_digits(np.arange(total), q, spec.N)
    syndromes = codes.from_digits(linalg.matmul(spec.field, words, spec.generator_matrix().T), q)
    _, leaders, coset = np.unique(syndromes, return_index=True, return_inverse=True)
    near = np.count_nonzero(words, axis=1) <= radius
    reach = np.bincount(coset[near], minlength=leaders.size)
    for arr in (words, leaders, coset, reach):
        arr.setflags(write=False)
    return words, leaders, coset, reach


def decode_rank_table(spec: CodeSpec, params: DecoderParams) -> np.ndarray:
    """Flat-rank decode table over all of Sigma^n: F[z] = dual_decode(z),
    with 0 standing in for the bottom symbol.

    At most one dual_decode per coset of the dual: the parity checks of
    C-dual are the generator rows of C, so the words of one syndrome form
    a coset leader + C-dual, the leader being the coset's smallest flat
    rank.  The codewords of C-dual within the radius of leader + c are
    those of the leader shifted by c, so uniqueness and bottom carry over
    and F[leader + c] = dual_decode(leader) + c; in characteristic 2 that
    sum is the XOR of flat ranks.

    The leader's candidates are the codewords c with wt(leader - c) <= r,
    wt the unfolded digit weight and r the unfolded radius: one for each
    word e = leader - c of the coset with wt(e) <= r.  So a census of the
    words within the radius per coset counts every coset's list exactly.
    The census depends only on (spec, r) and is cached (_coset_census);
    the decodes are not: every call decodes each coset that holds such a
    word, and every other one decodes to bottom.  For r >= 0 the zero
    coset always holds one (the zero word), so a radius the decoder
    rejects still raises.  Each decode is checked against its census
    (AssertionError): it returns a codeword exactly when the coset holds
    one word within the radius.
    """
    words, leaders, coset, reach = _coset_census(spec, params.radius_unfolded)
    q = spec.field.q
    found = np.zeros(leaders.size, dtype=bool)
    shift = np.zeros(leaders.size, dtype=np.int64)
    for j in np.flatnonzero(reach).tolist():
        leader = int(leaders[j])
        dec = codes.dual_decode(spec, params, codes.fold(spec, words[leader]))
        if (dec is not None) != (reach[j] == 1):
            raise AssertionError(f"coset of {leader} holds {reach[j]} words within the radius")
        if dec is not None:
            found[j] = True
            shift[j] = leader ^ int(codes.from_digits(codes.unfold(spec, dec), q))
    return np.where(found[coset], np.arange(coset.size) ^ shift[coset], 0)


def flat_to_word(spec: CodeSpec, flat: int):
    """The word whose flat rank is flat."""
    return codes.fold(spec, codes.to_digits(flat, spec.field.q, spec.N))


# -- good/bad bookkeeping ---------------------------------------------------------


@functools.lru_cache(maxsize=16)
def default_goodbad(spec: CodeSpec, params: DecoderParams) -> tuple[np.ndarray, np.ndarray]:
    """Product-form GOOD set C-dual x {e : symbol weight of e <= (p +
    epsilon) n}, as the masks (good_x, good_e) over flat ranks.  The
    pipeline verifies F(x+e) = x on it on every call.  Cached per (spec,
    params); the masks are shared and read-only."""
    sigma = spec.sigma_size
    total = _dense_size(spec)
    dual_spec = codes.dual(spec)
    dual_flat = _code_flat_ranks(dual_spec)
    good_x = np.zeros(total, dtype=bool)
    good_x[dual_flat] = True
    weight_cap = int((params.p + codes.DECODER_EPSILON) * spec.n)
    weights = np.count_nonzero(codes.to_digits(np.arange(total), sigma, spec.n), axis=-1)
    good_e = weights <= weight_cap
    good_x.setflags(write=False)
    good_e.setflags(write=False)
    return good_x, good_e


def _code_flat_ranks(spec: CodeSpec) -> np.ndarray:
    """Flat ranks of all codewords, in message-rank order."""
    return codes.from_digits(codes.codeword_matrix(spec), spec.field.q)


# -- the main pipeline -------------------------------------------------------------


def add_decode_pipeline(spec: CodeSpec, phis: list[np.ndarray], params: DecoderParams) -> dict:
    """Run the add/decode pipeline exactly on the received per-coordinate
    states and compare with the ideal state.

    phis holds one length-|Sigma| indicator vector per coordinate, in
    coordinate order (see prepare_phi); their tensor product is 1_T for the
    oracle's zero set T.  Builds the decode table F and the GOOD masks and
    checks F(x+e) = x on GOOD.  Forms only the first-register rows in
    supp(Vhat) + range(F), which is C-dual, so the norm check also fails
    if a live row is missed.  Returns eps, delta, the distance between
    actual and ideal states with its bound sqrt(eps) + sqrt(delta), the
    success probability (the *_exact keys hold these as `Fraction`s over
    S K^3, S = |C| |T|; l2 squared), the measurement distribution (also as
    integer masses over S K^3) and the solution mask.  Raises
    AssertionError if GOOD is unsound, if the norm changes or if the
    distance exceeds the bound.
    """
    sigma = spec.sigma_size
    n = spec.n
    K = _dense_size(spec)
    if len(phis) != n or any(v.shape != (sigma,) for v in phis):
        raise LengthMismatch(f"expected {n} states of length {sigma}")

    # -- input states; Vhat = v/sqrt(K |C|) with v = |C| 1_{C-dual}, and
    # What = w/sqrt(K |T|)
    psi = prepare_psi(spec)
    phi = functools.reduce(np.kron, phis)
    kernel = sigma_qft_matrix(spec.field, spec.m)
    v = apply_qft_vec(psi, kernel, n)
    w = apply_qft_vec(phi, kernel, n)
    S = int(psi.sum()) * int(phi.sum())

    F = decode_rank_table(spec, params)
    gx, ge = default_goodbad(spec, params)
    _assert_good_sound(F, gx, ge)

    # After U_add and U_F, row y of the pair state holds v[x] w[x+z] at
    # column z, x = y + F(z) (rank XOR in characteristic 2), over K sqrt(S);
    # the inverse transform of the second register puts it over
    # K sqrt(S K).  Only the rows in supp(v) + range(F) = C-dual (range(F)
    # lies in C-dual and holds 0), the GOOD x rows, can be nonzero; every
    # other row has v[y + F(z)] = 0 for every z, and the norm check fails if
    # F leaves C-dual.  Per block of those rows, conv[z] sums column z over
    # BAD pairs and mass[z] sums the squares of column z after the transform.
    idx = np.arange(K)
    ys = np.flatnonzero(gx)
    conv = np.zeros(K, dtype=np.int64)
    mass = np.zeros(K, dtype=np.int64)
    row0 = np.zeros(K, dtype=np.int64)
    step = max(1, _CELL_CAP // K)
    for lo in range(0, ys.size, step):
        x = ys[lo : lo + step, None] ^ F
        e = x ^ idx
        pairs = v[x] * w[e]
        conv += np.where(gx[x] & ge[e], 0.0, pairs).sum(axis=0).astype(np.int64)
        rows = apply_qft_vec(pairs, kernel, n).astype(np.int64)
        if ys[lo] == 0:
            row0 = rows[0]
        mass += (rows * rows).sum(axis=0)
    total = S * K**3
    if int(mass.sum()) != total:
        raise AssertionError("the add and decode unitaries changed the norm")

    # -- eps, delta and the squared distance from the ideal state, which is
    # K^2 1_{C and T} in row 0, all over S K^3
    sol = (psi > 0) & (phi > 0)
    E = (S * K * K - int(v[gx] @ v[gx]) * int(w[ge] @ w[ge])) * K
    D = int(conv @ conv) * K
    L = total - 2 * K * K * int(row0[sol].sum()) + K**4 * int(sol.sum())
    eps = Fraction(E, total)
    delta = Fraction(D, total)
    l2_squared = Fraction(L, total)
    # sqrt(L) <= sqrt(E) + sqrt(D) iff L - E - D <= 2 sqrt(E D)
    excess = L - E - D
    if excess > 0 and excess * excess > 4 * E * D:
        raise AssertionError(f"squared distance {l2_squared} exceeds (sqrt({eps}) + sqrt({delta}))^2")
    success = Fraction(int(mass[sol].sum()), total)
    return {
        "epsilon": float(eps),
        "delta": float(delta),
        "l2_distance": math.sqrt(l2_squared),
        "bound": math.sqrt(eps) + math.sqrt(delta),
        "success_probability": float(success),
        "solution_distribution": mass / total,
        "solution_masses": mass,
        "solution_mask": sol,
        "epsilon_exact": eps,
        "delta_exact": delta,
        "l2_squared_exact": l2_squared,
        "success_exact": success,
    }


def _assert_good_sound(F: np.ndarray, gx: np.ndarray, ge: np.ndarray):
    """F(x+e) = x on every GOOD pair, checked in blocks of at most
    _CELL_CAP pairs (GOOD has at most _DENSE_QFT_LIMIT values of e)."""
    xs = np.nonzero(gx)[0]
    es = np.nonzero(ge)[0]
    step = max(1, _CELL_CAP // max(es.size, 1))
    for lo in range(0, xs.size, step):
        block = xs[lo : lo + step, None]
        if (F[block ^ es] != block).any():
            raise AssertionError("GOOD set contains a pair with F(x+e) != x")


# -- protocol runner ----------------------------------------------------------------


def run_smp_protocol(spec: CodeSpec, inst: OracleInstance, params: DecoderParams) -> dict:
    """One-round SMP execution with explicit stage boundaries.

    Alice prepares the states for coordinates 1..floor(n/2), Bob the rest.
    The referee receives only those states: it prepares the code
    superposition, runs the Fourier/add/decode pipeline on them, and
    measures the second register.  The instance is used afterwards only to
    cross-check the measurement against the verifier.  Returns the exact
    measurement distribution and the probability mass on verifier-accepted
    strings, summed exactly from the integer masses.
    """
    half = inst.n // 2
    alice_states = [prepare_phi(inst, i) for i in range(1, half + 1)]
    bob_states = [prepare_phi(inst, i) for i in range(half + 1, inst.n + 1)]
    out = add_decode_pipeline(spec, alice_states + bob_states, params)
    masses = out["solution_masses"]
    live = masses > 0
    verified = np.zeros_like(live)
    verified[live] = instances.verify_flat(inst, np.nonzero(live)[0])
    out["verified_mass"] = float(Fraction(int(masses[verified].sum()), int(masses.sum())))
    if not np.array_equal(verified, out["solution_mask"] & live):
        mism = verified ^ (out["solution_mask"] & live)
        raise AssertionError(
            f"verifier disagrees with the solution mask on {mism.sum()} strings"
        )
    return out


def sample_measurement(report: dict, rng: np.random.Generator) -> int:
    dist = report["solution_distribution"]
    total = dist.sum()
    return int(rng.choice(dist.size, p=dist / total))


# -- table statistics ---------------------------------------------------------------


def table_fourier_stats(ctx: FieldCtx, m: int, p) -> dict:
    """Exact statistics of the zero-set Fourier mass of a Bernoulli(p)
    table over Sigma = F_q^m, as `Fraction`s in closed form; p is read by `gf.exact`.

    The zero set T carries What = 1_T/sqrt|T| (What = 0 when T is empty).
    Given t = |T| >= 1, |What(0)|^2 = t/|Sigma|, and a nontrivial
    character is balanced on Sigma, so E[|What(e)|^2 | t] =
    (|Sigma| - t)/(|Sigma| (|Sigma| - 1)) for every e != 0.  Summing over
    t ~ Bin(|Sigma|, 1 - p) gives E|What(0)|^2 = 1 - p and
    E|What(e)|^2 = p (1 - p^(|Sigma|-1))/(|Sigma| - 1) for every e != 0,
    returned once (None at |Sigma| = 1).  The mean over nonempty tables is
    None when every table is empty (p = 1).
    """
    p = exact(p)
    if not 0 <= p <= 1:
        raise ValueError("bias must lie in [0, 1]")
    sigma = ctx.q**m
    empty_mass = p**sigma
    mean0 = 1 - p
    per_element = p * (1 - p ** (sigma - 1)) / (sigma - 1) if sigma > 1 else None
    return {
        "sigma": sigma,
        "p": float(p),
        "mean_W0_sq": float(mean0),
        "mean_W0_sq_exact": mean0,
        "mean_W0_sq_nonempty": float(mean0 / (1 - empty_mass)) if empty_mass != 1 else None,
        "empty_mass": float(empty_mass),
        "per_element_mean": None if per_element is None else float(per_element),
        "per_element_exact": per_element,
        "mode": "exact",
    }


def product_rule_check(ctx: FieldCtx, m: int, n: int, p, seed: int = 0) -> float:
    """Max deviation between transforming the indicator of a product set as
    one register and the tensor product of per-coordinate transforms, on
    one sampled oracle.  Both are integer vectors under the sign kernel,
    so any deviation raises and the return value is 0; p is read by `gf.exact`."""
    p = exact(p)
    sigma = ctx.q**m
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x9D0D]))
    kernel = sigma_qft_matrix(ctx, m)
    ws = []
    while len(ws) < n:
        table = rng.integers(0, p.denominator, size=sigma) < p.numerator
        if not table.all():
            ws.append((~table).astype(float))
    product_of_hats = functools.reduce(np.kron, [kernel @ w for w in ws])
    direct = apply_qft_vec(functools.reduce(np.kron, ws), kernel, n)
    dev = float(np.max(np.abs(direct - product_of_hats)))
    if dev:
        raise AssertionError(f"product rule violated by {dev}")
    return dev
