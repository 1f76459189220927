"""Exact dense simulation of the one-round SMP protocol and numerical
verification of its error analysis.

States are dense vectors over Sigma^n, Sigma = F_q^m, indexed by flat
symbol rank with the first coordinate most significant; pair states are
(K, K) arrays, K = |Sigma|^n.  The Fourier transform is the n m-fold tensor
power of the trace-character transform on F_q.  In characteristic 2 that
matrix is real (entries +-1/sqrt(q)) and involutive, but amplitudes are
kept complex so odd characteristic is not structurally excluded.

The main pipeline computes, exactly:

- the two error masses eps = sum over BAD pairs of |Vhat(x) What(e)|^2 and
  delta = sum_z |sum over BAD pairs with x+e=z of Vhat(x) What(e)|^2,
- the actual output state (I x QFT^-1) U_F U_add (QFT x QFT) |psi>|phi>,
- the ideal state |Sigma|^(n/2) sum_z (V.W)(z) |0>|z>,

and asserts that their Euclidean distance is at most sqrt(eps) +
sqrt(delta), which is the guarantee the protocol's analysis rests on.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

import numpy as np

from . import codes, instances
from .budget import DEFAULT_ENUM_BUDGET, amplitude_budget
from .codes import CodeSpec, DecoderParams
from .errors import BudgetExceeded, EmptySupport, LengthMismatch
from .gf import FieldCtx
from .instances import OracleInstance

_DENSE_QFT_LIMIT = 1 << 12
_GOOD_PAIR_CAP = 1 << 20


# -- Fourier kernels -------------------------------------------------------------


def qft_matrix(ctx: FieldCtx) -> np.ndarray:
    """Trace-character transform on F_q: entry (z, x) = (-1)^Tr(x z)/sqrt(q).

    Real in characteristic 2; unitary and involutive.
    """
    q = ctx.q
    if q > _DENSE_QFT_LIMIT:
        raise BudgetExceeded(f"dense transform for q={q} exceeds the budget")
    signs = np.empty((q, q), dtype=np.float64)
    for x in range(q):
        for z in range(x, q):
            val = -1.0 if ctx.trace(ctx.mul(x, z)) else 1.0
            signs[x, z] = val
            signs[z, x] = val
    return signs / math.sqrt(q)


def sigma_qft_matrix(ctx: FieldCtx, m: int) -> np.ndarray:
    """Transform over Sigma = F_q^m as an m-fold Kronecker power; symbol
    ranks put the first F_q digit in the most-significant position."""
    base = qft_matrix(ctx)
    if ctx.q**m > _DENSE_QFT_LIMIT:
        raise BudgetExceeded(f"|Sigma| = {ctx.q ** m} exceeds the dense budget")
    out = np.array([[1.0]])
    for _ in range(m):
        out = np.kron(out, base)
    return out


def apply_qft_vec(vec: np.ndarray, kernel: np.ndarray, n: int) -> np.ndarray:
    """Apply kernel to each of the n symbol axes of the last axis of vec
    (length |Sigma|^n); any leading axes are carried along."""
    s = kernel.shape[0]
    t = vec.reshape(vec.shape[:-1] + (s,) * n)
    for axis in range(vec.ndim - 1, t.ndim):
        t = np.tensordot(kernel, t, axes=([1], [axis]))
        t = np.moveaxis(t, 0, axis)
    return t.reshape(vec.shape)


# -- state preparation -------------------------------------------------------------


def prepare_phi(inst: OracleInstance, i: int) -> np.ndarray:
    """Uniform superposition over T_i = {e : H_i(e) = 0}; i is 1-based."""
    support = inst.tables[i - 1] == 0
    size = int(support.sum())
    if size == 0:
        raise EmptySupport(f"table {i} maps every symbol to 1")
    vec = np.zeros(support.size, dtype=np.complex128)
    vec[support] = 1.0 / math.sqrt(size)
    return vec


def prepare_psi(spec: CodeSpec) -> np.ndarray:
    """Uniform superposition over the code as a length-|Sigma|^n vector."""
    total = spec.sigma_size**spec.n
    if total > DEFAULT_ENUM_BUDGET:
        raise BudgetExceeded(f"code state over {total} strings exceeds budget")
    flat = _code_flat_ranks(spec)
    vec = np.zeros(total, dtype=np.complex128)
    vec[flat] = 1.0 / math.sqrt(flat.size)
    return vec


# -- permutation unitaries -----------------------------------------------------------


def apply_add_decode(joint: np.ndarray, F: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """U_add then U_F on a (K, K) pair array indexed by flat ranks, as two
    exact gathers: U_add maps |x>|e> to |x>|x+e> and U_F maps |x>|z> to
    |x - F(z)>|z>.  Symbol-wise addition and subtraction are rank XOR in
    characteristic 2, so both steps are permutations and preserve the norm
    exactly.  Returns the array after U_add and the array after U_F.
    """
    idx = np.arange(joint.shape[0])
    added = np.take_along_axis(joint, idx[:, None] ^ idx[None, :], axis=1)
    return added, added[idx[:, None] ^ F[None, :], idx[None, :]]


def decode_rank_table(spec: CodeSpec, params: DecoderParams) -> np.ndarray:
    """Flat-rank decode table over all of Sigma^n: F[z] = dual_decode(z),
    with 0 standing in for the bottom symbol."""
    sigma = spec.sigma_size
    total = sigma**spec.n
    if total > DEFAULT_ENUM_BUDGET:
        raise BudgetExceeded(f"decode table over {total} strings exceeds budget")
    q = spec.field.q
    decoded = np.zeros((total, spec.N), dtype=np.int64)
    for flat, vec in enumerate(codes.to_digits(np.arange(total), q, spec.N).tolist()):
        dec = codes.dual_decode(spec, params, codes.fold(spec, vec))
        if dec is not None:
            decoded[flat] = codes.unfold(spec, dec)
    return codes.from_digits(decoded, q)


def flat_to_word(spec: CodeSpec, flat: int):
    """The word whose flat rank is flat."""
    return codes.fold(spec, codes.to_digits(flat, spec.field.q, spec.N))


# -- good/bad bookkeeping ---------------------------------------------------------


def default_goodbad(spec: CodeSpec, params: DecoderParams) -> tuple[np.ndarray, np.ndarray]:
    """Product-form GOOD set C-dual x {e : symbol weight of e <= (p +
    epsilon) n}, as the masks (good_x, good_e) over flat ranks.  The
    pipeline verifies F(x+e) = x on it."""
    sigma = spec.sigma_size
    total = sigma**spec.n
    if total > DEFAULT_ENUM_BUDGET:
        raise BudgetExceeded("good/bad masks exceed the enumeration budget")
    dual_spec = codes.dual(spec)
    dual_flat = _code_flat_ranks(dual_spec)
    good_x = np.zeros(total, dtype=bool)
    good_x[dual_flat] = True
    weight_cap = int((Fraction(params.p) + Fraction(params.epsilon)) * spec.n)
    weights = np.count_nonzero(codes.to_digits(np.arange(total), sigma, spec.n), axis=-1)
    good_e = weights <= weight_cap
    return good_x, good_e


def _code_flat_ranks(spec: CodeSpec) -> np.ndarray:
    """Flat ranks of all codewords, in message-rank order."""
    return codes.from_digits(codes.codeword_matrix(spec), spec.field.q)


# -- the main pipeline -------------------------------------------------------------


def add_decode_pipeline(spec: CodeSpec, phis: list[np.ndarray], params: DecoderParams) -> dict:
    """Run the add/decode pipeline exactly on the received per-coordinate
    states and compare with the ideal state.

    phis holds one length-|Sigma| state per coordinate, in coordinate
    order (see prepare_phi); their tensor product is the oracle state.
    Builds the decode table F and the GOOD masks and checks F(x+e) = x on
    GOOD.  Returns eps, delta, the Euclidean distance between actual and
    ideal states with its bound, measurement statistics, and the actual
    state (a dense array over pairs).  Raises AssertionError if GOOD is
    unsound or the distance bound sqrt(eps) + sqrt(delta) + 1e-9 is
    violated.
    """
    sigma = spec.sigma_size
    n = spec.n
    K = sigma**n
    if K * K > amplitude_budget() or K > _DENSE_QFT_LIMIT:
        raise BudgetExceeded(
            f"pair state needs {K * K} amplitudes and a {K}-point transform; "
            "over budget. Use a smaller generic-code toy configuration."
        )
    if len(phis) != n or any(v.shape != (sigma,) for v in phis):
        raise LengthMismatch(f"expected {n} states of length {sigma}")

    # -- input states
    psi = prepare_psi(spec)
    phi = functools.reduce(np.kron, phis)

    kernel = sigma_qft_matrix(spec.field, spec.m)
    vhat = apply_qft_vec(psi, kernel, n)
    what = apply_qft_vec(phi, kernel, n)

    F = decode_rank_table(spec, params)
    gx, ge = default_goodbad(spec, params)
    _assert_good_sound(F, gx, ge)

    # -- error masses over BAD = complement of GOOD
    px = np.abs(vhat) ** 2
    pe = np.abs(what) ** 2
    eps = float(1.0 - px[gx].sum() * pe[ge].sum())
    eps = max(eps, 0.0)

    # After U_add, entry (x, z) holds Vhat(x) What(x+z); in rank space
    # x+e=z iff e = x^z.  conv_bad[z] sums it over BAD pairs, row by row.
    added, joint = apply_add_decode(np.outer(vhat, what), F)
    idx = np.arange(K)
    bad = np.where(gx[:, None] & ge[idx[:, None] ^ idx[None, :]], 0.0, added)
    delta = float((np.abs(bad.sum(axis=0)) ** 2).sum())

    # -- actual state: QFT^-1 on the second register (involutive)
    actual = apply_qft_vec(joint, kernel, n)

    # -- ideal state
    ideal_z = (sigma ** (n / 2)) * psi * phi
    diff = actual.copy()
    diff[0] -= ideal_z
    l2 = float(np.linalg.norm(diff))

    bound = math.sqrt(eps) + math.sqrt(delta) + 1e-9
    if l2 > bound:
        raise AssertionError(
            f"distance {l2} exceeds sqrt(eps)+sqrt(delta) = {bound}"
        )

    meas = np.abs(actual) ** 2
    z_dist = meas.sum(axis=0)
    sol_mask = (np.abs(psi) > 0) & (np.abs(phi) > 0)
    success = float(z_dist[sol_mask].sum())
    return {
        "epsilon": eps,
        "delta": delta,
        "l2_distance": l2,
        "bound": bound,
        "success_probability": success,
        "solution_distribution": z_dist,
        "solution_mask": sol_mask,
        "actual_state": actual,
    }


def _assert_good_sound(F: np.ndarray, gx: np.ndarray, ge: np.ndarray):
    """F(x+e) = x on every GOOD pair, checked in blocks of at most
    _GOOD_PAIR_CAP pairs (GOOD has at most _DENSE_QFT_LIMIT values of e)."""
    xs = np.nonzero(gx)[0]
    es = np.nonzero(ge)[0]
    step = max(1, _GOOD_PAIR_CAP // max(es.size, 1))
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
    strings.
    """
    half = inst.n // 2
    alice_states = [prepare_phi(inst, i) for i in range(1, half + 1)]
    bob_states = [prepare_phi(inst, i) for i in range(half + 1, inst.n + 1)]
    out = add_decode_pipeline(spec, alice_states + bob_states, params)
    z_dist = out["solution_distribution"]
    verified = np.zeros_like(z_dist, dtype=bool)
    support = np.nonzero(z_dist > 1e-12)[0]
    for flat, vec in zip(support, codes.to_digits(support, spec.field.q, spec.N).tolist()):
        verified[flat] = instances.verify(inst, codes.fold(spec, vec))
    out["verified_mass"] = float(z_dist[verified].sum())
    if not np.array_equal(verified, out["solution_mask"] & (z_dist > 1e-12)):
        mism = verified ^ (out["solution_mask"] & (z_dist > 1e-12))
        raise AssertionError(
            f"verifier disagrees with the solution mask on {mism.sum()} strings"
        )
    return out


def sample_measurement(report: dict, rng: np.random.Generator) -> int:
    dist = report["solution_distribution"]
    total = dist.sum()
    return int(rng.choice(dist.size, p=dist / total))


# -- table statistics ---------------------------------------------------------------


def table_fourier_stats(
    ctx: FieldCtx,
    m: int,
    p,
    trials: int | None = None,
    seed: int = 0,
) -> dict:
    """Statistics of the zero-set Fourier mass of a biased table.

    Exact mode (trials=None) enumerates all 2^|Sigma| tables with their
    Bernoulli(p) weights and checks E[|What(0)|^2] = 1 - p exactly, plus
    exact equality of the nonzero-frequency means.  Monte Carlo mode
    returns empirical means with standard errors.  The product rule
    What(e) = prod_i What_i(e_i) is checked exactly on sampled tables.
    """
    p = Fraction(p)
    sigma = ctx.q**m
    kernel_signs = np.rint(
        sigma_qft_matrix(ctx, m) * math.sqrt(sigma)
    ).astype(np.int64)
    if trials is None:
        if sigma > 20:
            raise BudgetExceeded(f"exact mode needs 2^{sigma} table sweeps")
        return _table_stats_exact(sigma, p, kernel_signs)
    return _table_stats_mc(sigma, p, kernel_signs, trials, seed)


def _table_stats_exact(sigma: int, p: Fraction, signs: np.ndarray) -> dict:
    mean0 = Fraction(0)
    means_e = [Fraction(0)] * sigma
    w1, w0 = p, 1 - p
    for table in range(1 << sigma):
        ones = table.bit_count()
        weight = w1**ones * w0 ** (sigma - ones)
        t_size = sigma - ones
        if t_size == 0:
            continue
        mean0 += weight * Fraction(t_size, sigma)
        support = [z for z in range(sigma) if not (table >> z) & 1]
        for e in range(1, sigma):
            char_sum = int(sum(signs[e, z] for z in support))
            means_e[e] += weight * Fraction(char_sum * char_sum, t_size * sigma)
    empty_mass = p**sigma
    out = {
        "sigma": sigma,
        "p": float(p),
        "mean_W0_sq": float(mean0),
        "mean_W0_sq_exact": mean0,
        "mean_W0_sq_nonempty": float(mean0 / (1 - empty_mass)),
        "empty_mass": float(empty_mass),
        "per_element_means": [float(x) for x in means_e[1:]],
        "per_element_exact": means_e[1:],
        "mode": "exact",
    }
    if mean0 != 1 - p:
        raise AssertionError(f"E[|What(0)|^2] = {mean0} != 1 - p = {1 - p}")
    if len(set(means_e[1:])) > 1:
        raise AssertionError("nonzero-frequency means are not all equal")
    return out


def _table_stats_mc(sigma: int, p: Fraction, signs: np.ndarray, trials: int, seed: int) -> dict:
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xC1A166]))
    draws = rng.integers(0, p.denominator, size=(trials, sigma))
    tables = draws < p.numerator
    zeros = ~tables
    t_sizes = zeros.sum(axis=1)
    nonempty = t_sizes > 0
    w0_sq = np.where(nonempty, t_sizes / sigma, 0.0)
    char = zeros.astype(np.int64) @ signs.T  # (trials, sigma): sum_z in T of sign(e, z)
    with np.errstate(divide="ignore", invalid="ignore"):
        we_sq = np.where(
            nonempty[:, None], char.astype(float) ** 2 / (t_sizes[:, None] * sigma), 0.0
        )
    ne = nonempty.sum()
    means = we_sq[nonempty].mean(axis=0)
    ses = we_sq[nonempty].std(axis=0, ddof=1) / math.sqrt(ne)
    return {
        "sigma": sigma,
        "p": float(p),
        "trials": trials,
        "nonempty_trials": int(ne),
        "mean_W0_sq": float(w0_sq.mean()),
        "se_W0_sq": float(w0_sq.std(ddof=1) / math.sqrt(trials)),
        "mean_W0_sq_nonempty": float(w0_sq[nonempty].mean()),
        "per_element_means": [float(x) for x in means[1:]],
        "per_element_se": [float(x) for x in ses[1:]],
        "mode": "mc",
    }


def product_rule_check(ctx: FieldCtx, m: int, n: int, p, seed: int = 0) -> float:
    """Max deviation between transforming a product state as one register
    and the tensor product of per-coordinate transforms, on one sampled
    oracle; anything above 1e-12 raises."""
    p = Fraction(p)
    sigma = ctx.q**m
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x9D0D]))
    kernel = sigma_qft_matrix(ctx, m)
    ws = []
    for _ in range(n):
        while True:
            table = rng.integers(0, p.denominator, size=sigma) < p.numerator
            if not table.all():
                break
        w = (~table).astype(float)
        w /= math.sqrt(w.sum())
        ws.append(w)
    product_of_hats = ws[0] @ kernel
    state = ws[0]
    for w in ws[1:]:
        product_of_hats = np.kron(product_of_hats, w @ kernel)
        state = np.kron(state, w)
    direct = apply_qft_vec(state.astype(np.complex128), kernel, n)
    dev = float(np.max(np.abs(direct - product_of_hats)))
    if dev > 1e-12:
        raise AssertionError(f"product rule violated by {dev}")
    return dev
