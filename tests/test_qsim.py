import functools
import math
import os
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from nullcode import codes, configs, instances, qsim
from nullcode.codes import CodeSpec, DecoderParams
from nullcode.errors import BudgetExceeded, EmptySupport, LengthMismatch
from nullcode.gf import FieldCtx
from test_codes import rank_symbol_loop, symbol_rank_loop
from test_instances import SMALL_SPECS


def toy_setup(seed=0, p=Fraction(1, 16)):
    spec = configs.toy_selfdual_spec()
    params = DecoderParams.for_spec(spec, p)
    inst = instances.sample_instance(spec, p, seed)
    return spec, params, inst


def received_states(inst):
    return [qsim.prepare_phi(inst, i) for i in range(1, inst.n + 1)]


def zero_tables_instance(spec, p=Fraction(1, 16)):
    base = instances.sample_instance(spec, p, 0)
    return instances.with_tables(base, np.zeros_like(base.tables))


def test_qft_q2_matrix():
    mat = qsim.qft_matrix(FieldCtx(1))
    assert mat.tobytes() == np.array([[1.0, 1.0], [1.0, -1.0]]).tobytes()


def qft_matrix_loop(ctx):
    """The trace-character signs entry by entry: one scalar product and
    trace per pair."""
    q = ctx.q
    signs = np.empty((q, q), dtype=np.float64)
    for x in range(q):
        for z in range(x, q):
            val = -1.0 if ctx.trace(ctx.mul(x, z)) else 1.0
            signs[x, z] = val
            signs[z, x] = val
    return signs


@pytest.mark.parametrize("s", [1, 2, 4, 6, 8])
def test_qft_matrix_matches_the_scalar_loop(s):
    ctx = FieldCtx(s)
    got = qsim.qft_matrix(ctx)
    want = qft_matrix_loop(ctx)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_qft_unitary_and_involutive():
    # the sign matrix is symmetric and squares to q I, so over sqrt(q) it
    # is a unitary involution
    for s in (1, 2, 4):
        ctx = FieldCtx(s)
        mat = qsim.qft_matrix(ctx)
        assert np.array_equal(mat, mat.T)
        assert np.array_equal(mat @ mat.T, ctx.q * np.eye(ctx.q))
        assert np.array_equal(mat @ mat, ctx.q * np.eye(ctx.q))
    for s, m in ((1, 2), (2, 2), (1, 4)):
        mat = qsim.sigma_qft_matrix(FieldCtx(s), m)
        sigma = FieldCtx(s).q ** m
        assert np.array_equal(mat @ mat, sigma * np.eye(sigma))


def test_qft_uniform_to_zero():
    for s in (1, 2, 4):
        ctx = FieldCtx(s)
        mat = qsim.qft_matrix(ctx)
        want = np.zeros(ctx.q)
        want[0] = ctx.q
        assert np.array_equal(mat @ np.ones(ctx.q), want)


def apply_qft_vec_tensordot(vec, kernel, n):
    """The Fourier pass as n tensordots, one per symbol axis, each followed
    by a moveaxis that puts the transformed axis back in place."""
    s = kernel.shape[0]
    t = vec.reshape(vec.shape[:-1] + (s,) * n)
    for axis in range(vec.ndim - 1, t.ndim):
        t = np.tensordot(kernel, t, axes=([1], [axis]))
        t = np.moveaxis(t, 0, axis)
    return t.reshape(vec.shape)


@pytest.mark.parametrize("s, m", [(s, m) for s in (1, 2, 4) for m in range(1, 5) if s * m <= 4])
def test_apply_qft_vec_matches_the_tensordot_passes(s, m):
    # |Sigma| = 2^(s m) in {2, 4, 8, 16}, every n with |Sigma|^n <= 4096; a
    # bare vector, a 1-row block, a multi-row block and two leading axes.
    # Integer inputs keep every partial sum exact: equal bit for bit.
    ctx = FieldCtx(s)
    sigma = ctx.q**m
    kernel = qsim.sigma_qft_matrix(ctx, m)
    rng = np.random.default_rng([s, m])
    n = 1
    while sigma**n <= qsim._DENSE_QFT_LIMIT:
        for lead in ((), (1,), (5,), (2, 3)):
            vec = rng.integers(-1000, 1001, size=lead + (sigma**n,)).astype(np.float64)
            got = qsim.apply_qft_vec(vec, kernel, n)
            want = apply_qft_vec_tensordot(vec, kernel, n)
            assert got.shape == want.shape and got.dtype == want.dtype
            assert got.tobytes() == want.tobytes(), (lead, n)
        n += 1


def test_sigma_qft_matrix_is_cached_and_read_only():
    mat = qsim.sigma_qft_matrix(FieldCtx(2), 2)
    assert qsim.sigma_qft_matrix(FieldCtx(2), 2) is mat
    with pytest.raises(ValueError):
        mat[0, 0] = 0.0


def test_prepare_phi():
    spec = configs.toy_selfdual_spec()
    base = instances.sample_instance(spec, Fraction(1, 16), 0)
    tables = np.zeros((4, 4), dtype=np.uint8)
    inst = instances.with_tables(base, tables)
    vec = qsim.prepare_phi(inst, 1)
    assert vec.dtype == np.float64 and vec.tolist() == [1, 1, 1, 1]
    # singleton support
    tables2 = np.ones((4, 4), dtype=np.uint8)
    tables2[2, 3] = 0
    vec2 = qsim.prepare_phi(instances.with_tables(base, tables2), 3)
    assert vec2.tolist() == [0, 0, 0, 1]
    # empty support
    with pytest.raises(EmptySupport):
        qsim.prepare_phi(instances.with_tables(base, np.ones((4, 4), np.uint8)), 1)


def test_phi_hat_zero_amplitude():
    # What_i(0) = sqrt(|T_i| / |Sigma|): the sign transform of 1_T is |T| at 0
    spec = configs.toy_selfdual_spec()
    base = instances.sample_instance(spec, Fraction(1, 16), 1)
    tables = np.zeros((4, 4), dtype=np.uint8)
    tables[0, 2] = 1
    inst = instances.with_tables(base, tables)
    vec = qsim.prepare_phi(inst, 1)
    kernel = qsim.sigma_qft_matrix(spec.field, spec.m)
    hat = kernel @ vec
    assert hat[0] == 3 and (hat * hat).sum() == 4 * 3


def test_prepare_psi_support_is_dual_after_qft():
    spec = configs.toy_selfdual_spec()
    psi = qsim.prepare_psi(spec)
    want_psi = np.zeros(psi.size)
    want_psi[qsim._code_flat_ranks(spec)] = 1
    assert np.array_equal(psi, want_psi)
    kernel = qsim.sigma_qft_matrix(spec.field, spec.m)
    hat = qsim.apply_qft_vec(psi, kernel, spec.n)
    want = np.zeros(psi.size)
    want[qsim._code_flat_ranks(codes.dual(spec))] = spec.size
    assert np.array_equal(hat, want)


def test_trivial_code_qft():
    # C = {0}: the transform of |0..0> is uniform
    spec = configs.toy_repetition_spec(n=1, s=2)
    kernel = qsim.sigma_qft_matrix(spec.field, 1)
    zero_vec = np.zeros(4)
    zero_vec[0] = 1
    assert np.array_equal(kernel @ zero_vec, np.ones(4))


def test_pipeline_all_zero_oracle():
    spec, params, _ = toy_setup()
    inst = zero_tables_instance(spec)
    out = qsim.add_decode_pipeline(spec, received_states(inst), params)
    assert out["epsilon_exact"] == 0 and out["delta_exact"] == 0
    assert out["l2_squared_exact"] == 0 and out["success_exact"] == 1
    assert (out["epsilon"], out["delta"], out["l2_distance"]) == (0, 0, 0)
    assert out["success_probability"] == 1


def within_bound(out):
    """l2 <= sqrt(eps) + sqrt(delta), decided exactly on the Fractions."""
    excess = out["l2_squared_exact"] - out["epsilon_exact"] - out["delta_exact"]
    return excess <= 0 or excess**2 <= 4 * out["epsilon_exact"] * out["delta_exact"]


def test_pipeline_bound_on_random_instance():
    spec, params, inst = toy_setup(seed=3)
    out = qsim.add_decode_pipeline(spec, received_states(inst), params)
    assert within_bound(out)
    assert out["l2_distance"] <= out["bound"]


def test_pipeline_bound_random_seeds():
    spec, params, _ = toy_setup()
    done = 0
    seed = 0
    while done < 25:
        inst = instances.sample_instance(spec, Fraction(1, 16), seed)
        seed += 1
        try:
            out = qsim.add_decode_pipeline(spec, received_states(inst), params)
        except EmptySupport:
            continue
        done += 1
        assert within_bound(out)
        assert out["l2_distance"] <= out["bound"]
        assert out["epsilon_exact"] >= 0 and out["delta_exact"] >= 0


def test_norm_preserved_through_pipeline():
    # the measurement mass over S K^3 sums to exactly 1, and the reported
    # distribution is that mass over its denominator
    spec, params, inst = toy_setup(seed=12)
    phis = received_states(inst)
    out = qsim.add_decode_pipeline(spec, phis, params)
    F = qsim.decode_rank_table(spec, params)
    gx, ge = qsim.default_goodbad(spec, params)
    exact = exact_pipeline_loop(spec, phis, F, gx, ge)
    assert sum(exact["mass"]) == exact["total"]
    want = np.array(exact["mass"], dtype=np.int64) / exact["total"]
    assert np.array_equal(out["solution_distribution"], want)


def f16_parity_spec():
    """The F_16 parity code [3, 2]: K = 16^3 = 4096, the largest K the dense
    referee admits, and |C-dual| = 16."""
    return CodeSpec(kind="generic-linear", field=FieldCtx(4), m=1, genmat=((1, 0, 1), (0, 1, 1)))


@pytest.mark.parametrize("build, p", [(configs.toy_selfdual_spec, Fraction(1, 16)), (f16_parity_spec, Fraction(1, 8))])
def test_pipeline_forms_only_the_rows_of_the_dual(build, p, monkeypatch):
    # the transform sees psi, phi and then the pair-state rows y in C-dual,
    # in rank order: 16 rows of 256 in one block on the toy code, 16 rows
    # of 4096 in four blocks on the parity code
    spec = build()
    params = DecoderParams.for_spec(spec, p)
    phis = received_states(instances.sample_instance(spec, p, 0))
    calls = []
    apply = qsim.apply_qft_vec

    def recording_apply(vec, kernel, n):
        calls.append(vec.copy())
        return apply(vec, kernel, n)

    monkeypatch.setattr(qsim, "apply_qft_vec", recording_apply)
    qsim.add_decode_pipeline(spec, phis, params)
    K = spec.sigma_size**spec.n
    psi, phi, *blocks = calls
    rows = np.sort(qsim._code_flat_ranks(codes.dual(spec)))
    assert psi.shape == phi.shape == (K,) and all(b.ndim == 2 for b in blocks)
    assert sum(len(b) for b in blocks) == rows.size == K // spec.size
    assert len(blocks) == -(-rows.size // max(1, qsim._CELL_CAP // K))
    kernel = qsim.sigma_qft_matrix(spec.field, spec.m)
    v = apply_qft_vec_tensordot(psi, kernel, spec.n)
    w = apply_qft_vec_tensordot(phi, kernel, spec.n)
    x = rows[:, None] ^ qsim.decode_rank_table(spec, params)
    assert np.array_equal(np.concatenate(blocks), v[x] * w[x ^ np.arange(K)])


def sign_matrix_loop(spec):
    """The sign kernel over Sigma^n as a dense int64 Kronecker power of
    qft_matrix_loop's signs on F_q."""
    base = qft_matrix_loop(spec.field).astype(np.int64)
    return functools.reduce(np.kron, [base] * (spec.m * spec.n))


def exact_pipeline_loop(spec, phis, F, gx, ge):
    """Exact oracle for the referee in integers over S K^3, S = |C| |T|:
    the sign transforms of 1_C and 1_T by the dense Kronecker-power
    matrix, delta's column sums and the pair state after U_add and U_F by
    a loop over the first register's x, the inverse transform as one
    dense product, and the distance entry by entry from the ideal state
    K^2 1_{C and T} in row 0."""
    K = spec.sigma_size**spec.n
    H = sign_matrix_loop(spec)
    psi = np.zeros(K, dtype=np.int64)
    psi[qsim._code_flat_ranks(spec)] = 1
    phi = functools.reduce(np.kron, [v.astype(np.int64) for v in phis])
    v, w = H @ psi, H @ phi
    S = int(psi.sum()) * int(phi.sum())
    z = np.arange(K)
    conv = np.zeros(K, dtype=np.int64)
    joint = np.zeros((K, K), dtype=np.int64)
    for x in range(K):
        amp = v[x] * w[x ^ z]
        conv += np.where(gx[x] & ge[x ^ z], 0, amp)
        joint[x ^ F, z] = amp
    actual = joint @ H.T
    diff = actual.copy()
    diff[0] -= K * K * psi * phi
    mass = [int(col) for col in (actual * actual).sum(axis=0)]
    good_v = sum(int(v[x]) ** 2 for x in np.nonzero(gx)[0])
    good_w = sum(int(w[e]) ** 2 for e in np.nonzero(ge)[0])
    total = S * K**3
    return {
        "epsilon_exact": Fraction(S * K * K - good_v * good_w, S * K * K),
        "delta_exact": Fraction(sum(int(c) ** 2 for c in conv), S * K * K),
        "l2_squared_exact": Fraction(int((diff * diff).sum()), total),
        "success_exact": Fraction(sum(mass[i] for i in np.nonzero(psi * phi)[0]), total),
        "mass": mass,
        "total": total,
    }


def reference_pipeline(spec, phis, F, gx, ge):
    """Slow float oracle for the referee on normalised complex states:
    delta from a per-x loop over the first register, QFT^-1 as a dense
    Kronecker-power matrix."""
    sigma, n = spec.sigma_size, spec.n
    K = sigma**n
    kernel = qsim.sigma_qft_matrix(spec.field, spec.m) / math.sqrt(sigma)
    psi = qsim.prepare_psi(spec).astype(np.complex128)
    psi /= np.linalg.norm(psi)
    phi = functools.reduce(np.kron, [v / np.linalg.norm(v) for v in phis]).astype(np.complex128)
    vhat = qsim.apply_qft_vec(psi, kernel, n)
    what = qsim.apply_qft_vec(phi, kernel, n)
    eps = float(1.0 - (np.abs(vhat) ** 2)[gx].sum() * (np.abs(what) ** 2)[ge].sum())
    idx = np.arange(K)
    conv_bad = np.zeros(K, dtype=np.complex128)
    joint = np.zeros((K, K), dtype=np.complex128)
    for x in range(K):
        contrib = vhat[x] * what[idx ^ x]
        joint[x ^ F, idx] = contrib
        if gx[x]:
            contrib = np.where(ge[idx ^ x], 0.0, contrib)
        conv_bad += contrib
    actual = joint @ functools.reduce(np.kron, [kernel] * n).T
    diff = actual.copy()
    diff[0] -= sigma ** (n / 2) * psi * phi
    z_dist = (np.abs(actual) ** 2).sum(axis=0)
    return {
        "epsilon": max(eps, 0.0),
        "delta": float((np.abs(conv_bad) ** 2).sum()),
        "l2_distance": float(np.linalg.norm(diff)),
        "success_probability": float(z_dist[(psi != 0) & (phi != 0)].sum()),
        "solution_distribution": z_dist,
    }


EXACT_KEYS = {
    "epsilon": "epsilon_exact",
    "delta": "delta_exact",
    "success_probability": "success_exact",
}


def check_against_oracles(spec, phis, params):
    """The pipeline's exact keys equal the integer loop oracle, each float
    key is the float of its Fraction, the float keys lie within 1e-12 of
    the complex oracle, and the bound holds exactly."""
    F = qsim.decode_rank_table(spec, params)
    gx, ge = qsim.default_goodbad(spec, params)
    out = qsim.add_decode_pipeline(spec, phis, params)
    exact = exact_pipeline_loop(spec, phis, F, gx, ge)
    ref = reference_pipeline(spec, phis, F, gx, ge)
    for key in ("l2_squared_exact", *EXACT_KEYS.values()):
        assert out[key] == exact[key], key
    for key, exact_key in EXACT_KEYS.items():
        assert out[key] == float(out[exact_key]), key
    assert out["l2_distance"] == math.sqrt(out["l2_squared_exact"])
    assert out["bound"] == math.sqrt(out["epsilon_exact"]) + math.sqrt(out["delta_exact"])
    for key in ("l2_distance", *EXACT_KEYS):
        assert abs(out[key] - ref[key]) <= 1e-12, key
    assert np.abs(out["solution_distribution"] - ref["solution_distribution"]).max() <= 1e-12
    assert within_bound(out)


def test_pipeline_matches_reference_oracle():
    spec, params, _ = toy_setup()
    done = 0
    seed = 0
    while done < 20:
        inst = instances.sample_instance(spec, Fraction(1, 16), seed)
        seed += 1
        try:
            phis = received_states(inst)
        except EmptySupport:
            continue
        done += 1
        check_against_oracles(spec, phis, params)


def test_pipeline_always_checks_good_soundness(monkeypatch):
    # a decode table that sends every word to 0 breaks F(x+e) = x on GOOD
    spec, params, inst = toy_setup(seed=3)
    zero_table = lambda spec, params: np.zeros(spec.sigma_size**spec.n, np.int64)
    monkeypatch.setattr(qsim, "decode_rank_table", zero_table)
    with pytest.raises(AssertionError, match="GOOD set contains a pair"):
        qsim.add_decode_pipeline(spec, received_states(inst), params)


def test_pipeline_checks_the_bound_exactly(monkeypatch):
    # with the GOOD check skipped, the all-zero decode table leaves the
    # actual state far from the ideal one, beyond sqrt(eps) + sqrt(delta)
    spec, params, inst = toy_setup(seed=3)
    zero_table = lambda spec, params: np.zeros(spec.sigma_size**spec.n, np.int64)
    monkeypatch.setattr(qsim, "decode_rank_table", zero_table)
    monkeypatch.setattr(qsim, "_assert_good_sound", lambda F, gx, ge: None)
    want = r"squared distance 15/8 exceeds \(sqrt\(7/16\) \+ sqrt\(7/16\)\)\^2"
    with pytest.raises(AssertionError, match=want):
        qsim.add_decode_pipeline(spec, received_states(inst), params)


@pytest.mark.parametrize("bad_x", [0, 1, 1000, 2047])
def test_good_soundness_is_checked_on_every_pair(bad_x):
    # 2048 x 1024 GOOD pairs, 128 of the check's blocks; x = 1024 j and
    # e < 1024 make every x + e = x | e distinct, so one wrong entry of F
    # breaks exactly one pair
    gx = np.zeros(1 << 21, dtype=bool)
    gx[::1024] = True
    ge = np.ones(1024, dtype=bool)
    F = np.arange(1 << 21) & ~1023
    qsim._assert_good_sound(F, gx, ge)
    F[1024 * bad_x + 517] ^= 1024
    with pytest.raises(AssertionError, match="GOOD set contains a pair"):
        qsim._assert_good_sound(F, gx, ge)


def test_referee_consumes_only_received_states(monkeypatch):
    # the players prepare each coordinate's state once; the referee works
    # from those states and never prepares its own from the tables
    spec, params, inst = toy_setup(seed=5)
    calls = []
    prepare = qsim.prepare_phi

    def counting_prepare(inst, i):
        calls.append(i)
        return prepare(inst, i)

    monkeypatch.setattr(qsim, "prepare_phi", counting_prepare)
    qsim.run_smp_protocol(spec, inst, params)
    assert sorted(calls) == list(range(1, spec.n + 1))
    with pytest.raises(LengthMismatch):
        qsim.add_decode_pipeline(spec, received_states(inst)[:-1], params)


def test_referee_verifies_every_string_with_positive_mass(monkeypatch):
    # seed 1 puts masses as small as 1/3072 on some strings
    spec, params, inst = toy_setup(seed=1)
    seen = []
    verify_flat = instances.verify_flat

    def recording_verify_flat(inst, flats):
        seen.append(flats)
        return verify_flat(inst, flats)

    monkeypatch.setattr(instances, "verify_flat", recording_verify_flat)
    rep = qsim.run_smp_protocol(spec, inst, params)
    F = qsim.decode_rank_table(spec, params)
    gx, ge = qsim.default_goodbad(spec, params)
    mass = np.array(exact_pipeline_loop(spec, received_states(inst), F, gx, ge)["mass"])
    assert np.array_equal(np.concatenate(seen), np.nonzero(mass > 0)[0])
    assert rep["verified_mass"] == rep["success_probability"]
    masses = rep["solution_masses"]
    assert np.array_equal(masses / masses.sum(), rep["solution_distribution"])


def test_smp_all_zero():
    spec, params, _ = toy_setup()
    inst = zero_tables_instance(spec)
    rep = qsim.run_smp_protocol(spec, inst, params)
    assert rep["success_exact"] == 1
    assert rep["verified_mass"] == rep["success_probability"] == 1
    # uniform over the code
    dist = rep["solution_distribution"]
    live = dist[dist > 0]
    assert len(live) == spec.size
    assert (live == 1 / spec.size).all()


def test_smp_all_ones_raises():
    spec, params, _ = toy_setup()
    base = instances.sample_instance(spec, Fraction(1, 16), 0)
    inst = instances.with_tables(base, np.ones_like(base.tables))
    with pytest.raises(EmptySupport):
        qsim.run_smp_protocol(spec, inst, params)


def test_smp_success_bound():
    spec, params, _ = toy_setup()
    done = 0
    seed = 100
    while done < 15:
        inst = instances.sample_instance(spec, Fraction(1, 16), seed)
        seed += 1
        try:
            rep = qsim.run_smp_protocol(spec, inst, params)
        except EmptySupport:
            continue
        done += 1
        bound = math.sqrt(rep["epsilon"]) + math.sqrt(rep["delta"])
        assert rep["success_probability"] >= 1 - bound - 1e-9


# A spawned process starts with its parent's peak RSS as its own, so a small
# launcher runs the code in a grandchild and reads the run's peak (kilobytes
# on Linux) with getrusage(RUSAGE_CHILDREN), which covers the launcher's one
# child.
LAUNCHER = """
import resource, subprocess, sys, time
start = time.monotonic()
subprocess.run([sys.executable, "-c", sys.argv[1]], check=True)
print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss, time.monotonic() - start)
"""


def child_peak(code: str) -> tuple[float, float]:
    """Peak RSS in MB and wall time in seconds of code run in a fresh
    interpreter that imports this source tree."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(qsim.__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-c", LAUNCHER, code], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    peak_kb, elapsed = proc.stdout.split()
    return int(peak_kb) / 1024, float(elapsed)


# One referee run on the F_16 parity code [3, 2] at p = 1/8: K = 16^3 = 4096,
# the largest K the dense referee admits.
K4096_RUN = """
from fractions import Fraction
from nullcode import instances, qsim
from nullcode.codes import CodeSpec, DecoderParams
from nullcode.gf import FieldCtx

spec = CodeSpec(kind="generic-linear", field=FieldCtx(4), m=1, genmat=((1, 0, 1), (0, 1, 1)))
p = Fraction(1, 8)
inst = instances.sample_instance(spec, p, 0)
out = qsim.run_smp_protocol(spec, inst, DecoderParams.for_spec(spec, p))
assert out["success_exact"] > 0
"""


def test_referee_at_k_4096_runs_in_a_child_under_200_mb():
    spec = f16_parity_spec()
    assert spec.sigma_size**spec.n == 4096 == qsim._DENSE_QFT_LIMIT
    peak_mb, elapsed = child_peak(K4096_RUN)
    assert peak_mb < 200, f"peak RSS {peak_mb:.0f} MB"
    assert elapsed < 2, f"{elapsed:.1f} s"


LARGE_PARAMS = DecoderParams(p=Fraction(1, 64), radius_unfolded=0)


def test_budget_rejects_large_preset():
    spec = codes.preset(2)
    base = instances.sample_instance(spec, Fraction(1, 64), 0)
    with pytest.raises(BudgetExceeded):
        qsim.add_decode_pipeline(spec, received_states(base), LARGE_PARAMS)


@pytest.mark.parametrize(
    "build",
    [
        qsim.prepare_psi,
        lambda spec: qsim.decode_rank_table(spec, LARGE_PARAMS),
        lambda spec: qsim.default_goodbad(spec, LARGE_PARAMS),
        lambda spec: qsim.add_decode_pipeline(spec, [], LARGE_PARAMS),
    ],
    ids=["prepare_psi", "decode_rank_table", "default_goodbad", "add_decode_pipeline"],
)
@pytest.mark.parametrize(
    "spec, log_size",
    [
        (codes.preset(2), 60),
        # |C| = 4 and |C-dual| = 2^16 are enumerable, so only the gate on
        # K = |Sigma|^n itself can stop this one
        (configs.toy_repetition_spec(n=9, s=2), 18),
        # one step over the limit
        (configs.toy_repetition_spec(n=13, s=1), 13),
    ],
    ids=["preset2", "repetition9", "repetition13"],
)
def test_sigma_n_gates_raise_over_budget(build, spec, log_size):
    assert spec.sigma_size**spec.n == 1 << log_size  # over the 2^12 limit
    for _ in range(2):  # the gate raises before anything is cached, so again
        with pytest.raises(BudgetExceeded, match=f"= {1 << log_size} exceeds the dense limit 4096"):
            build(spec)


def stats_record(sigma, p, mean0, empty_mass, per_element):
    """The record table_fourier_stats returns, built from exact values;
    per_element holds E|What(e)|^2 for every e != 0, and they must agree."""
    value = per_element[0] if per_element else None
    assert len(per_element) == sigma - 1 and all(x == value for x in per_element)
    return {
        "sigma": sigma,
        "p": float(p),
        "mean_W0_sq": float(mean0),
        "mean_W0_sq_exact": mean0,
        "mean_W0_sq_nonempty": float(mean0 / (1 - empty_mass)) if empty_mass != 1 else None,
        "empty_mass": float(empty_mass),
        "per_element_mean": None if value is None else float(value),
        "per_element_exact": value,
        "mode": "exact",
    }


@functools.cache
def _sweep_sums(sigma):
    """Every one of the 2^|Sigma| tables over Sigma = F_2^m, grouped by the
    size t of its zero set T: the number of tables, and for each frequency
    e the sum of S(e)^2, S(e) = sum over z in T of the character sign at
    (e, z)."""
    m = sigma.bit_length() - 1
    signs = qsim.sigma_qft_matrix(FieldCtx(1), m).astype(np.int64)
    zeros = 1 - ((np.arange(1 << sigma)[:, None] >> np.arange(sigma)) & 1)
    t_sizes = zeros.sum(axis=1)
    sq = np.zeros((sigma + 1, sigma), dtype=np.int64)
    np.add.at(sq, t_sizes, (zeros @ signs.T) ** 2)
    return np.bincount(t_sizes, minlength=sigma + 1).tolist(), sq.tolist()


def table_stats_sweep(sigma, p):
    """The statistics by summing over all 2^|Sigma| Bernoulli(p) tables: a
    table whose zero set has t elements has weight p^(|Sigma| - t)
    (1 - p)^t, |What(0)|^2 = t/|Sigma| and |What(e)|^2 = S(e)^2/(t |Sigma|);
    the empty table contributes 0."""
    counts, sq = _sweep_sums(sigma)
    p = Fraction(p)
    mean0 = Fraction(0)
    per_element = [Fraction(0)] * sigma
    for t in range(1, sigma + 1):
        weight = p ** (sigma - t) * (1 - p) ** t
        mean0 += counts[t] * weight * Fraction(t, sigma)
        for e in range(1, sigma):
            per_element[e] += weight * Fraction(sq[t][e], t * sigma)
    return stats_record(sigma, p, mean0, counts[0] * p**sigma, per_element[1:])


def table_stats_t_sum(sigma, p):
    """The statistics for 0 < p = a/b < 1 by summing over the size
    t ~ Bin(|Sigma|, 1 - p) of the zero set, with E[|What(0)|^2 | t] =
    t/|Sigma| and, since a nontrivial character takes each sign on half of
    Sigma, E[|What(e)|^2 | t] = (|Sigma| - t)/(|Sigma| (|Sigma| - 1)).  The
    binomial weights b^|Sigma| P(t) = C(|Sigma|, t) (b - a)^t a^(|Sigma| - t)
    are integers, each computed exactly from the one before."""
    p = Fraction(p)
    assert 0 < p < 1 and sigma > 1
    a, b = p.numerator, p.denominator
    term = empty = a**sigma
    total = sum0 = 0
    for t in range(1, sigma + 1):
        term = term * ((b - a) * (sigma - t + 1)) // (t * a)
        total += term
        sum0 += term * t
    assert empty + total == b**sigma  # the weights sum to 1
    sum_e = sigma * total - sum0
    denom = b**sigma * sigma
    per_element = Fraction(sum_e, denom * (sigma - 1))
    return stats_record(
        sigma, p, Fraction(sum0, denom), Fraction(empty, b**sigma), [per_element] * (sigma - 1)
    )


def test_table_stats_exact_quarter():
    st = qsim.table_fourier_stats(FieldCtx(1), 2, Fraction(1, 4))
    assert st["mean_W0_sq_exact"] == Fraction(3, 4)
    assert st["per_element_exact"] == Fraction(21, 256)  # (1/4)(1 - 1/64)/3


def test_table_stats_p_zero():
    st = qsim.table_fourier_stats(FieldCtx(1), 2, Fraction(0, 1))
    assert st["mean_W0_sq"] == 1.0


def test_table_stats_budget():
    # no budget caps the closed form: |Sigma| = 32 has 2^32 tables
    st = qsim.table_fourier_stats(FieldCtx(1), 5, Fraction(1, 4))
    assert st == table_stats_t_sum(32, Fraction(1, 4))


@pytest.mark.parametrize(
    "sigma, p",
    [(256, Fraction(1, 4)), (256, Fraction(2, 3)), (256, Fraction(7, 9)), (65536, Fraction(1, 4))],
)
def test_table_stats_match_t_sum(sigma, p):
    st = qsim.table_fourier_stats(FieldCtx(1), sigma.bit_length() - 1, p)
    assert st == table_stats_t_sum(sigma, p)


def test_table_stats_read_a_float_bias_as_its_decimal():
    exact = qsim.table_fourier_stats(FieldCtx(1), 2, Fraction(1, 10))
    assert qsim.table_fourier_stats(FieldCtx(1), 2, 0.1) == exact
    assert exact["mean_W0_sq_exact"] == Fraction(9, 10)


@pytest.mark.parametrize("p", [Fraction(-1, 4), Fraction(5, 4), Fraction(3, 2)])
def test_table_stats_reject_a_bias_outside_the_unit_interval(p):
    with pytest.raises(ValueError, match=r"bias must lie in \[0, 1\]"):
        qsim.table_fourier_stats(FieldCtx(1), 2, p)


def test_product_rule():
    assert qsim.product_rule_check(FieldCtx(1), 2, 3, Fraction(1, 8), seed=4) == 0
    assert qsim.product_rule_check(FieldCtx(1), 2, 3, 0.1, seed=4) == 0
    assert qsim.product_rule_check(FieldCtx(2), 1, 2, Fraction(1, 4), seed=5) == 0


def flat_to_word_loop(spec, flat):
    """The word of a flat rank by peeling base-|Sigma| digits, least
    significant first, and the symbol of each by rank_symbol_loop."""
    ranks = []
    for _ in range(spec.n):
        ranks.append(flat % spec.sigma_size)
        flat //= spec.sigma_size
    return tuple(rank_symbol_loop(spec, r) for r in reversed(ranks))


def word_to_flat_loop(spec, word):
    flat = 0
    for sym in word:
        flat = flat * spec.sigma_size + symbol_rank_loop(spec, sym)
    return flat


@pytest.mark.filterwarnings("ignore:preset t=1 is degenerate")
@pytest.mark.parametrize("dual", [False, True], ids=["code", "dual"])
@pytest.mark.parametrize(
    "build",
    [configs.toy_selfdual_spec, configs.toy_repetition_spec]
    + [functools.partial(codes.preset, t) for t in (1, 2, 3)],
    ids=["selfdual", "repetition", "t1", "t2", "t3"],
)
def test_code_flat_ranks_match_the_digit_loops(build, dual):
    spec = codes.dual(build()) if dual else build()
    if spec.size > 1 << 16:
        with pytest.raises(BudgetExceeded):
            qsim._code_flat_ranks(spec)
        return
    ranks = codes.codeword_rank_matrix(spec)
    flat = np.zeros(ranks.shape[0], dtype=np.int64)
    for i in range(spec.n):
        flat = flat * spec.sigma_size + ranks[:, i]
    assert np.array_equal(qsim._code_flat_ranks(spec), flat)
    words = [codes.fold(spec, row) for row in codes.codeword_matrix(spec)]
    assert [word_to_flat_loop(spec, w) for w in words] == flat.tolist()
    assert [qsim.flat_to_word(spec, f) for f in flat.tolist()] == words


def test_flat_to_word_matches_the_digit_loop():
    for spec in (configs.toy_selfdual_spec(), configs.toy_repetition_spec(n=3, s=2)):
        for flat in range(spec.sigma_size**spec.n):
            word = qsim.flat_to_word(spec, flat)
            assert word == flat_to_word_loop(spec, flat)
            assert word_to_flat_loop(spec, word) == flat


def decode_table_loop(spec, params):
    """The decode table with one dual_decode per word of Sigma^n."""
    want = np.zeros(spec.sigma_size**spec.n, dtype=np.int64)
    for flat in range(want.size):
        dec = codes.dual_decode(spec, params, flat_to_word_loop(spec, flat))
        if dec is not None:
            want[flat] = word_to_flat_loop(spec, dec)
    return want


@pytest.mark.parametrize("p", [Fraction(1, 16), Fraction(1, 64)])
def test_decode_rank_table_matches_a_per_word_loop(p):
    spec = configs.toy_selfdual_spec()
    params = DecoderParams.for_spec(spec, p)
    assert np.array_equal(qsim.decode_rank_table(spec, params), decode_table_loop(spec, params))


@pytest.mark.parametrize("name", [*SMALL_SPECS, "f16-parity"])
def test_decode_rank_table_matches_a_per_word_loop_at_every_radius(name):
    # radii past unique decoding included: there a word with two or more
    # dual codewords in reach decodes to bottom, i.e. 0.  The F_16 parity
    # code (K = 4096) has a dual of distance 3, so radii 2 and 3 are
    # ambiguous, and at radius 0 only 1 of its 256 cosets is decoded.
    spec = {**SMALL_SPECS, "f16-parity": f16_parity_spec}[name]()
    for radius in range(spec.N + 1):
        params = DecoderParams(Fraction(1, 16), radius)
        assert np.array_equal(qsim.decode_rank_table(spec, params), decode_table_loop(spec, params))


@pytest.mark.parametrize("radius", [2, 3])
def test_decode_rank_table_is_0_where_the_list_is_ambiguous(radius):
    # the self-dual toy's dual has distance 4, so radius 2 is past unique decoding
    spec = configs.toy_selfdual_spec()
    dual_unf = replace(codes.dual(spec), m=1)
    params = DecoderParams(Fraction(1, 16), radius)
    F = qsim.decode_rank_table(spec, params)
    words = codes.to_digits(np.arange(F.size), 2, spec.N)
    sizes = np.array([len(codes.list_decode(dual_unf, codes.fold(dual_unf, w), radius)) for w in words])
    assert (sizes > 1).any()
    assert not F[sizes != 1].any()


@pytest.mark.parametrize("name", [name for name in SMALL_SPECS if name.startswith("grs")])
def test_decode_rank_table_matches_the_loop_through_the_syndrome_decoder(name, monkeypatch):
    # no dual fits the enumeration budget, so each decode is a syndrome decode
    spec = SMALL_SPECS[name]()
    monkeypatch.setattr(codes, "DEFAULT_ENUM_BUDGET", 1)
    for radius in range((spec.N - codes.dual(spec).k - 1) // 2 + 1):
        params = DecoderParams(Fraction(1, 16), radius)
        assert np.array_equal(qsim.decode_rank_table(spec, params), decode_table_loop(spec, params))


def decode_calls(spec, params, monkeypatch):
    """The number of dual_decode calls that build the decode table."""
    calls = []
    decode = codes.dual_decode

    def counting_decode(*args):
        calls.append(args)
        return decode(*args)

    monkeypatch.setattr(codes, "dual_decode", counting_decode)
    qsim.decode_rank_table(spec, params)
    monkeypatch.undo()
    return len(calls)


@pytest.mark.parametrize("build, p", [(configs.toy_selfdual_spec, Fraction(1, 16)), (f16_parity_spec, Fraction(1, 8))])
def test_decode_rank_table_decodes_only_the_zero_coset_at_radius_0(build, p, monkeypatch):
    # 16 cosets on the toy code and 256 on the parity code; at radius 0
    # only the zero word is within reach
    spec = build()
    params = DecoderParams.for_spec(spec, p)
    assert params.radius_unfolded == 0
    assert decode_calls(spec, params, monkeypatch) == 1


@pytest.mark.parametrize("radius, want", [(1, 9), (2, 16), (3, 16)])
def test_decode_rank_table_decodes_each_coset_with_a_word_in_reach(radius, want, monkeypatch):
    # a word's list size is the number of words of its coset within the
    # radius, the same for every word of the coset, so the cosets holding
    # such a word number the words with a nonempty list over |C-dual|: at
    # radius 1 the zero coset and the 8 of weight 1, from radius 2 (the
    # covering radius) all 16
    spec = configs.toy_selfdual_spec()
    dual_unf = replace(codes.dual(spec), m=1)
    words = codes.to_digits(np.arange(spec.sigma_size**spec.n), 2, spec.N)
    sizes = np.array([len(codes.list_decode(dual_unf, codes.fold(dual_unf, w), radius)) for w in words])
    nonempty, rem = divmod(np.count_nonzero(sizes), codes.dual(spec).size)
    assert rem == 0 and nonempty == want
    params = DecoderParams(Fraction(1, 16), radius)
    assert decode_calls(spec, params, monkeypatch) == nonempty


@pytest.mark.parametrize("radius, decodes", [(0, False), (2, True)])
def test_decode_rank_table_checks_each_decode_against_its_census(radius, decodes, monkeypatch):
    # a decoder that finds nothing contradicts the zero word in reach at
    # radius 0; one that always finds the leader contradicts the cosets
    # with four words in reach at radius 2
    spec = configs.toy_selfdual_spec()
    params = DecoderParams(Fraction(1, 16), radius)
    monkeypatch.setattr(codes, "dual_decode", lambda spec, params, z: z if decodes else None)
    with pytest.raises(AssertionError, match="words within the radius"):
        qsim.decode_rank_table(spec, params)


def test_decode_table_good_on_dual():
    spec, params, _ = toy_setup()
    F = qsim.decode_rank_table(spec, params)
    dual_flat = qsim._code_flat_ranks(codes.dual(spec))
    assert np.array_equal(F[dual_flat], dual_flat)


# -- the (code, decoder)-only structures, cached per process ------------------------


def cached_structures(spec, params):
    """(name, cached value, uncached recomputation) for the coset census,
    the GOOD masks and psi; each value is a tuple of arrays."""
    radius = params.radius_unfolded
    return [
        ("census", qsim._coset_census(spec, radius), qsim._coset_census.__wrapped__(spec, radius)),
        ("goodbad", qsim.default_goodbad(spec, params), qsim.default_goodbad.__wrapped__(spec, params)),
        ("psi", (qsim.prepare_psi(spec),), (qsim.prepare_psi.__wrapped__(spec),)),
    ]


@pytest.mark.parametrize("name", [*SMALL_SPECS, "f16-parity"])
def test_cached_structures_equal_uncached_recomputations(name):
    spec = {**SMALL_SPECS, "f16-parity": f16_parity_spec}[name]()
    for radius in range(spec.N + 1):
        params = DecoderParams(Fraction(radius, spec.N), radius)
        for what, cached, fresh in cached_structures(spec, params):
            assert len(cached) == len(fresh), what
            for got, want in zip(cached, fresh):
                assert got.dtype == want.dtype and np.array_equal(got, want), what
                assert not got.flags.writeable, what
        # a second call returns the same objects
        for (_, first, _), (_, again, _) in zip(cached_structures(spec, params), cached_structures(spec, params)):
            assert all(a is b for a, b in zip(first, again))


def test_each_cached_array_raises_when_written():
    spec, params, _ = toy_setup()
    for what, cached, _ in cached_structures(spec, params):
        for arr in cached:
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = arr[0]
    # the decode table itself is built afresh on every call
    assert qsim.decode_rank_table(spec, params).flags.writeable


def _same_report(a, b):
    assert a.keys() == b.keys()
    for key in a:
        if isinstance(a[key], np.ndarray):
            assert a[key].dtype == b[key].dtype and np.array_equal(a[key], b[key]), key
        else:
            assert a[key] == b[key], key


@pytest.mark.parametrize(
    "build, radius",
    [(configs.toy_selfdual_spec, 0), (configs.toy_selfdual_spec, 1), (lambda: configs.toy_repetition_spec(n=4, s=1), 1)],
)
def test_warm_cache_report_equals_the_cold_one_and_still_decodes(build, radius, monkeypatch):
    # the per-op work stays per op: each call decodes every coset with a
    # word in reach and checks GOOD once, cold or warm
    spec = build()
    params = DecoderParams(Fraction(0), radius)
    phis = received_states(zero_tables_instance(spec))
    calls = {"decode": 0, "sound": 0}
    decode, sound = codes.dual_decode, qsim._assert_good_sound

    def counting_decode(*args):
        calls["decode"] += 1
        return decode(*args)

    def counting_sound(*args):
        calls["sound"] += 1
        return sound(*args)

    monkeypatch.setattr(codes, "dual_decode", counting_decode)
    monkeypatch.setattr(qsim, "_assert_good_sound", counting_sound)
    for cache in (qsim._coset_census, qsim.default_goodbad, qsim.prepare_psi):
        cache.cache_clear()
    reached = np.count_nonzero(qsim._coset_census.__wrapped__(spec, radius)[3])
    reports = []
    for _ in range(2):
        reports.append(qsim.add_decode_pipeline(spec, phis, params))
        assert calls == {"decode": reached, "sound": 1}
        calls.update(decode=0, sound=0)
    assert qsim._coset_census.cache_info().hits == 1
    _same_report(*reports)
