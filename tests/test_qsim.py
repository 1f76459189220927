import functools
import math
from fractions import Fraction

import numpy as np
import pytest

from nullcode import codes, configs, instances, qsim
from nullcode.codes import DecoderParams
from nullcode.errors import BudgetExceeded, EmptySupport, LengthMismatch
from nullcode.gf import FieldCtx


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
    want = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
    assert np.allclose(mat, want, atol=1e-15)


def test_qft_unitary_and_involutive():
    for s in (1, 2, 4):
        ctx = FieldCtx(s)
        mat = qsim.qft_matrix(ctx)
        assert np.abs(mat @ mat.T - np.eye(ctx.q)).max() <= 1e-12
        assert np.abs(mat @ mat - np.eye(ctx.q)).max() <= 1e-12


def test_qft_uniform_to_zero():
    for s in (1, 2, 4):
        ctx = FieldCtx(s)
        mat = qsim.qft_matrix(ctx)
        uniform = np.full(ctx.q, 1 / math.sqrt(ctx.q))
        out = mat @ uniform
        want = np.zeros(ctx.q)
        want[0] = 1.0
        assert np.abs(out - want).max() <= 1e-12


def test_prepare_phi():
    spec = configs.toy_selfdual_spec()
    base = instances.sample_instance(spec, Fraction(1, 16), 0)
    tables = np.zeros((4, 4), dtype=np.uint8)
    inst = instances.with_tables(base, tables)
    vec = qsim.prepare_phi(inst, 1)
    assert vec.shape == (4,) and np.count_nonzero(vec) == 4
    assert abs(np.linalg.norm(vec) - 1) < 1e-12
    # singleton support
    tables2 = np.ones((4, 4), dtype=np.uint8)
    tables2[2, 3] = 0
    vec2 = qsim.prepare_phi(instances.with_tables(base, tables2), 3)
    assert vec2.tolist() == [0, 0, 0, 1.0]
    # empty support
    with pytest.raises(EmptySupport):
        qsim.prepare_phi(instances.with_tables(base, np.ones((4, 4), np.uint8)), 1)


def test_phi_hat_zero_amplitude():
    # What_i(0) = sqrt(|T_i| / |Sigma|)
    spec = configs.toy_selfdual_spec()
    base = instances.sample_instance(spec, Fraction(1, 16), 1)
    tables = np.zeros((4, 4), dtype=np.uint8)
    tables[0, 2] = 1
    inst = instances.with_tables(base, tables)
    vec = qsim.prepare_phi(inst, 1)
    kernel = qsim.sigma_qft_matrix(spec.field, spec.m)
    hat = kernel @ vec
    assert abs(hat[0] - math.sqrt(3 / 4)) < 1e-12


def test_prepare_psi_support_is_dual_after_qft():
    spec = configs.toy_selfdual_spec()
    psi = qsim.prepare_psi(spec)
    kernel = qsim.sigma_qft_matrix(spec.field, spec.m)
    hat = qsim.apply_qft_vec(psi, kernel, spec.n)
    dual_flat = set(qsim._code_flat_ranks(codes.dual(spec)).tolist())
    support = set(np.nonzero(np.abs(hat) > 1e-10)[0].tolist())
    assert support == dual_flat
    mags = np.abs(hat[sorted(support)])
    assert mags.max() - mags.min() <= 1e-10
    assert abs(np.linalg.norm(hat) - 1) <= 1e-12


def test_trivial_code_qft():
    # C = {0}: psi = |0..0>, QFT(psi) uniform
    spec = configs.toy_repetition_spec(n=1, s=2)
    psi = qsim.prepare_psi(spec)
    kernel = qsim.sigma_qft_matrix(spec.field, 1)
    # repetition n=1 is the full code; use the zero-only generic code instead
    zero_vec = np.zeros(4, dtype=np.complex128)
    zero_vec[0] = 1
    hat = kernel @ zero_vec
    assert np.abs(hat - 0.5).max() <= 1e-12


def test_apply_add_decode_permutation():
    # exhaustive bijection check on Sigma = F_4, n = 2: every pair array
    # entry lands on its own output entry, for any decode table
    K = 16
    joint = np.arange(K * K, dtype=np.complex128).reshape(K, K)
    rng = np.random.default_rng(0)
    for F in (np.arange(K), np.zeros(K, np.int64), rng.integers(0, K, size=K)):
        added, out = qsim.apply_add_decode(joint, F)
        for arr in (added, out):
            assert sorted(arr.real.ravel().tolist()) == list(range(K * K))
    # a unit amplitude at ((1, 2), (1, 2)) with F = identity: z = x + e = 0
    # and F(0) = 0, so the pair lands at ((1, 2), (0, 0))
    single = np.zeros((K, K), dtype=np.complex128)
    single[6, 6] = 1.0
    _, res = qsim.apply_add_decode(single, np.arange(K))
    assert list(zip(*np.nonzero(res))) == [(6, 0)]


def test_apply_add_decode_good_case():
    # F(x+e) = x implies output pair (0, x+e): x = (1, 2), e = (3, 1)
    K = 16
    single = np.zeros((K, K), dtype=np.complex128)
    single[1 * 4 + 2, 3 * 4 + 1] = 1.0
    _, res = qsim.apply_add_decode(single, np.full(K, 1 * 4 + 2))
    assert list(zip(*np.nonzero(res))) == [(0, 2 * 4 + 3)]


def test_pipeline_all_zero_oracle():
    spec, params, _ = toy_setup()
    inst = zero_tables_instance(spec)
    out = qsim.add_decode_pipeline(spec, received_states(inst), params)
    assert out["epsilon"] <= 1e-12
    assert out["delta"] <= 1e-12
    assert out["l2_distance"] <= 1e-9
    assert abs(out["success_probability"] - 1) <= 1e-9


def test_pipeline_bound_on_random_instance():
    # GOOD = all pairs with a perfect decoder on the full space: take the
    # identity-on-codewords decoder with GOOD restricted to x in dual, e=0
    spec, params, inst = toy_setup(seed=3)
    out = qsim.add_decode_pipeline(spec, received_states(inst), params)
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
        assert out["l2_distance"] <= out["bound"]
        assert out["epsilon"] >= 0 and out["delta"] >= 0


def test_norm_preserved_through_pipeline():
    spec, params, inst = toy_setup(seed=12)
    out = qsim.add_decode_pipeline(spec, received_states(inst), params)
    total = float((np.abs(out["actual_state"]) ** 2).sum())
    assert abs(total - 1) <= 1e-10


def reference_pipeline(spec, phis, F, gx, ge):
    """Slow oracle for the referee: delta from a per-x loop over the first
    register, QFT^-1 as a dense Kronecker-power matrix."""
    sigma, n = spec.sigma_size, spec.n
    K = sigma**n
    kernel = qsim.sigma_qft_matrix(spec.field, spec.m)
    psi = qsim.prepare_psi(spec)
    phi = functools.reduce(np.kron, phis)
    vhat = qsim.apply_qft_vec(psi, kernel, n)
    what = qsim.apply_qft_vec(phi, kernel, n)
    eps = float(1.0 - (np.abs(vhat) ** 2)[gx].sum() * (np.abs(what) ** 2)[ge].sum())
    idx = np.arange(K)
    conv_bad = np.zeros(K, dtype=np.complex128)
    for x in range(K):
        if vhat[x] == 0:
            continue
        contrib = vhat[x] * what[idx ^ x]
        if gx[x]:
            contrib = np.where(ge[idx ^ x], 0.0, contrib)
        conv_bad += contrib
    joint = np.zeros((K, K), dtype=np.complex128)
    for x in range(K):
        for e in range(K):
            z = x ^ e
            joint[x ^ F[z], z] = vhat[x] * what[e]
    actual = joint @ functools.reduce(np.kron, [kernel] * n).T
    diff = actual.copy()
    diff[0] -= sigma ** (n / 2) * psi * phi
    z_dist = (np.abs(actual) ** 2).sum(axis=0)
    return {
        "epsilon": max(eps, 0.0),
        "delta": float((np.abs(conv_bad) ** 2).sum()),
        "actual_state": actual,
        "l2_distance": float(np.linalg.norm(diff)),
        "success_probability": float(z_dist[(psi != 0) & (phi != 0)].sum()),
    }


def test_pipeline_matches_reference_oracle():
    spec, params, _ = toy_setup()
    F = qsim.decode_rank_table(spec, params)
    gx, ge = qsim.default_goodbad(spec, params)
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
        out = qsim.add_decode_pipeline(spec, phis, params)
        ref = reference_pipeline(spec, phis, F, gx, ge)
        assert out["epsilon"] == ref["epsilon"]
        assert out["delta"] == ref["delta"]
        assert np.abs(out["actual_state"] - ref["actual_state"]).max() <= 1e-12
        for key in ("l2_distance", "success_probability"):
            assert abs(out[key] - ref[key]) <= 1e-12


def test_pipeline_always_checks_good_soundness(monkeypatch):
    # a decode table that sends every word to 0 breaks F(x+e) = x on GOOD
    spec, params, inst = toy_setup(seed=3)
    zero_table = lambda spec, params: np.zeros(spec.sigma_size**spec.n, np.int64)
    monkeypatch.setattr(qsim, "decode_rank_table", zero_table)
    with pytest.raises(AssertionError, match="GOOD set contains a pair"):
        qsim.add_decode_pipeline(spec, received_states(inst), params)


@pytest.mark.parametrize("bad_x", [0, 1, 1000, 2047])
def test_good_soundness_is_checked_on_every_pair(bad_x):
    # 2048 x 1024 GOOD pairs, twice the check's block size; x = 1024 j and
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


def test_smp_all_zero():
    spec, params, _ = toy_setup()
    inst = zero_tables_instance(spec)
    rep = qsim.run_smp_protocol(spec, inst, params)
    assert abs(rep["success_probability"] - 1) <= 1e-9
    assert abs(rep["verified_mass"] - rep["success_probability"]) <= 1e-12
    # uniform over the code
    dist = rep["solution_distribution"]
    live = dist[dist > 1e-12]
    assert len(live) == spec.size
    assert np.abs(live - 1 / spec.size).max() <= 1e-9


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


LARGE_PARAMS = DecoderParams(p=Fraction(1, 64), epsilon=Fraction(1, 100), radius_unfolded=0)


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
    ],
    ids=["prepare_psi", "decode_rank_table", "default_goodbad"],
)
@pytest.mark.parametrize(
    "spec, log_size",
    [
        (codes.preset(2), 60),
        # |C| = 4 and |C-dual| = 2^16 are enumerable, so only the Sigma^n
        # gate itself can stop this one
        (configs.toy_repetition_spec(n=9, s=2), 18),
    ],
    ids=["preset2", "repetition9"],
)
def test_sigma_n_gates_raise_over_budget(build, spec, log_size):
    assert spec.sigma_size**spec.n == 1 << log_size  # over the 2^16 budget
    with pytest.raises(BudgetExceeded):
        build(spec)


def test_table_stats_exact_quarter():
    st = qsim.table_fourier_stats(FieldCtx(1), 2, Fraction(1, 4))
    assert st["mean_W0_sq_exact"] == Fraction(3, 4)
    assert len(set(st["per_element_exact"])) == 1


def test_table_stats_p_zero():
    st = qsim.table_fourier_stats(FieldCtx(1), 2, Fraction(0, 1))
    assert st["mean_W0_sq"] == 1.0


def test_table_stats_monte_carlo():
    st = qsim.table_fourier_stats(FieldCtx(1), 3, Fraction(1, 8), trials=30000, seed=2)
    assert abs(st["mean_W0_sq"] - 7 / 8) <= 3 * st["se_W0_sq"]
    means = np.array(st["per_element_means"])
    ses = np.array(st["per_element_se"])
    for i in range(len(means)):
        for j in range(i + 1, len(means)):
            se = math.hypot(ses[i], ses[j])
            assert abs(means[i] - means[j]) <= 3 * se


def test_table_stats_budget():
    with pytest.raises(BudgetExceeded):
        qsim.table_fourier_stats(FieldCtx(1), 5, Fraction(1, 4))  # |Sigma| = 32


def test_product_rule():
    assert qsim.product_rule_check(FieldCtx(1), 2, 3, Fraction(1, 8), seed=4) <= 1e-12
    assert qsim.product_rule_check(FieldCtx(2), 1, 2, Fraction(1, 4), seed=5) <= 1e-12


def flat_to_word_loop(spec, flat):
    """The word of a flat rank by peeling base-|Sigma| digits, least
    significant first, and the symbol of each by rank_symbol."""
    ranks = []
    for _ in range(spec.n):
        ranks.append(flat % spec.sigma_size)
        flat //= spec.sigma_size
    return tuple(spec.rank_symbol(r) for r in reversed(ranks))


def word_to_flat_loop(spec, word):
    flat = 0
    for sym in word:
        flat = flat * spec.sigma_size + spec.symbol_rank(sym)
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


@pytest.mark.parametrize("p", [Fraction(1, 16), Fraction(1, 64)])
def test_decode_rank_table_matches_a_per_word_loop(p):
    spec = configs.toy_selfdual_spec()
    params = DecoderParams.for_spec(spec, p)
    want = np.zeros(spec.sigma_size**spec.n, dtype=np.int64)
    for flat in range(want.size):
        dec = codes.dual_decode(spec, params, flat_to_word_loop(spec, flat))
        if dec is not None:
            want[flat] = word_to_flat_loop(spec, dec)
    assert np.array_equal(qsim.decode_rank_table(spec, params), want)


def test_decode_table_good_on_dual():
    spec, params, _ = toy_setup()
    F = qsim.decode_rank_table(spec, params)
    dual_flat = qsim._code_flat_ranks(codes.dual(spec))
    assert np.array_equal(F[dual_flat], dual_flat)
