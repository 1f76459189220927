"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
summary lines.  Tolerances are pinned in the assertions.
"""

import itertools
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from nullcode import codes, configs, hashing, instances, linalg, proto, qsim, tbnc
from nullcode.codes import CodeSpec, DecoderParams
from nullcode.errors import EmptySupport
from nullcode.gf import FieldCtx, find_generator, trace


def report(num: int, name: str, detail: str) -> None:
    print(f"[criterion {num:02d}] PASS {name}: {detail}")


# -- 1: field exhaustive algebra ----------------------------------------------------


def test_criterion_01_field_algebra():
    start = time.time()
    checked = 0
    for s in (2, 4):
        ctx = FieldCtx(s)
        q = ctx.q
        for a in range(q):
            assert ctx.add(a, 0) == a and ctx.mul(a, 1) == a
            if a:
                assert ctx.mul(a, ctx.inv(a)) == 1
            for b in range(q):
                assert ctx.add(a, b) == ctx.add(b, a)
                assert ctx.mul(a, b) == ctx.mul(b, a)
                assert trace(ctx, a ^ b) == trace(ctx, a) ^ trace(ctx, b)
                for c in range(q):
                    assert ctx.mul(a, ctx.add(b, c)) == ctx.add(
                        ctx.mul(a, b), ctx.mul(a, c)
                    )
                    assert ctx.mul(ctx.mul(a, b), c) == ctx.mul(a, ctx.mul(b, c))
                    assert ctx.add(ctx.add(a, b), c) == ctx.add(a, ctx.add(b, c))
                    checked += 1
        g = find_generator(ctx)
        assert ctx.element_order(g) == q - 1
    elapsed = time.time() - start
    assert elapsed < 5
    report(1, "field exhaustive algebra", f"{checked} triples, {elapsed:.2f}s")


# -- 2: dual-code exactness ----------------------------------------------------------


def test_criterion_02_dual_code_exactness():
    start = time.time()
    spec = codes.preset(2)
    mat = codes.codeword_matrix(spec)
    assert mat.shape[0] == 256
    dual_spec = codes.dual(spec)
    dual_basis = dual_spec.basis_rref()
    prods = linalg.matmul(spec.field, mat, dual_basis.T)
    assert not prods.any()
    assert codes.dual(dual_spec) == spec
    unfolded = CodeSpec(
        kind="grs-folded", field=spec.field, m=1, k=spec.k,
        gamma=spec.gamma, v=spec.v,
    )
    assert np.array_equal(codes.dual(unfolded).basis_rref(), dual_basis)
    assert dual_spec.m == spec.m and dual_spec.n == spec.n
    elapsed = time.time() - start
    assert elapsed < 10
    report(
        2,
        "dual-code exactness",
        f"256 codewords orthogonal to a {dual_basis.shape[0]}-row dual basis, "
        f"dual involutive, folding commutes, {elapsed:.2f}s",
    )


# -- 3: decoder zero-error -----------------------------------------------------------


def test_criterion_03_decoder_zero_error():
    start = time.time()
    spec = codes.preset(3)
    params = DecoderParams.for_spec(spec, Fraction(1, 64))
    radius = params.radius_unfolded
    assert radius == int((Fraction(1, 64) + Fraction(1, 100)) * spec.N)
    dual_spec = codes.dual(spec)
    rng = np.random.default_rng(20240)
    ok = 0
    trials = 1000
    for _ in range(trials):
        msg = rng.integers(0, 64, size=dual_spec.dim)
        x = codes.encode_unfolded(dual_spec, msg.tolist())
        weight = int(rng.integers(0, radius + 1))
        err = np.zeros(spec.N, dtype=np.int64)
        if weight:
            for pos in rng.choice(spec.N, size=weight, replace=False):
                err[pos] = int(rng.integers(1, 64))
        z = codes.fold(spec, (x ^ err).tolist())
        got = codes.dual_decode(spec, params, z)
        ok += got is not None and np.array_equal(codes.unfold(spec, got), x)
    assert ok == trials

    # Berlekamp-Welch vs the exhaustive decoder on every input of an
    # enumerable configuration
    agreements = 0
    for k in (0, 1):
        small = CodeSpec(
            kind="grs-folded", field=FieldCtx(2), m=1, k=k, gamma=2, v=(1, 1, 1)
        )
        unique_radius = (small.N - small.k - 1) // 2
        for zvec in itertools.product(range(4), repeat=3):
            z = tuple((v,) for v in zvec)
            for rad in range(unique_radius + 1):
                exhaustive = codes.list_decode(small, z, rad)
                bw = codes._berlekamp_welch(
                    small, np.array(zvec, dtype=np.int64), rad
                )
                bw_list = [codes.fold(small, bw)] if bw is not None else []
                assert sorted(exhaustive) == sorted(bw_list)
                agreements += 1
    elapsed = time.time() - start
    assert elapsed < 30
    report(
        3,
        "decoder zero-error",
        f"{ok}/{trials} decodes at unfolded weight <= floor((p+eps)N) = {radius}; "
        f"BW == exhaustive on {agreements} decoder calls, {elapsed:.2f}s",
    )


# -- 4: good-error claim --------------------------------------------------------------


def test_criterion_04_good_error():
    start = time.time()
    spec = codes.preset(3)
    params = DecoderParams.for_spec(spec, Fraction(1, 64))
    threshold = (Fraction(1, 64) + Fraction(1, 100)) * spec.N
    dual_spec = codes.dual(spec)
    rng = np.random.default_rng(577)
    trials = 1000
    ok = 0
    for _ in range(trials):
        e = np.zeros(spec.N, dtype=np.int64)
        weight = int(rng.integers(0, params.radius_unfolded + 1))
        if weight:
            for pos in rng.choice(spec.N, size=weight, replace=False):
                e[pos] = int(rng.integers(1, 64))
        msg = rng.integers(0, 64, size=dual_spec.dim)
        if not msg.any():
            msg[0] = 1
        y = codes.encode_unfolded(dual_spec, msg.tolist())
        ok += codes.hw_unfolded(e ^ y) > threshold
    assert ok == trials
    elapsed = time.time() - start
    assert elapsed < 60
    report(4, "good-error claim", f"{ok}/{trials} separations, {elapsed:.2f}s")


# -- 5: QFT checks --------------------------------------------------------------------


def test_criterion_05_qft():
    start = time.time()
    for s in (1, 2, 4):
        ctx = FieldCtx(s)
        mat = qsim.qft_matrix(ctx)
        assert np.abs(mat @ mat.T - np.eye(ctx.q)).max() <= 1e-12
    spec = configs.toy_selfdual_spec()
    psi = qsim.prepare_psi(spec)
    kernel = qsim.sigma_qft_matrix(spec.field, spec.m)
    hat = qsim.apply_qft_vec(psi, kernel, spec.n)
    dual_flat = set(qsim._code_flat_ranks(codes.dual(spec)).tolist())
    heavy = set(np.nonzero(np.abs(hat) > 1e-10)[0].tolist())
    assert heavy == dual_flat
    mags = np.abs(hat[sorted(heavy)])
    assert mags.max() - mags.min() <= 1e-10
    off = np.abs(hat[[i for i in range(hat.size) if i not in heavy]])
    assert off.max() <= 1e-10 if off.size else True
    elapsed = time.time() - start
    assert elapsed < 5
    report(
        5,
        "QFT checks",
        f"unitarity <= 1e-12 for q in (2,4,16); code transform supported on "
        f"{len(heavy)} dual words, {elapsed:.2f}s",
    )


# -- 6: main lemma at desk scale -------------------------------------------------------


def test_criterion_06_pipeline_bound():
    start = time.time()
    spec = configs.toy_selfdual_spec()
    params = DecoderParams.for_spec(spec, Fraction(1, 16))
    done = 0
    skipped = 0
    seed = 0
    worst_margin = -math.inf
    while done < 100:
        inst = instances.sample_instance(spec, Fraction(1, 16), seed)
        seed += 1
        try:
            phis = [qsim.prepare_phi(inst, i) for i in range(1, inst.n + 1)]
            out = qsim.add_decode_pipeline(spec, phis, params)
        except EmptySupport:
            skipped += 1
            continue
        done += 1
        assert out["l2_distance"] <= math.sqrt(out["epsilon"]) + math.sqrt(
            out["delta"]
        ) + 1e-9
        worst_margin = max(
            worst_margin,
            out["l2_distance"]
            - math.sqrt(out["epsilon"])
            - math.sqrt(out["delta"]),
        )
    elapsed = time.time() - start
    assert elapsed < 300
    report(
        6,
        "pipeline error bound",
        f"100/100 runs within sqrt(eps)+sqrt(delta)+1e-9 "
        f"(worst margin {worst_margin:.2e}, {skipped} empty-support seeds "
        f"skipped), {elapsed:.2f}s",
    )


# -- 7: protocol end-to-end -------------------------------------------------------------


def test_criterion_07_protocol_end_to_end():
    start = time.time()
    spec = configs.toy_selfdual_spec()
    params = DecoderParams.for_spec(spec, Fraction(1, 16))
    base = instances.sample_instance(spec, Fraction(1, 16), 0)
    zero = instances.with_tables(base, np.zeros_like(base.tables))
    rep = qsim.run_smp_protocol(spec, zero, params)
    assert abs(rep["success_probability"] - 1.0) <= 1e-9

    rng = np.random.default_rng(88)
    done = 0
    skipped = 0
    seed = 0
    successes = []
    bounds = []
    while done < 200:
        inst = instances.sample_instance(spec, Fraction(1, 16), seed)
        seed += 1
        try:
            out = qsim.run_smp_protocol(spec, inst, params)
        except EmptySupport:
            skipped += 1
            continue
        done += 1
        successes.append(out["success_probability"])
        bounds.append(math.sqrt(out["epsilon"]) + math.sqrt(out["delta"]))
        # measured solutions pass the verifier: the verified mass is the
        # success mass, and sampled outcomes verify iff they carry mass
        assert abs(out["verified_mass"] - out["success_probability"]) <= 1e-12
        z = qsim.sample_measurement(out, rng)
        word = qsim.flat_to_word(spec, z)
        assert instances.verify(inst, word) == bool(out["solution_mask"][z])
    mean_success = float(np.mean(successes))
    mean_bound = float(np.mean(bounds))
    assert mean_success >= 1 - mean_bound - 1e-6
    elapsed = time.time() - start
    assert elapsed < 600
    report(
        7,
        "protocol end-to-end",
        f"all-zero oracle success = 1 exactly; mean success {mean_success:.4f} "
        f">= 1 - mean bound {mean_bound:.4f} over 200 seeds ({skipped} "
        f"empty-support skips), {elapsed:.2f}s",
    )


# -- 8: table Fourier statistics ---------------------------------------------------------


def test_criterion_08_table_statistics():
    start = time.time()
    exact = qsim.table_fourier_stats(FieldCtx(1), 2, Fraction(1, 4))
    assert abs(exact["mean_W0_sq"] - 0.75) <= 1e-10
    assert exact["mean_W0_sq_exact"] == Fraction(3, 4)
    mc = qsim.table_fourier_stats(FieldCtx(1), 3, Fraction(1, 8), trials=50000, seed=6)
    assert abs(mc["mean_W0_sq"] - 7 / 8) <= 3 * mc["se_W0_sq"]
    means = mc["per_element_means"]
    ses = mc["per_element_se"]
    for i in range(len(means)):
        for j in range(i + 1, len(means)):
            assert abs(means[i] - means[j]) <= 3 * math.hypot(ses[i], ses[j])
    assert qsim.product_rule_check(FieldCtx(1), 3, 2, Fraction(1, 8), seed=7) <= 1e-12
    elapsed = time.time() - start
    assert elapsed < 60
    report(
        8,
        "table Fourier statistics",
        f"exact mean 3/4; MC mean {mc['mean_W0_sq']:.5f} ~ 7/8; nonzero "
        f"frequencies pairwise equal within 3 SE, {elapsed:.2f}s",
    )


# -- 9: density-restoring partition --------------------------------------------------------


def test_criterion_09_density_restoring_partition():
    from nullcode.density import (
        density_restoring_partition,
        expected_codimension,
        min_entropy,
        validate_partition,
    )

    start = time.time()
    rng = np.random.default_rng(99)
    coords = tuple(range(12))
    gaps = []
    parts_total = 0
    for trial in range(500):
        alpha = (0.3, 0.5, 0.7, 0.9)[trial % 4]
        mask = rng.random(4096) < alpha
        if not mask.any():
            mask[0] = True
        X = np.nonzero(mask)[0].astype(np.int64)
        parts = density_restoring_partition(X, 0.8, coords)
        validate_partition(X, parts, 0.8, coords)
        parts_total += len(parts)
        gaps.append(
            expected_codimension(parts) - (12 - min_entropy(X, coords))
        )
    elapsed = time.time() - start
    assert elapsed < 10
    report(
        9,
        "density-restoring partition",
        f"500 sets validated ({parts_total} parts); expected codim minus "
        f"(N - Hmin) in [{min(gaps):.2f}, {max(gaps):.2f}], mean "
        f"{np.mean(gaps):.2f} (gap reported, not asserted), {elapsed:.2f}s",
    )


# -- 10: message-compression transform --------------------------------------------------------


def test_criterion_10_transform():
    start = time.time()
    rng = np.random.default_rng(1234)
    ratios = []
    # exhaustive output-equivalence at 6 bits per side
    for trial in range(30):
        tree = proto.random_onebit_tree(rng, 6, 6, 5, labels=list(range(4)))
        stats = []
        out = proto.subcube_like_transform(tree, 0.8, code_stats=stats)
        proto.validate_subcube_like(out, 0.8)
        for h, elen in stats:
            assert elen <= h + 1 + 1e-9
        pairs = itertools.product(range(64), range(64))
        assert proto.outputs_agree(tree, out, pairs)
    # sampled equivalence at 10 bits per side
    sampled_pairs = 0
    for trial in range(200):
        tree = proto.random_onebit_tree(rng, 10, 10, 6, labels=list(range(4)))
        stats = []
        out = proto.subcube_like_transform(tree, 0.8, code_stats=stats)
        proto.validate_subcube_like(out, 0.8)
        for h, elen in stats:
            assert elen <= h + 1 + 1e-9
        pairs = [
            (int(rng.integers(1024)), int(rng.integers(1024))) for _ in range(500)
        ]
        sampled_pairs += len(pairs)
        assert proto.outputs_agree(tree, out, pairs)
        ts = proto.transcript_stats(out)
        if tree.cost():
            ratios.append(ts["entropy"] / tree.cost())
    assert sampled_pairs == 100000
    elapsed = time.time() - start
    assert elapsed < 60
    report(
        10,
        "message-compression transform",
        f"230 trees subcube-like with outputs preserved (exhaustive at 6 "
        f"bits, {sampled_pairs} sampled pairs at 10 bits); Huffman bound "
        f"held at every node; H(transcript)/cost max {max(ratios):.2f} mean "
        f"{np.mean(ratios):.2f} (constant reported), {elapsed:.2f}s",
    )


# -- 11: cleanup ---------------------------------------------------------------------------


def test_criterion_11_cleanup():
    start = time.time()
    rng = np.random.default_rng(4321)
    for trial in range(100):
        depth = int(rng.integers(2, 6))
        tree = proto.random_onebit_tree(rng, 6, 6, depth, labels=list(range(3)))
        if trial % 3 == 0:
            tree = proto.subcube_like_transform(tree, 0.8)
        valid_a = lambda label, x: ((x >> (label % 6)) & 1) == 0
        valid_b = lambda label, y: ((y >> (label % 6)) & 1) == 0
        err = proto.measure_error(tree, valid_a, valid_b)
        cleaned = proto.cleanup(tree, err, valid_a, valid_b)
        assert proto.never_wrong(cleaned, valid_a, valid_b)
        assert proto.bottom_probability(cleaned) <= 2 * err + 1e-12
    elapsed = time.time() - start
    assert elapsed < 300
    report(
        11,
        "cleanup",
        f"100 trees: no incorrect non-bottom output (exhaustive at 6 bits), "
        f"bottom probability <= 2 eps, {elapsed:.2f}s",
    )


# -- 12: danger ledger ----------------------------------------------------------------------


def test_criterion_12_danger_ledger():
    start = time.time()
    spec = configs.toy_repetition_spec(n=2, s=2)
    base = instances.sample_instance(spec, Fraction(1, 4), 0)
    tree = proto.reveal_solution_tree(spec)
    # exhaustive: every possible instance of the toy problem
    insts = []
    for bits in range(1 << (spec.n * spec.sigma_size)):
        tables = np.zeros((spec.n, spec.sigma_size), dtype=np.uint8)
        for i in range(spec.n):
            for e in range(spec.sigma_size):
                tables[i, e] = (bits >> (i * spec.sigma_size + e)) & 1
        insts.append(instances.with_tables(base, tables))
    out = proto.danger_track(tree, spec, insts)
    assert len(out["ledgers"]) == 256
    for ledger in out["ledgers"]:
        ledger.assert_monotone()
    elapsed = time.time() - start
    assert elapsed < 300
    report(
        12,
        "danger ledger",
        f"monotone on all 256 exhaustive runs; recount agreed at every "
        f"visited node; danger-to-solution rate "
        f"{out['danger_to_solution_rate']:.3f}, {elapsed:.2f}s",
    )


# -- 13: hashing ----------------------------------------------------------------------------


def test_criterion_13_hashing():
    start = time.time()
    fam = hashing.HashFamily(key_field=FieldCtx(4), lam=2, n=2, sigma_size=4)
    assert hashing.independence_check(fam, [(0, 1), (1, 1)])
    assert hashing.independence_check(fam, [(2, 1), (2, 2)])

    spec = configs.toy_repetition_spec(n=2, s=2)
    attack_fam = configs.toy_family(spec)
    word = codes.fold(spec, codes.codeword_matrix(spec)[1])
    solved = 0
    trials = 100
    for trial in range(trials):
        tb = tbnc.make_tbnc(spec, attack_fam, 1, 31337 + trial)
        key = hashing.attack_solve(attack_fam, spec, tb.copies[0])
        assert key is not None
        assert tbnc.tbnc_verify(tb, key, [word])
        solved += 1
    assert solved == trials
    elapsed = time.time() - start
    assert elapsed < 120
    report(
        13,
        "hashing",
        f"exact pairwise independence over all 256 keys (width "
        f"{fam.effective_width}); key-recovery attack verified "
        f"{solved}/{trials}, {elapsed:.2f}s",
    )


# -- 14: total problem -------------------------------------------------------------------------


def test_criterion_14_total_problem(monkeypatch):
    start = time.time()
    spec = configs.toy_selfdual_spec()
    fam = configs.toy_family(spec)
    params = DecoderParams.for_spec(spec, Fraction(1, 64))

    def zero_copy(seed):
        c = instances.sample_unfolded_instance(spec, 6, seed)
        return instances.OracleInstance(
            spec=spec,
            p=c.p,
            seed=seed,
            tables=np.zeros_like(c.tables),
            unfolded=np.zeros_like(c.unfolded),
        )

    tb = tbnc.TbncInstance(
        t=2, spec=spec, family=fam, copies=(zero_copy(0), zero_copy(1))
    )
    monkeypatch.setattr(hashing, "random_key", lambda family, rng: hashing.zero_key(family))
    out = tbnc.run_keyed_smp(tb, params, seed=9)
    assert out["success"]
    for d in out["per_copy"]:
        assert abs(d["success_probability"] - 1.0) <= 1e-9

    rep = configs.toy_repetition_spec(n=2, s=2)
    rep_fam = configs.toy_family(rep)
    b = 2
    zero = hashing.zero_key(rep_fam)
    exact = tbnc.exact_emptiness_probability(rep, rep_fam, zero, b)
    samples = 200
    empty = 0
    for seed in range(samples):
        tbi = tbnc.make_tbnc(rep, rep_fam, 1, seed, b=b)
        g = tbnc.xored_bias_tables(tbi.copies[0], rep_fam, zero)
        empty += tbnc.solution_set_empty(rep, g)
    rate = empty / samples
    se = math.sqrt(exact * (1 - exact) / samples)
    assert abs(rate - exact) <= 3 * se + 1e-9

    assert tbnc.union_bound_calculator(100, 10, 0.5) == 2.0**10 * 0.5**100
    assert tbnc.union_bound_calculator(0, 12, 0.3) == 2.0**12
    assert tbnc.union_bound_calculator(50, 0, 1.0) == 1.0
    elapsed = time.time() - start
    assert elapsed < 600
    report(
        14,
        "total problem",
        f"forced-zero-key run exact; zero-key emptiness {rate:.3f} vs closed "
        f"form {exact:.3f} over {samples} samples; union bound exact, "
        f"{elapsed:.2f}s",
    )
