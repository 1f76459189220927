import numpy as np
import pytest

from nullcode import codes, configs, hashing, tbnc
from nullcode.errors import (
    BudgetExceeded,
    DistinctnessViolated,
    EncodingOverflow,
)
from nullcode.gf import FieldCtx
from nullcode.hashing import HashFamily, HashKey


def family(r=6, lam=4, n=2, sigma=4):
    return HashFamily(key_field=FieldCtx(r), lam=lam, n=n, sigma_size=sigma)


def test_zero_key_all_zero():
    fam = family()
    key = hashing.zero_key(fam)
    assert all(
        hashing.eval_hash(fam, key, e, i) == 0 for e in range(4) for i in (1, 2)
    )


def test_constant_key_constant_output():
    fam = family()
    key = HashKey((13, 0, 0, 0))
    outs = {hashing.eval_hash(fam, key, e, i) for e in range(4) for i in (1, 2)}
    assert outs == {13}


def test_two_term_polynomial():
    fam = family(r=4, lam=2, n=2, sigma=4)
    ctx = fam.key_field
    key = HashKey((5, 9))
    for e in range(4):
        for i in (1, 2):
            x = fam.encode(e, i)
            want = (5 ^ ctx.mul(9, x)) & 0b111111
            assert hashing.eval_hash(fam, key, e, i) == want


def test_encode_injective_and_bounds():
    fam = family()
    points = {(e, i) for e in range(4) for i in (1, 2)}
    encoded = {fam.encode(e, i) for e, i in points}
    assert len(encoded) == len(points)
    with pytest.raises(EncodingOverflow):
        fam.encode(4, 1)
    with pytest.raises(EncodingOverflow):
        fam.encode(0, 3)
    with pytest.raises(EncodingOverflow):
        HashFamily(key_field=FieldCtx(2), lam=2, n=2, sigma_size=4)


def test_key_linearity_exhaustive_basis():
    fam = family(r=4, lam=2, n=2, sigma=4)
    rng = np.random.default_rng(0)
    for _ in range(20):
        k1 = hashing.random_key(fam, rng)
        k2 = hashing.random_key(fam, rng)
        ks = HashKey(tuple(a ^ b for a, b in zip(k1.coeffs, k2.coeffs)))
        for e in range(4):
            for i in (1, 2):
                assert hashing.eval_hash(fam, ks, e, i) == hashing.eval_hash(
                    fam, k1, e, i
                ) ^ hashing.eval_hash(fam, k2, e, i)


def test_independence_lambda2_r4():
    fam = family(r=4, lam=2, n=2, sigma=4)
    assert hashing.independence_check(fam, [(0, 1), (1, 1)])
    assert hashing.independence_check(fam, [(3, 1), (2, 2)])


def test_independence_lambda1():
    fam = family(r=4, lam=1, n=2, sigma=4)
    assert hashing.independence_check(fam, [(2, 1)])


def test_independence_rejects_duplicates():
    fam = family(r=4, lam=2, n=2, sigma=4)
    with pytest.raises(DistinctnessViolated):
        hashing.independence_check(fam, [(1, 2), (1, 2)])


def test_independence_budget():
    fam = family(r=8, lam=4, n=2, sigma=4)  # 32 key bits
    with pytest.raises(BudgetExceeded):
        hashing.independence_check(fam, [(0, 1), (1, 1), (2, 1), (3, 1)])


def test_more_points_than_lambda_dependent():
    # evaluating a degree <lam polynomial at lam+1 points is never jointly
    # uniform; the checker requires exactly lambda points
    fam = family(r=4, lam=2, n=2, sigma=4)
    from nullcode.errors import LengthMismatch

    with pytest.raises(LengthMismatch):
        hashing.independence_check(fam, [(0, 1), (1, 1), (2, 1)])


def test_attack_verifies_on_random_instances():
    spec = configs.toy_repetition_spec(n=2, s=2)
    fam = configs.toy_family(spec)
    word = codes.fold(spec, codes.codeword_matrix(spec)[1])
    for trial in range(40):
        tb = tbnc.make_tbnc(spec, fam, 1, 2000 + trial)
        key = hashing.attack_solve(fam, spec, tb.copies[0])
        assert key is not None
        assert tbnc.tbnc_verify(tb, key, [word])


def test_attack_zero_oracle_zero_key_ok():
    spec = configs.toy_repetition_spec(n=2, s=2)
    fam = configs.toy_family(spec)
    tb = tbnc.make_tbnc(spec, fam, 1, 1)
    import numpy as np

    from nullcode import instances

    zero = instances.OracleInstance(
        spec=spec,
        p=tb.copies[0].p,
        seed=0,
        tables=np.zeros_like(tb.copies[0].tables),
    )
    key = hashing.attack_solve(fam, spec, zero)
    assert key is not None
    word = codes.fold(spec, codes.codeword_matrix(spec)[1])
    for i, sym in enumerate(word):
        assert hashing.eval_hash_bias(fam, key, spec.symbol_rank(sym), i + 1) == 0


def test_bias_tables_match_pointwise():
    spec = configs.toy_repetition_spec(n=2, s=2)
    fam = configs.toy_family(spec)
    rng = np.random.default_rng(1)
    key = hashing.random_key(fam, rng)
    tables = hashing.hash_bias_tables(fam, key)
    for i in range(1, 3):
        for e in range(4):
            assert tables[i - 1, e] == hashing.eval_hash_bias(fam, key, e, i)


def test_unfolded_tables_and_collapse():
    spec = configs.toy_repetition_spec(n=2, s=2)
    fam = configs.toy_family(spec)
    rng = np.random.default_rng(2)
    key = hashing.random_key(fam, rng)
    bias = hashing.hash_bias_tables(fam, key)
    # the bias bit is the AND of the out_bits bits of each hash block
    unf = np.array(
        [
            [
                [(hashing.eval_hash(fam, key, e, i) >> j) & 1 for j in range(fam.out_bits)]
                for e in range(fam.sigma_size)
            ]
            for i in range(1, fam.n + 1)
        ],
        dtype=np.uint8,
    )
    assert np.array_equal(unf.min(axis=2), bias)
