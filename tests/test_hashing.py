import time

import numpy as np
import pytest

from nullcode import codes, configs, hashing, tbnc
from nullcode.errors import (
    BudgetExceeded,
    DistinctnessViolated,
    EncodingOverflow,
    LengthMismatch,
)
from nullcode.gf import FieldCtx
from nullcode.hashing import HashFamily, HashKey
from test_codes import symbol_rank_loop

# -- scalar oracles ---------------------------------------------------------------


def horner(ctx, coeffs, x) -> int:
    """The polynomial with ascending coefficients at x, one scalar product
    per step: the oracle of linalg.poly_eval."""
    acc = 0
    for c in reversed(coeffs):
        acc = ctx.mul(acc, x) ^ c
    return acc


def hash_oracle(fam, key, e, i) -> int:
    """Low out_bits bits of the key's polynomial at encode(e, i)."""
    return horner(fam.key_field, key.coeffs, fam.encode(e, i)) & ((1 << fam.out_bits) - 1)


def bias_oracle(fam, key, e, i) -> int:
    """AND of the output bits: 1 iff the block is all ones."""
    return int(hash_oracle(fam, key, e, i) == (1 << fam.out_bits) - 1)


def independence_oracle(fam, points) -> bool:
    """Joint uniformity of the width-w outputs, w = min(out_bits, r), at the
    points, by counting the outcomes of all 2^(r lambda) keys.  Horner's
    rule runs on every key at once through a table of products by x built
    with the scalar product."""
    ctx, w, lam = fam.key_field, fam.effective_width, fam.lam
    kv = np.arange(fam.key_count)
    coeffs = [(kv >> (j * fam.r)) & (ctx.q - 1) for j in range(lam)]
    outcome = np.zeros_like(kv)
    for e, i in points:
        x = fam.encode(e, i)
        times_x = np.array([ctx.mul(a, x) for a in range(ctx.q)], dtype=np.int64)
        acc = np.zeros_like(kv)
        for c in reversed(coeffs):
            acc = times_x[acc] ^ c
        outcome = (outcome << w) | (acc & ((1 << w) - 1))
    counts = np.bincount(outcome, minlength=1 << (w * lam))
    return bool(np.all(counts == fam.key_count >> (w * lam)))


def family(r=6, lam=4, n=2, sigma=4):
    return HashFamily(key_field=FieldCtx(r), lam=lam, n=n, sigma_size=sigma)


def _cells(fam):
    return [(e, i) for i in range(1, fam.n + 1) for e in range(fam.sigma_size)]


def _hash_at(fam, key, cells):
    """hash_values at the encoded cells, as a list."""
    return hashing.hash_values(fam, [key], [fam.encode(e, i) for e, i in cells])[0].tolist()


def test_zero_key_all_zero():
    fam = family()
    key = hashing.zero_key(fam)
    assert _hash_at(fam, key, _cells(fam)) == [0] * 8
    assert all(hash_oracle(fam, key, e, i) == 0 for e, i in _cells(fam))


def test_constant_key_constant_output():
    fam = family()
    key = HashKey((13, 0, 0, 0))
    assert set(_hash_at(fam, key, _cells(fam))) == {13}
    assert {hash_oracle(fam, key, e, i) for e, i in _cells(fam)} == {13}


def test_two_term_polynomial():
    fam = family(r=4, lam=2, n=2, sigma=4)
    ctx = fam.key_field
    key = HashKey((5, 9))
    got = _hash_at(fam, key, _cells(fam))
    for (e, i), value in zip(_cells(fam), got):
        x = fam.encode(e, i)
        want = (5 ^ ctx.mul(9, x)) & 0b111111
        assert value == want == hash_oracle(fam, key, e, i)


def test_hash_values_rejects_a_key_of_the_wrong_length():
    fam = family(r=4, lam=2, n=2, sigma=4)
    with pytest.raises(LengthMismatch):
        hashing.hash_values(fam, [HashKey((1, 2)), HashKey((1, 2, 3))], [0, 1])


@pytest.mark.parametrize("out_bits", [0, -1, 64, 1000])
def test_family_rejects_out_bits_outside_1_63(out_bits):
    # 0 made every bias bit 1, -1 a negative shift, 64 an int64 overflow
    with pytest.raises(ValueError, match="out_bits"):
        HashFamily(key_field=FieldCtx(4), lam=2, n=2, sigma_size=4, out_bits=out_bits)


@pytest.mark.parametrize("field", ["r", "modulus", "lambda", "n", "sigma", "out_bits"])
@pytest.mark.parametrize("value", [6.9, "2", True], ids=repr)
def test_family_from_json_rejects_a_field_that_is_not_an_integer(field, value):
    # int() read "out_bits": 6.9 as 6, so the family hashed as if it were 6
    data = family().to_json()
    assert HashFamily.from_json(data) == family()
    data[field] = value
    with pytest.raises(TypeError, match=f"^{field} must be an integer, got "):
        HashFamily.from_json(data)


def test_family_out_bits_63_hashes_like_the_oracle():
    fam = HashFamily(key_field=FieldCtx(4), lam=2, n=2, sigma_size=4, out_bits=63)
    key = HashKey((5, 9))
    got = _hash_at(fam, key, _cells(fam))
    assert got == [hash_oracle(fam, key, e, i) for e, i in _cells(fam)]


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
    cells = _cells(fam)
    for _ in range(20):
        k1 = hashing.random_key(fam, rng)
        k2 = hashing.random_key(fam, rng)
        ks = HashKey(tuple(a ^ b for a, b in zip(k1.coeffs, k2.coeffs)))
        h1, h2, hs = (_hash_at(fam, k, cells) for k in (k1, k2, ks))
        assert hs == [a ^ b for a, b in zip(h1, h2)]
        for (e, i), value in zip(cells, hs):
            assert value == hash_oracle(fam, k1, e, i) ^ hash_oracle(fam, k2, e, i)


def test_independence_lambda2_r4():
    fam = family(r=4, lam=2, n=2, sigma=4)
    for points in ([(0, 1), (1, 1)], [(3, 1), (2, 2)]):
        assert hashing.independence_check(fam, points)
        assert independence_oracle(fam, points)


def test_independence_lambda1():
    fam = family(r=4, lam=1, n=2, sigma=4)
    assert hashing.independence_check(fam, [(2, 1)])
    assert independence_oracle(fam, [(2, 1)])


def test_independence_rejects_duplicates():
    fam = family(r=4, lam=2, n=2, sigma=4)
    with pytest.raises(DistinctnessViolated):
        hashing.independence_check(fam, [(1, 2), (1, 2)])


def test_independence_budget():
    # 32 key bits: the enumeration would visit 2^32 keys, the certificate is
    # the rank of a 24 x 32 bit matrix
    fam = family(r=8, lam=4, n=2, sigma=4)
    start = time.perf_counter()
    assert hashing.independence_check(fam, [(0, 1), (1, 1), (2, 1), (3, 1)])
    assert time.perf_counter() - start < 1
    # the bit matrix itself is bounded: 6 lambda x 12 lambda > 2^16 entries
    big = HashFamily(key_field=FieldCtx(12), lam=31, n=1, sigma_size=64)
    with pytest.raises(BudgetExceeded):
        hashing.independence_check(big, [(e, 1) for e in range(31)])


def test_more_points_than_lambda_dependent():
    # evaluating a degree <lam polynomial at lam+1 points is never jointly
    # uniform; the checker requires exactly lambda points
    fam = family(r=4, lam=2, n=2, sigma=4)
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
    bias = hashing.hash_bias_tables(fam, [key])[0]
    for i, sym in enumerate(word):
        assert bias_oracle(fam, key, symbol_rank_loop(spec, sym), i + 1) == 0
        assert bias[i, symbol_rank_loop(spec, sym)] == 0


def test_bias_tables_match_pointwise():
    spec = configs.toy_repetition_spec(n=2, s=2)
    fam = configs.toy_family(spec)
    rng = np.random.default_rng(1)
    key = hashing.random_key(fam, rng)
    tables = hashing.hash_bias_tables(fam, [key])[0]
    assert tables.shape == (2, 4) and tables.dtype == np.uint8
    for i in range(1, 3):
        for e in range(4):
            assert tables[i - 1, e] == bias_oracle(fam, key, e, i)


def test_bias_tables_of_many_keys_are_the_single_key_rows():
    spec = configs.toy_selfdual_spec()
    fam = configs.toy_family(spec)
    rng = np.random.default_rng(3)
    keys = [hashing.zero_key(fam)] + [hashing.random_key(fam, rng) for _ in range(6)]
    tables = hashing.hash_bias_tables(fam, keys)
    assert tables.shape == (7, fam.n, fam.sigma_size) and tables.dtype == np.uint8
    for key, row in zip(keys, tables):
        assert np.array_equal(row, hashing.hash_bias_tables(fam, [key])[0])


def test_bias_tables_span_key_blocks():
    # 4 x 64 cells per key: blocks of 2^16 cells hold 256 keys, so 513 keys
    # take two full blocks and one of a single key
    spec = configs.toy_repetition_spec(n=4, s=6)
    fam = configs.toy_family(spec, lam=4)
    keys = [hashing.key_from_int(fam, 7919 * j) for j in range(513)]
    tables = hashing.hash_bias_tables(fam, keys)
    assert tables.shape == (513, 4, 64) and tables.dtype == np.uint8
    for key, row in zip(keys, tables):
        assert np.array_equal(row, hashing.hash_bias_tables(fam, [key])[0])


def test_encode_is_elementwise_over_arrays():
    fam = family()
    e, i = np.meshgrid(np.arange(4), np.arange(1, 3))
    assert fam.encode(e, i).tolist() == [
        [fam.encode(int(a), int(b)) for a, b in zip(row_e, row_i)] for row_e, row_i in zip(e, i)
    ]
    with pytest.raises(EncodingOverflow):
        fam.encode(np.array([0, 4]), np.array([1, 1]))
    with pytest.raises(EncodingOverflow):
        fam.encode(np.array([0, 1]), np.array([1, 0]))


def test_unfolded_tables_and_collapse():
    spec = configs.toy_repetition_spec(n=2, s=2)
    fam = configs.toy_family(spec)
    rng = np.random.default_rng(2)
    key = hashing.random_key(fam, rng)
    bias = hashing.hash_bias_tables(fam, [key])[0]
    # the bias bit is the AND of the out_bits bits of each hash block
    unf = np.array(
        [
            [
                [(hash_oracle(fam, key, e, i) >> j) & 1 for j in range(fam.out_bits)]
                for e in range(fam.sigma_size)
            ]
            for i in range(1, fam.n + 1)
        ],
        dtype=np.uint8,
    )
    assert np.array_equal(unf.min(axis=2), bias)
