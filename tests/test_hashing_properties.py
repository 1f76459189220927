"""Property tests for the array polynomial evaluator and the hash family
built on it, with the family's JSON round trip (skipped without
hypothesis)."""

import itertools
import json

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from nullcode import hashing, linalg  # noqa: E402
from nullcode.gf import FieldCtx  # noqa: E402
from nullcode.hashing import HashFamily, HashKey  # noqa: E402
from test_hashing import hash_oracle, horner, independence_oracle  # noqa: E402

SETTINGS = hypothesis.settings(max_examples=30, deadline=None, derandomize=True, database=None)


@pytest.mark.parametrize("s", [1, 2, 4, 6, 8])
@SETTINGS
@hypothesis.given(data=st.data())
def test_poly_eval_equals_scalar_horner(s, data):
    ctx = FieldCtx(s)
    element = st.integers(0, ctx.q - 1)
    length = data.draw(st.integers(0, 8), label="coefficients")
    polys = data.draw(
        st.lists(st.lists(element, min_size=length, max_size=length), min_size=1, max_size=4)
    )
    xs = [0] + data.draw(st.lists(element, max_size=6))
    # (coefficients, polys, 1) against (points,): one row per polynomial
    coeffs = np.array(polys, dtype=np.int64).reshape(len(polys), length).T[:, :, None]
    got = linalg.poly_eval(ctx, coeffs, xs)
    assert got.shape == (len(polys), len(xs))
    assert got.tolist() == [[horner(ctx, poly, x) for x in xs] for poly in polys]
    # one coefficient list against a vector of points
    assert linalg.poly_eval(ctx, polys[0], xs).tolist() == got[0].tolist()


@st.composite
def families(draw, rs=(2, 4, 6, 8)):
    r = draw(st.sampled_from(rs))
    n = draw(st.integers(1, 3))
    sigma = draw(st.integers(1, (1 << r) // n))
    return HashFamily(
        key_field=FieldCtx(r),
        lam=draw(st.integers(1, 5)),
        n=n,
        sigma_size=sigma,
        out_bits=draw(st.integers(1, 10)),
    )


@SETTINGS
@hypothesis.given(fam=families(rs=(2, 4, 8, 12)), sort_keys=st.booleans())
def test_family_json_round_trips_through_text(fam, sort_keys):
    text = json.dumps(fam.to_json(), sort_keys=sort_keys)
    back = HashFamily.from_json(json.loads(text))
    assert back == fam
    assert json.dumps(back.to_json(), sort_keys=sort_keys) == text


def _keys(draw, fam, max_size=4):
    element = st.integers(0, fam.key_field.q - 1)
    coeffs = st.lists(element, min_size=fam.lam, max_size=fam.lam)
    return [HashKey(tuple(c)) for c in draw(st.lists(coeffs, min_size=1, max_size=max_size))]


@SETTINGS
@hypothesis.given(data=st.data())
def test_hash_values_equal_the_scalar_oracle(data):
    fam = data.draw(families())
    keys = _keys(data.draw, fam)
    cells = [(e, i) for i in range(1, fam.n + 1) for e in range(fam.sigma_size)]
    got = hashing.hash_values(fam, keys, [fam.encode(e, i) for e, i in cells])
    assert got.tolist() == [[hash_oracle(fam, key, e, i) for e, i in cells] for key in keys]
    bias = hashing.hash_bias_tables(fam, keys)
    full = (1 << fam.out_bits) - 1
    assert bias.shape == (len(keys), fam.n, fam.sigma_size) and bias.dtype == np.uint8
    assert bias.tolist() == [
        [
            [int(hash_oracle(fam, key, e, i) == full) for e in range(fam.sigma_size)]
            for i in range(1, fam.n + 1)
        ]
        for key in keys
    ]
    for key, row in zip(keys, bias):
        assert np.array_equal(hashing.hash_bias_tables(fam, [key])[0], row)


@pytest.mark.parametrize("r, lam", [(1, 3), (2, 2), (4, 2), (6, 1), (4, 3)])
def test_hash_values_are_linear_in_the_key_over_all_basis_pairs(r, lam):
    fam = HashFamily(key_field=FieldCtx(r), lam=lam, n=1, sigma_size=1 << r)
    points = np.arange(fam.sigma_size)
    basis = [hashing.key_from_int(fam, 1 << bit) for bit in range(fam.key_bits)]
    sums = [
        hashing.key_from_int(fam, (1 << a) ^ (1 << b))
        for a, b in itertools.product(range(fam.key_bits), repeat=2)
    ]
    h_basis = hashing.hash_values(fam, basis, points)
    h_sums = hashing.hash_values(fam, sums, points).reshape(fam.key_bits, fam.key_bits, -1)
    assert np.array_equal(h_sums, h_basis[:, None, :] ^ h_basis[None, :, :])


@SETTINGS
@hypothesis.given(data=st.data())
def test_hash_values_are_linear_in_the_key(data):
    fam = data.draw(families())
    k1, k2 = _keys(data.draw, fam, max_size=1) + _keys(data.draw, fam, max_size=1)
    k_sum = HashKey(tuple(a ^ b for a, b in zip(k1.coeffs, k2.coeffs)))
    points = np.arange(fam.sigma_size * fam.n)
    h1, h2, h_sum = hashing.hash_values(fam, [k1, k2, k_sum], points)
    assert np.array_equal(h_sum, h1 ^ h2)


# every (r, lambda) of a shipped field with r lambda <= 16 key bits and
# lambda <= 2^r, so that lambda distinct points exist
SMALL = [(r, lam) for r in (1, 2, 4, 6, 8, 12) for lam in range(1, min(16 // r, 1 << r) + 1)]


@pytest.mark.parametrize("r, lam", SMALL, ids=[f"r{r}-lam{lam}" for r, lam in SMALL])
@hypothesis.settings(max_examples=4, deadline=None, derandomize=True, database=None)
@hypothesis.given(data=st.data())
def test_independence_certificate_equals_the_key_enumeration(r, lam, data):
    n = data.draw(st.integers(1, 2))
    sigma = data.draw(st.integers(-(-lam // n), (1 << r) // n))
    fam = HashFamily(
        key_field=FieldCtx(r),
        lam=lam,
        n=n,
        sigma_size=sigma,
        out_bits=data.draw(st.integers(1, r + 2)),
    )
    cells = [(e, i) for i in range(1, n + 1) for e in range(sigma)]
    picks = data.draw(st.permutations(range(len(cells))))[:lam]
    points = [cells[j] for j in picks]
    assert hashing.independence_check(fam, points) == independence_oracle(fam, points)
