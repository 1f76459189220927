import numpy as np
import pytest

from nullcode import linalg
from nullcode.errors import DomainMismatch, InvOfZero
from nullcode.gf import (
    DEFAULT_MODULI,
    FieldCtx,
    find_generator,
    trace,
)


def test_gf4_multiplication_examples():
    ctx = FieldCtx(2)
    assert ctx.mul(2, 2) == 3  # gamma^2 = gamma + 1
    assert ctx.mul(2, 3) == 1  # gamma * gamma^2 = gamma^3 = 1
    for a in range(4):
        assert ctx.mul(a, 1) == a


def test_inv_of_zero():
    ctx = FieldCtx(2)
    with pytest.raises(InvOfZero):
        ctx.inv(0)


def test_domain_mismatch_on_foreign_element():
    ctx = FieldCtx(2)
    with pytest.raises(DomainMismatch):
        trace(ctx, 5)


def test_trace_values_gf4():
    ctx = FieldCtx(2)
    assert trace(ctx, 0) == 0
    assert trace(ctx, 1) == 0  # 1 + 1 = 0 in characteristic 2
    assert trace(ctx, 2) == 1  # gamma + gamma^2 = 1 since gamma^2+gamma+1=0
    assert trace(ctx, 3) == 1


def test_trace_matches_direct_power_sum():
    for s in (2, 4, 6):
        ctx = FieldCtx(s)
        for x in range(min(ctx.q, 64)):
            direct = 0
            for i in range(s):
                direct ^= ctx.pow(x, 1 << i)
            assert trace(ctx, x) == direct


def test_trace_is_linear():
    for s in (2, 4):
        ctx = FieldCtx(s)
        for a in range(ctx.q):
            for b in range(ctx.q):
                assert trace(ctx, a ^ b) == trace(ctx, a) ^ trace(ctx, b)


def test_generators():
    assert find_generator(FieldCtx(2)) == 2
    assert find_generator(FieldCtx(1)) == 1
    ctx16 = FieldCtx(4)
    g = find_generator(ctx16)
    assert g == 2
    assert ctx16.element_order(g) == 15


def test_generator_order_properties():
    for s in (2, 4, 6):
        ctx = FieldCtx(s)
        g = find_generator(ctx)
        assert ctx.pow(g, ctx.q - 1) == 1
        # no proper divisor of q-1 is an order
        order = ctx.q - 1
        d = 1
        while d * d <= order:
            if order % d == 0:
                for cand in (d, order // d):
                    if cand < order:
                        assert ctx.pow(g, cand) != 1
            d += 1


def test_inverses_exhaustive():
    for s in (2, 4):
        ctx = FieldCtx(s)
        for a in range(1, ctx.q):
            assert ctx.mul(a, ctx.inv(a)) == 1


def test_field_axioms_exhaustive_gf4():
    ctx = FieldCtx(2)
    elems = range(ctx.q)
    for a in elems:
        for b in elems:
            assert ctx.add(a, b) == ctx.add(b, a)
            assert ctx.mul(a, b) == ctx.mul(b, a)
            for c in elems:
                assert ctx.mul(a, ctx.add(b, c)) == ctx.add(
                    ctx.mul(a, b), ctx.mul(a, c)
                )
                assert ctx.mul(ctx.mul(a, b), c) == ctx.mul(a, ctx.mul(b, c))


def test_default_moduli_are_irreducible():
    for s in DEFAULT_MODULI:
        FieldCtx(s)  # constructor validates irreducibility


def test_reducible_modulus_rejected():
    with pytest.raises(ValueError):
        FieldCtx(2, 0b101)  # x^2 + 1 = (x+1)^2


def test_table_and_raw_mul_agree():
    ctx = FieldCtx(4)
    for a in range(ctx.q):
        for b in range(ctx.q):
            assert ctx.mul(a, b) == ctx._raw_mul(a, b)


def test_json_roundtrip():
    ctx = FieldCtx(6)
    assert FieldCtx.from_json(ctx.to_json()) == ctx


@pytest.mark.parametrize("s", sorted(DEFAULT_MODULI))
def test_table_inverse_matches_power(s):
    ctx = FieldCtx(s)
    assert ctx.log_np is not None
    for a in range(1, ctx.q):
        inv = ctx.inv(a)
        assert inv == ctx.pow(a, ctx.q - 2)
        assert ctx.mul(a, inv) == 1


def test_inverse_without_tables():
    ctx = FieldCtx(17, (1 << 17) | (1 << 3) | 1)  # x^17 + x^3 + 1, no tables
    assert ctx.log_np is None
    for a in (1, 2, 3, 0x1ABCD, ctx.q - 1):
        assert ctx.mul(a, ctx.inv(a)) == 1
    with pytest.raises(InvOfZero):
        ctx.inv(0)


def test_mul_arrays_without_tables_matches_scalar_mul():
    ctx = FieldCtx(17, (1 << 17) | (1 << 3) | 1)  # x^17 + x^3 + 1, no tables
    assert ctx.log_np is None
    rng = np.random.default_rng(0)
    a = rng.integers(ctx.q, size=(4, 5))
    b = rng.integers(ctx.q, size=5)  # broadcast along the rows
    a[0, 0], b[1] = 0, 0
    got = linalg.mul_arrays(ctx, a, b)
    assert got.shape == (4, 5)
    assert got.tolist() == [[ctx.mul(int(x), int(y)) for x, y in zip(row, b)] for row in a]
