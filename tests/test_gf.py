import itertools
import random
from fractions import Fraction

import numpy as np
import pytest

from nullcode import linalg
from nullcode.errors import DomainMismatch, InvOfZero
from nullcode.gf import (
    DEFAULT_MODULI,
    FieldCtx,
    _is_irreducible,
    _poly_mulmod,
    exact,
    trace,
)

# -- oracles: polynomial arithmetic mod the modulus, no tables ----------------


def _mul(ctx, a, b):
    return _poly_mulmod(a, b, ctx.modulus)


def _power(ctx, a, e):
    """a^e by square-and-multiply."""
    out = 1
    while e:
        if e & 1:
            out = _mul(ctx, out, a)
        a = _mul(ctx, a, a)
        e >>= 1
    return out


def _inverse(ctx, a):
    return _power(ctx, a, ctx.q - 2)


def _order(ctx, a):
    """Multiplicative order by repeated multiplication."""
    order, x = 1, a
    while x != 1:
        x = _mul(ctx, x, a)
        order += 1
    return order


def _smallest_generator(ctx):
    return next(g for g in range(1, ctx.q) if _order(ctx, g) == ctx.q - 1)


def _trace(ctx, x):
    """x + x^2 + x^4 + ... + x^(2^(s-1))."""
    t = 0
    for i in range(ctx.s):
        t ^= _power(ctx, x, 1 << i)
    return t


def _sampled_moduli(s, count=5):
    """count irreducible moduli of degree s, drawn with a fixed seed (all of
    them for s <= 4, which has fewer)."""
    masks = [(1 << s) | low << 1 | 1 for low in range(1 << (s - 1))]
    random.Random(s).shuffle(masks)
    return list(itertools.islice(filter(_is_irreducible, masks), count))


FIELDS = [(s, None) for s in sorted(DEFAULT_MODULI)] + [
    (s, m) for s in range(2, 17) for m in _sampled_moduli(s)
]


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
                direct ^= _power(ctx, x, 1 << i)
            assert trace(ctx, x) == direct


def test_trace_is_linear():
    for s in (2, 4):
        ctx = FieldCtx(s)
        for a in range(ctx.q):
            for b in range(ctx.q):
                assert trace(ctx, a ^ b) == trace(ctx, a) ^ trace(ctx, b)


def test_generators():
    assert FieldCtx(2).generator() == 2
    assert FieldCtx(1).generator() == 1
    ctx16 = FieldCtx(4)
    g = ctx16.generator()
    assert g == 2
    assert ctx16.element_order(g) == 15


def test_generator_order_properties():
    for s in (2, 4, 6):
        ctx = FieldCtx(s)
        g = ctx.generator()
        assert _power(ctx, g, ctx.q - 1) == 1
        # no proper divisor of q-1 is an order
        order = ctx.q - 1
        d = 1
        while d * d <= order:
            if order % d == 0:
                for cand in (d, order // d):
                    if cand < order:
                        assert _power(ctx, g, cand) != 1
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


def _gauss_count(s):
    """Number of monic irreducible polynomials of degree s over F_2:
    (1/s) * sum over d | s of mu(d) 2^(s/d)."""

    def mobius(d):
        primes = [p for p in range(2, d + 1) if d % p == 0 and all(p % r for r in range(2, p))]
        if any(d % (p * p) == 0 for p in primes):
            return 0
        return (-1) ** len(primes)

    return sum(mobius(d) << (s // d) for d in range(1, s + 1) if s % d == 0) // s


def _accepts(s, modulus):
    try:
        FieldCtx(s, modulus)
    except ValueError:
        return False
    return True


@pytest.mark.parametrize("s", range(1, 13))
def test_accepted_moduli_per_degree_match_gauss(s):
    accepted = [m for m in range(1 << s, 1 << (s + 1)) if _accepts(s, m)]
    assert len(accepted) == _gauss_count(s)
    if s <= 6:
        # F_2[x]/(m) is a field iff every nonzero residue has an inverse
        units = range(1, 1 << s)
        fields = [
            m
            for m in range(1 << s, 1 << (s + 1))
            if all(any(_poly_mulmod(a, b, m) == 1 for b in units) for a in units)
        ]
        assert accepted == fields


def test_table_and_raw_mul_agree():
    ctx = FieldCtx(4)
    for a in range(ctx.q):
        for b in range(ctx.q):
            assert ctx.mul(a, b) == _mul(ctx, a, b)


def test_json_roundtrip():
    ctx = FieldCtx(6)
    assert FieldCtx.from_json(ctx.to_json()) == ctx


@pytest.mark.parametrize("field", ["s", "modulus"])
@pytest.mark.parametrize("value", [1.5, 2.0, "2", True, None], ids=repr)
def test_from_json_rejects_a_field_that_is_not_an_integer(field, value):
    # int() truncated 1.5 to the toy field's s = 1 and parsed "2"
    data = {"s": 2, "modulus": 7, field: value}
    with pytest.raises(TypeError, match=f"^{field} must be an integer, got "):
        FieldCtx.from_json(data)


def exact_by_the_old_rules(value) -> Fraction:
    """The readers `exact` replaced: density and list_recover_count read a
    Python float as the decimal its repr prints and returned a Fraction as
    given; every other site called Fraction(value)."""
    if isinstance(value, float):
        return Fraction(repr(value))
    if type(value) is Fraction:
        return value
    return Fraction(value)


@pytest.mark.parametrize(
    "value",
    [0.8, 0.1, 2 / 3, 1e-6, 5e-324, 1.7976931348623157e308, -0.5, 0.0, -0.0, 1e300, 3.0,
     Fraction(1, 3), Fraction(-7, 1001), Fraction(10**40, 3), 0, 7, -3, 10**40, True,
     "1/3", "0.8001", " -2.5e-3 ", "1e300", "4"],
    ids=repr,
)
def test_exact_matches_the_old_rules(value):
    got = exact(value)
    assert type(got) is Fraction and got == exact_by_the_old_rules(value)
    assert type(got.numerator) is int and type(got.denominator) is int
    if type(value) is Fraction:
        assert got is value


def test_exact_reads_a_float_as_its_repr_and_caches_it():
    assert exact(0.1) == Fraction(1, 10) != Fraction(0.1)
    assert exact(0.8) is exact(0.8)
    assert exact(2 / 3) == Fraction(6666666666666666, 10**16)


@pytest.mark.parametrize(
    "value, want",
    [
        (np.float64(0.8), Fraction(4, 5)),  # repr is 'np.float64(0.8)' under numpy 2
        (np.float64(-0.5), Fraction(-1, 2)),
        (np.float32(0.5), Fraction(1, 2)),
        (np.float32(0.1), Fraction("0.10000000149011612")),  # the float it converts to
        (np.float16(0.25), Fraction(1, 4)),
        (np.int64(-3), Fraction(-3)),
        (np.uint64(2**64 - 1), Fraction(2**64 - 1)),
    ],
    ids=repr,
)
def test_exact_reads_numpy_scalars(value, want):
    got = exact(value)
    assert got == want
    assert type(got.numerator) is int and type(got.denominator) is int


@pytest.mark.parametrize(
    "value", [float("nan"), float("inf"), -float("inf"), np.float64("nan"), "abc", "1/0"], ids=repr
)
def test_exact_rejects_what_is_not_a_rational(value):
    with pytest.raises((ValueError, ZeroDivisionError)):
        exact(value)


@pytest.mark.parametrize("s", sorted(DEFAULT_MODULI))
def test_table_inverse_matches_power(s):
    ctx = FieldCtx(s)
    for a in range(1, ctx.q):
        inv = ctx.inv(a)
        assert inv == _inverse(ctx, a)
        assert ctx.mul(a, inv) == 1


def test_fields_above_2_16_are_rejected():
    with pytest.raises(ValueError, match="more than 65536 elements"):
        FieldCtx(17, (1 << 17) | (1 << 3) | 1)  # x^17 + x^3 + 1, irreducible


@pytest.mark.parametrize(
    "s, modulus", FIELDS, ids=[f"s{s}-{'default' if m is None else hex(m)}" for s, m in FIELDS]
)
def test_tables_match_the_oracles(s, modulus):
    ctx = FieldCtx(s, modulus)
    q, period = ctx.q, ctx.q - 1
    g = _smallest_generator(ctx)
    assert ctx.generator() == g
    powers = [1]
    for _ in range(period - 1):
        powers.append(_mul(ctx, powers[-1], g))
    assert ctx.exp_np[:period].tolist() == powers
    assert ctx.exp_np[period : 2 * period].tolist() == powers
    assert ctx.log_np[powers].tolist() == list(range(period))
    rng = random.Random(q + (modulus or 0))
    elems = range(q) if q <= 64 else [0, 1, 2, g, q - 1] + rng.sample(range(q), 40)
    for a in elems:
        for b in [0, 1, a] + [rng.randrange(q) for _ in range(3)]:
            assert ctx.mul(a, b) == _mul(ctx, a, b)
        assert ctx.trace(a) == _trace(ctx, a)
        if a:
            assert ctx.inv(a) == _inverse(ctx, a)
    # orders: every element of a small field; elements of each small order
    # d | q - 1 (and the generator) in a large one
    if q <= 256:
        order_elems = range(1, q)
    else:
        divisors = [d for d in range(1, 400) if period % d == 0]
        order_elems = [g] + [_power(ctx, rng.randrange(1, q), period // d) for d in divisors]
    for a in order_elems:
        assert ctx.element_order(a) == _order(ctx, a)
    with pytest.raises(InvOfZero):
        ctx.inv(0)
    with pytest.raises(InvOfZero):
        ctx.element_order(0)


def test_mul_arrays_matches_scalar_mul():
    ctx = FieldCtx(6)
    rng = np.random.default_rng(0)
    a = rng.integers(ctx.q, size=(4, 5))
    b = rng.integers(ctx.q, size=5)  # broadcast along the rows
    a[0, 0], b[1] = 0, 0
    got = linalg.mul_arrays(ctx, a, b)
    assert got.shape == (4, 5)
    assert got.tolist() == [[_mul(ctx, int(x), int(y)) for x, y in zip(row, b)] for row in a]
