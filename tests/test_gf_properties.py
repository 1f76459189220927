"""Property tests for the exact rational reader and for the field
axioms (skipped without hypothesis)."""

import itertools
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from nullcode.gf import FieldCtx, _is_irreducible, _poly_mulmod, exact  # noqa: E402
from test_gf import exact_by_the_old_rules  # noqa: E402


@hypothesis.settings(max_examples=500, deadline=None, derandomize=True, database=None)
@hypothesis.given(x=st.floats(allow_nan=False, allow_infinity=False))
def test_exact_reads_every_finite_float_as_its_repr(x):
    got = exact(x)
    assert got == exact_by_the_old_rules(x) == Fraction(repr(x))
    # repr is the shortest decimal that rounds back to x
    assert float(got) == x
    assert exact(np.float64(x)) == got
    assert exact(-x) == -got
    assert exact(got) is got


@st.composite
def irreducible_moduli(draw):
    """(s, the first irreducible mask of degree s at or cyclically after a
    drawn mask of that degree), for s in 2..16."""
    s = draw(st.integers(2, 16))
    start = draw(st.integers(1 << s, (1 << (s + 1)) - 1))
    masks = itertools.chain(range(start, 1 << (s + 1)), range(1 << s, start))
    return s, next(filter(_is_irreducible, masks))


# a field of degree 16 takes about 0.1 s to build; examples share them
field = lru_cache(maxsize=None)(FieldCtx)


@hypothesis.settings(max_examples=60, deadline=None, derandomize=True, database=None)
@hypothesis.given(sm=irreducible_moduli(), data=st.data())
def test_field_axioms_hold_on_sampled_moduli(sm, data):
    s, m = sm
    ctx = field(s, m)
    elem = st.integers(0, ctx.q - 1)
    for a, b, c in data.draw(st.lists(st.tuples(elem, elem, elem), min_size=1, max_size=20)):
        assert ctx.mul(a, b) == _poly_mulmod(a, b, m)  # the tables against the polynomials
        assert ctx.mul(a, b) == ctx.mul(b, a)
        assert ctx.mul(ctx.mul(a, b), c) == ctx.mul(a, ctx.mul(b, c))
        assert ctx.mul(a, b ^ c) == ctx.mul(a, b) ^ ctx.mul(a, c)
        assert (ctx.mul(a, 1), ctx.mul(a, 0)) == (a, 0)
        if a:
            assert ctx.mul(a, ctx.inv(a)) == 1


@hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)
@hypothesis.given(data=st.data())
def test_any_integer_modulus_builds_a_field_or_raises_value_error(data):
    s = data.draw(st.integers(1, 16))
    modulus = data.draw(
        st.one_of(
            st.integers(),  # mostly far from degree s, either sign
            st.integers(-(1 << (s + 1)), 1 << (s + 1)),  # negative, zero or small
            st.integers(1 << s, (1 << (s + 1)) - 1),  # degree s
        )
    )
    well_formed = modulus >> s == 1 and _is_irreducible(modulus)
    try:
        ctx = field(s, modulus)
    except ValueError:
        assert not well_formed
    else:
        assert well_formed and ctx.modulus == modulus
