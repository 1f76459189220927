"""Property tests for the exact rational reader (skipped without hypothesis)."""

from fractions import Fraction

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from nullcode.gf import exact  # noqa: E402
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
