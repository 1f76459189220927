"""Property tests for linear algebra over small fields (skipped without
hypothesis): solutions and kernels checked by matrix products."""

from functools import lru_cache

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from nullcode import linalg  # noqa: E402
from nullcode.gf import FieldCtx  # noqa: E402

MODULI = {1: None, 2: None, 3: 0b1011, 4: None}  # x^3 + x + 1 has no default
field = lru_cache(maxsize=None)(lambda s: FieldCtx(s, MODULI[s]))


@st.composite
def systems(draw):
    """(field, A, b): A of rows x cols <= 6 x 6 over GF(2^s), s <= 4, the
    product of random rows x r and r x cols factors so that every rank up
    to min(rows, cols) comes up; b is A x0 for a random x0, or random."""
    ctx = field(draw(st.integers(1, 4)))
    rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    r = draw(st.integers(0, min(rows, cols)))

    def matrix(m, n):
        cells = draw(st.lists(st.integers(0, ctx.q - 1), min_size=m * n, max_size=m * n))
        return np.array(cells, dtype=np.int64).reshape(m, n)

    a = linalg.matmul(ctx, matrix(rows, r), matrix(r, cols))
    if draw(st.booleans()):
        b = linalg.matmul(ctx, a, matrix(cols, 1))[:, 0]
    else:
        b = matrix(rows, 1)[:, 0]
    return ctx, a, b


@hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)
@hypothesis.given(system=systems())
def test_solve_returns_a_solution_exactly_when_the_system_is_consistent(system):
    ctx, a, b = system
    x = linalg.solve(ctx, a, b)
    consistent = linalg.rank(ctx, np.hstack([a, b[:, None]])) == linalg.rank(ctx, a)
    assert (x is not None) == consistent
    if x is not None:
        assert x.shape == (a.shape[1],)
        assert linalg.matmul(ctx, a, x[:, None])[:, 0].tolist() == b.tolist()


@hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)
@hypothesis.given(system=systems())
def test_null_space_is_an_independent_basis_of_the_kernel(system):
    ctx, a, _ = system
    basis = linalg.null_space(ctx, a)
    rank = linalg.rank(ctx, a)
    assert basis.shape == (a.shape[1] - rank, a.shape[1])
    assert not linalg.matmul(ctx, a, basis.T).any()  # every row is in the kernel
    assert linalg.rank(ctx, basis) == len(basis)  # and the rows are independent
