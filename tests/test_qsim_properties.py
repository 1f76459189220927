"""Property tests for the closed-form table statistics (skipped without
hypothesis)."""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from nullcode import qsim  # noqa: E402
from nullcode.gf import FieldCtx  # noqa: E402
from test_qsim import table_stats_sweep, table_stats_t_sum  # noqa: E402


@pytest.mark.parametrize("m", range(5))  # |Sigma| in {1, 2, 4, 8, 16}
@hypothesis.settings(max_examples=30, deadline=None, derandomize=True, database=None)
@hypothesis.given(p=st.fractions(min_value=0, max_value=1, max_denominator=64))
def test_closed_form_equals_the_sweep_over_every_table(m, p):
    stats = qsim.table_fourier_stats(FieldCtx(1), m, p)
    swept = table_stats_sweep(1 << m, p)
    assert stats == swept
    if m and 0 < p < 1:  # the t-sum oracle of the larger sizes, checked here
        assert table_stats_t_sum(1 << m, p) == swept
    assert stats["mean_W0_sq_exact"] == 1 - p
    assert stats["empty_mass"] == float(p ** (1 << m))
