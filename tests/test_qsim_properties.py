"""Property tests for the closed-form table statistics and the exact
referee pipeline (skipped without hypothesis)."""

from fractions import Fraction

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from nullcode import codes, qsim  # noqa: E402
from nullcode.codes import DecoderParams  # noqa: E402
from nullcode.gf import FieldCtx  # noqa: E402
from test_instances import SMALL_SPECS  # noqa: E402
from test_qsim import check_against_oracles, table_stats_sweep, table_stats_t_sum  # noqa: E402


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


@pytest.mark.parametrize("name", SMALL_SPECS)
@hypothesis.settings(max_examples=10, deadline=None, derandomize=True, database=None)
@hypothesis.given(data=st.data())
def test_exact_pipeline_matches_the_oracles(name, data):
    # random nonempty zero sets T_i, and a decoder radius up to the dual's
    # unique-decoding radius with a GOOD weight cap that the radius covers
    # (cap m <= radius), so GOOD is sound; the decoder's slack of 1/100 over
    # p = cap/n leaves the cap floor((p + 1/100) n) at cap, as every n < 100
    spec = SMALL_SPECS[name]()
    sigma = spec.sigma_size
    zero_sets = data.draw(st.lists(st.integers(1, 2**sigma - 1), min_size=spec.n, max_size=spec.n))
    phis = [((z >> np.arange(sigma)) & 1).astype(np.float64) for z in zero_sets]
    unique = max((codes.min_distance(codes.dual(spec)) - 1) // 2, 0)
    radius = data.draw(st.integers(0, unique))
    cap = data.draw(st.integers(0, radius // spec.m))
    check_against_oracles(spec, phis, DecoderParams(Fraction(cap, spec.n), radius))
