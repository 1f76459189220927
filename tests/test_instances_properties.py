"""Property tests for the batched verifier (skipped without hypothesis)."""

from fractions import Fraction

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from nullcode import instances  # noqa: E402
from test_instances import SMALL_SPECS, verify_each  # noqa: E402


@pytest.mark.parametrize("name", SMALL_SPECS)
@hypothesis.settings(max_examples=10, deadline=None, derandomize=True, database=None)
@hypothesis.given(
    p=st.fractions(min_value=0, max_value=1, max_denominator=16),
    seed=st.integers(min_value=0, max_value=2**32),
)
def test_verify_flat_equals_the_scalar_verifier(name, p, seed):
    spec = SMALL_SPECS[name]()
    inst = instances.sample_instance(spec, p, seed)
    flats = np.arange(spec.sigma_size**spec.n)
    assert np.array_equal(instances.verify_flat(inst, flats), verify_each(inst, flats))
