"""Property tests for the batched verifier and the instance's JSON round
trip (skipped without hypothesis)."""

import json
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


@pytest.mark.parametrize("name", SMALL_SPECS)
@hypothesis.settings(max_examples=10, deadline=None, derandomize=True, database=None)
@hypothesis.given(
    p=st.fractions(min_value=0, max_value=1, max_denominator=1 << 20),
    seed=st.integers(min_value=0, max_value=2**64),
    sort_keys=st.booleans(),
)
def test_instance_json_round_trips_through_text(name, p, seed, sort_keys):
    inst = instances.sample_instance(SMALL_SPECS[name](), p, seed)
    text = json.dumps(instances.instance_to_json(inst), sort_keys=sort_keys)
    back = instances.instance_from_json(json.loads(text))
    assert (back.spec, back.p, back.seed) == (inst.spec, Fraction(p), seed)
    assert back.tables.dtype == np.uint8 and np.array_equal(back.tables, inst.tables)
    assert json.dumps(instances.instance_to_json(back), sort_keys=sort_keys) == text
