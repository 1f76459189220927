"""Property tests for the word codec: fold/unfold and to_digits/from_digits
(skipped without hypothesis)."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from nullcode import codes  # noqa: E402
from nullcode.errors import DomainMismatch  # noqa: E402
from test_codes import GRS_K3, fold_loop  # noqa: E402
from test_instances import SMALL_SPECS  # noqa: E402

SPECS = {**SMALL_SPECS, "grs-k3-m5": lambda: GRS_K3, "preset2": lambda: codes.preset(2)}


def digit_lists(spec):
    return st.lists(st.integers(0, spec.field.q - 1), min_size=spec.N, max_size=spec.N)


@pytest.mark.parametrize("name", SPECS)
@hypothesis.settings(max_examples=50, deadline=None, derandomize=True, database=None)
@hypothesis.given(data=st.data())
def test_fold_and_unfold_are_inverse(name, data):
    spec = SPECS[name]()
    digits = data.draw(digit_lists(spec))
    word = codes.fold(spec, digits)
    assert word == fold_loop(spec, digits)
    assert len(word) == spec.n and all(len(sym) == spec.m for sym in word)
    unfolded = codes.unfold(spec, word)
    assert unfolded.dtype == np.int64 and unfolded.tolist() == digits
    assert codes.fold(spec, unfolded) == word


@pytest.mark.parametrize("name", SPECS)
@hypothesis.settings(max_examples=50, deadline=None, derandomize=True, database=None)
@hypothesis.given(data=st.data())
def test_unfold_rejects_each_digit_outside_the_field(name, data):
    spec = SPECS[name]()
    q = spec.field.q
    digits = data.draw(digit_lists(spec))
    pos = data.draw(st.integers(0, spec.N - 1))
    digits[pos] = data.draw(
        st.one_of(
            st.integers(max_value=-1),
            st.integers(min_value=q),
            st.booleans(),
            st.sampled_from([np.bool_(True), np.bool_(False)]),
            st.floats(0, q - 1),
        )
    )
    word = tuple(tuple(digits[i : i + spec.m]) for i in range(0, spec.N, spec.m))
    with pytest.raises(DomainMismatch, match=rf"every digit must be an integer in \[0, {q}\)"):
        codes.unfold(spec, word)


@hypothesis.settings(max_examples=200, deadline=None, derandomize=True, database=None)
@hypothesis.given(data=st.data())
def test_digits_round_trip(data):
    base = data.draw(st.integers(2, 1 << 16))
    count = data.draw(st.integers(1, max(1, 62 // base.bit_length())))
    values = data.draw(st.lists(st.integers(0, base**count - 1), min_size=1, max_size=20))
    digits = codes.to_digits(values, base, count)
    assert digits.shape == (len(values), count)
    assert ((0 <= digits) & (digits < base)).all()
    assert codes.from_digits(digits, base).tolist() == values
    assert np.array_equal(codes.to_digits(codes.from_digits(digits, base), base, count), digits)
    # most significant first: the digits read back one at a time
    for value, row in zip(values, digits.tolist()):
        acc = 0
        for d in row:
            acc = acc * base + d
        assert acc == value
