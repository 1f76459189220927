"""Property tests for the word codec: fold/unfold and to_digits/from_digits,
and the code spec's JSON round trip (skipped without hypothesis)."""

import json
import warnings
from dataclasses import replace

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from nullcode import codes  # noqa: E402
from nullcode.errors import DomainMismatch, LengthMismatch  # noqa: E402
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


INT_DTYPES = [np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16, np.uint32, np.uint64]


def outcome(f, *args):
    """f(*args), or the type and message of the exception it raises."""
    try:
        return f(*args)
    except Exception as exc:  # noqa: BLE001
        return type(exc), str(exc)


@pytest.mark.parametrize("dtype", INT_DTYPES, ids=lambda t: np.dtype(t).name)
@pytest.mark.parametrize("name", SPECS)
@hypothesis.settings(max_examples=20, deadline=None, derandomize=True, database=None)
@hypothesis.given(data=st.data())
def test_fold_of_an_integer_array_equals_fold_of_its_values(name, dtype, data):
    # the one-call conversion of a 1-D integer array against int on each value
    spec = SPECS[name]()
    info = np.iinfo(dtype)
    length = data.draw(st.sampled_from([spec.N, spec.N, 0, spec.N - 1, spec.N + 1]))
    values = data.draw(st.lists(st.integers(info.min, info.max), min_size=length, max_size=length))
    got = outcome(codes.fold, spec, np.array(values, dtype=dtype))
    assert got == outcome(codes.fold, spec, values) == outcome(fold_loop, spec, values)
    if length == spec.N:
        assert all(type(d) is int for sym in got for d in sym)
    else:
        assert got == (LengthMismatch, f"expected {spec.N} field symbols, got {length}")


@pytest.mark.parametrize("name", SPECS)
@hypothesis.settings(max_examples=20, deadline=None, derandomize=True, database=None)
@hypothesis.given(data=st.data())
def test_fold_of_other_arrays_goes_through_int(name, data):
    # float, bool and object arrays, and 2-D arrays, convert value by value
    spec = SPECS[name]()
    q = spec.field.q
    floats = data.draw(st.lists(st.floats(-q, q), min_size=spec.N, max_size=spec.N))
    ints = data.draw(st.lists(st.integers(-q, q), min_size=spec.N, max_size=spec.N))
    mixed = [f if i % 2 else v for i, (f, v) in enumerate(zip(floats, ints))]
    arrays = [
        np.array(floats),
        np.array(floats, dtype=np.float32),
        np.array(ints) % 2 == 1,
        np.array(mixed, dtype=object),
        np.array(ints).reshape(spec.N, 1),
        np.array(ints + ints).reshape(2, spec.N),
        np.array(ints).reshape(1, spec.N),
    ]
    for arr in arrays:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)
            got, want = outcome(codes.fold, spec, arr), outcome(fold_loop, spec, arr)
        assert got == want
        if arr.ndim == 1:
            assert all(type(d) is int for sym in got for d in sym)


def width_loop(spec, word):
    """unfold's width check symbol by symbol: the first symbol without len
    raises TypeError, the first of another width LengthMismatch."""
    for sym in word:
        if len(sym) != spec.m:
            raise LengthMismatch("symbol width does not match folding")


@pytest.mark.parametrize("name", SPECS)
@hypothesis.settings(max_examples=30, deadline=None, derandomize=True, database=None)
@hypothesis.given(data=st.data())
def test_unfold_rejects_ragged_and_unsized_symbols_at_the_first_one(name, data):
    spec = SPECS[name]()
    word = list(codes.fold(spec, data.draw(digit_lists(spec))))
    bad = data.draw(
        st.lists(
            st.tuples(
                st.integers(0, spec.n - 1),
                st.one_of(
                    st.integers(0, spec.m + 2).filter(lambda w: w != spec.m).map(lambda w: (0,) * w),
                    st.sampled_from([0, None, 1.5, np.int64(1)]),
                ),
            ),
            min_size=1,
            max_size=3,
        )
    )
    for pos, sym in bad:
        word[pos] = sym
    want = outcome(width_loop, spec, word)
    assert want[0] in (LengthMismatch, TypeError)
    assert outcome(codes.unfold, spec, tuple(word)) == want


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


@pytest.mark.parametrize("name", SPECS)
@hypothesis.settings(max_examples=20, deadline=None, derandomize=True, database=None)
@hypothesis.given(data=st.data())
def test_spec_json_round_trips_through_text(name, data):
    spec = SPECS[name]()
    q = spec.field.q
    # a drawn degree and multipliers, or the basis rows in a drawn order
    if spec.kind == "grs-folded":
        v = data.draw(st.lists(st.integers(1, q - 1), min_size=q - 1, max_size=q - 1))
        spec = replace(spec, k=data.draw(st.integers(0, q - 2)), v=tuple(v))
    else:
        spec = replace(spec, genmat=tuple(data.draw(st.permutations(spec.genmat))))
    sort_keys = data.draw(st.booleans())
    text = json.dumps(spec.to_json(), sort_keys=sort_keys)
    back = codes.CodeSpec.from_json(json.loads(text))
    assert back == spec
    assert json.dumps(back.to_json(), sort_keys=sort_keys) == text
    assert np.array_equal(back.generator_matrix(), spec.generator_matrix())
