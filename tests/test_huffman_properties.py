"""Property tests for Huffman codes (skipped without hypothesis)."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from nullcode.huffman import huffman  # noqa: E402
from test_huffman import prefix_free, within_entropy_bound  # noqa: E402


# weights up to 100 keep W^W, the bound's largest integer, near 2^22000
@hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)
@hypothesis.given(weights=st.lists(st.integers(1, 100), min_size=1, max_size=20))
def test_codes_are_complete_prefix_free_and_within_the_bound(weights):
    code = huffman(weights)
    assert len(code) == len(weights) and set("".join(code)) <= {"0", "1"}
    assert prefix_free(code)
    assert within_entropy_bound(weights, code)
    if len(weights) > 1:  # every merge fills both branches: the Kraft sum is 1
        top = max(map(len, code))
        assert sum(1 << (top - len(c)) for c in code) == 1 << top
