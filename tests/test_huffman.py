import itertools
import math

import numpy as np
import pytest

from nullcode.errors import BadDistribution
from nullcode.huffman import entropy, expected_length, huffman


def prefix_free(code) -> bool:
    return not any(
        i != j and b.startswith(a) for i, a in enumerate(code) for j, b in enumerate(code)
    )


def within_entropy_bound(weights, code) -> bool:
    """H <= E[len] <= H + 1 for positive integer weights, exactly.  With
    W = sum w_i, L = sum w_i len_i and P = prod w_i^w_i, the entropy is
    H = log2(W^W / P) / W, so H <= L / W iff W^W <= P 2^L, and
    L / W <= H + 1 iff P 2^L <= W^W 2^W."""
    W = sum(weights)
    L = sum(w * len(c) for w, c in zip(weights, code))
    P = math.prod(w**w for w in weights)
    return W**W <= P << L <= W**W << W


def test_dyadic_distribution():
    weights = [2, 1, 1]
    code = huffman(weights)
    assert [len(c) for c in code] == [1, 2, 2]
    assert expected_length(code, weights) == 1.5
    assert entropy(weights) == 1.5


def test_single_symbol():
    code = huffman([5])
    assert code == [""]
    assert expected_length(code, [5]) == 0.0
    assert math.copysign(1, entropy([4])) == 1  # 0.0, not -0.0


def test_integer_weights():
    code = huffman([3, 1])
    assert sorted(len(c) for c in code) == [1, 1]


def test_prefix_free_and_bound_sweep():
    rng = np.random.default_rng(0)
    for _ in range(1000):
        k = int(rng.integers(1, 12))
        weights = rng.integers(1, 100, size=k).tolist()
        code = huffman(weights)
        assert prefix_free(code)
        assert within_entropy_bound(weights, code)


def test_deterministic_tie_breaking():
    weights = [1, 1, 1, 1]
    assert huffman(weights) == huffman(list(weights))
    assert huffman(weights) == ["00", "01", "10", "11"]
    # the merged {0, 2} ties {1} at weight 2 and goes first on index 0
    assert huffman([1, 2, 1, 2]) == ["100", "11", "101", "0"]


def test_bad_distributions():
    with pytest.raises(BadDistribution):
        huffman([])
    with pytest.raises(BadDistribution):
        huffman([1, -1])
    with pytest.raises(BadDistribution):
        huffman([0, 1])
    with pytest.raises(TypeError):
        huffman([0.5, 0.5])


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_expected_length_is_the_minimum_over_kraft_lengths(k):
    # an optimal prefix code of k symbols has lengths in {1..k-1}, and a
    # length vector is a prefix code's iff its Kraft sum is at most 1
    top = k - 1
    feasible = [
        ls
        for ls in itertools.product(range(1, k), repeat=k)
        if sum(1 << (top - ell) for ell in ls) <= 1 << top
    ]
    rng = np.random.default_rng(k)
    for _ in range(200):
        weights = rng.integers(1, 20, size=k).tolist()
        best = min(sum(w * ell for w, ell in zip(weights, ls)) for ls in feasible)
        assert expected_length(huffman(weights), weights) == best / sum(weights)
