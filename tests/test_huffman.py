import numpy as np
import pytest

from nullcode.errors import BadDistribution
from nullcode.huffman import entropy, expected_length, huffman


def test_dyadic_distribution():
    dist = [0.5, 0.25, 0.25]
    code = huffman(dist)
    assert sorted(len(c) for c in code) == [1, 2, 2]
    assert expected_length(code, dist) == 1.5
    assert entropy(dist) == 1.5


def test_single_symbol():
    code = huffman([1.0])
    assert code == [""]
    assert expected_length(code, [1.0]) == 0.0


def test_integer_weights():
    code = huffman([3, 1])
    assert sorted(len(c) for c in code) == [1, 1]


def test_prefix_free_and_bound_sweep():
    rng = np.random.default_rng(0)
    for _ in range(1000):
        k = int(rng.integers(1, 12))
        w = rng.random(k) + 1e-3
        probs = (w / w.sum()).tolist()
        code = huffman(probs)
        assert not any(
            i != j and b.startswith(a) for i, a in enumerate(code) for j, b in enumerate(code)
        )
        assert expected_length(code, probs) <= entropy(probs) + 1 + 1e-9


def test_deterministic_tie_breaking():
    dist = [0.25, 0.25, 0.25, 0.25]
    assert huffman(dist) == huffman(list(dist))
    assert huffman(dist) == ["00", "01", "10", "11"]


def test_bad_distributions():
    with pytest.raises(BadDistribution):
        huffman([])
    with pytest.raises(BadDistribution):
        huffman([0.5, -0.5])
    with pytest.raises(BadDistribution):
        huffman([0.0, 1.0])
