"""Optimal prefix codes with deterministic tie-breaking.

Ties during tree merging are broken by the smallest symbol index contained
in a subtree, so the same distribution always yields the same code.  A
single-symbol distribution gets the empty codeword (length 0).
"""

from __future__ import annotations

import heapq
import math

from .errors import BadDistribution


def _normalize(weights) -> list[float]:
    ws = [float(w) for w in weights]
    if not ws:
        raise BadDistribution("empty distribution")
    if any(w <= 0 for w in ws):
        raise BadDistribution("probabilities must be positive")
    total = sum(ws)
    if abs(total - 1.0) > 1e-9:
        ws = [w / total for w in ws]
    return ws


def huffman(weights) -> list[str]:
    """Codewords (as 0/1 strings) for each symbol index.

    Accepts probabilities or unnormalized positive weights.
    """
    probs = _normalize(weights)
    if len(probs) == 1:
        return [""]
    # heap entries: (probability, smallest symbol index in subtree, node)
    # node is either an int (symbol) or a (left, right) pair
    heap = [(p, i, i) for i, p in enumerate(probs)]
    heapq.heapify(heap)
    while len(heap) > 1:
        p0, i0, n0 = heapq.heappop(heap)
        p1, i1, n1 = heapq.heappop(heap)
        heapq.heappush(heap, (p0 + p1, min(i0, i1), (n0, n1)))
    code = [""] * len(probs)

    def walk(node, prefix):
        if isinstance(node, int):
            code[node] = prefix
            return
        walk(node[0], prefix + "0")
        walk(node[1], prefix + "1")

    walk(heap[0][2], "")
    return code


def expected_length(code: list[str], weights) -> float:
    probs = _normalize(weights)
    if len(code) != len(probs):
        raise BadDistribution("code and distribution lengths differ")
    return sum(p * len(c) for p, c in zip(probs, code))


def entropy(weights) -> float:
    probs = _normalize(weights)
    return -sum(p * math.log2(p) for p in probs)
