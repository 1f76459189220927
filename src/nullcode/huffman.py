"""Optimal prefix codes over positive integer weights (the transform's part
sizes), so merging adds exact integers and equal sums always tie.

Ties are broken by the smallest symbol index contained in a subtree, so the
same weights always yield the same code.  A single symbol gets the empty
codeword (length 0).
"""

from __future__ import annotations

import heapq
import math
import operator

from .errors import BadDistribution


def _weights(weights) -> list[int]:
    ws = [operator.index(w) for w in weights]
    if not ws:
        raise BadDistribution("empty distribution")
    if min(ws) <= 0:
        raise BadDistribution("weights must be positive")
    return ws


def huffman(weights) -> list[str]:
    """Codewords (as 0/1 strings) for each symbol index."""
    ws = _weights(weights)
    code = [""] * len(ws)
    # heap entries: (weight, smallest symbol index in subtree, its symbols)
    heap = [(w, i, [i]) for i, w in enumerate(ws)]
    heapq.heapify(heap)
    while len(heap) > 1:
        w0, i0, s0 = heapq.heappop(heap)
        w1, i1, s1 = heapq.heappop(heap)
        for s in s0:
            code[s] = "0" + code[s]
        for s in s1:
            code[s] = "1" + code[s]
        heapq.heappush(heap, (w0 + w1, min(i0, i1), s0 + s1))
    return code


def expected_length(code: list[str], weights) -> float:
    """sum(w * len(c)) / sum(w), one correctly rounded division."""
    ws = _weights(weights)
    if len(code) != len(ws):
        raise BadDistribution("code and distribution lengths differ")
    return sum(w * len(c) for w, c in zip(ws, code)) / sum(ws)


def entropy(weights) -> float:
    ws = _weights(weights)
    total = sum(ws)
    return 0.0 - sum(w / total * math.log2(w / total) for w in ws)
