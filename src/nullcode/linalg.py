"""Dense linear algebra over GF(2^s) on numpy integer arrays.

Matrices are 2-D int64 arrays of field elements.  Addition is XOR
(characteristic 2); multiplication goes through the context's exp/log
tables so row operations vectorize.
"""

from __future__ import annotations

import numpy as np

from .gf import FieldCtx


def mul_arrays(ctx: FieldCtx, a, b) -> np.ndarray:
    """Elementwise field product with numpy broadcasting."""
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    return ctx.exp_np[ctx.log_np[a] + ctx.log_np[b]]


def poly_eval(ctx: FieldCtx, coeffs, xs) -> np.ndarray:
    """The polynomials with ascending coefficients along the first axis of
    coeffs at the points xs, by Horner's rule.  Each coefficient broadcasts
    against xs, so coeffs of shape (deg + 1, keys, 1) and xs of shape
    (points,) give a (keys, points) array; xs may hold 0."""
    coeffs = np.asarray(coeffs, dtype=np.int64)
    xs = np.asarray(xs, dtype=np.int64)
    acc = np.zeros(np.broadcast_shapes(coeffs.shape[1:], xs.shape), dtype=np.int64)
    for c in coeffs[::-1]:
        acc = mul_arrays(ctx, acc, xs) ^ c
    return acc


_PRODUCT_BLOCK = 1 << 20  # entries of the (rows, inner, columns) products of one block


def matmul(ctx: FieldCtx, a, b) -> np.ndarray:
    """Matrix product over the field: every a[i, k] b[k, j] at once for a
    block of rows of a, XOR-reduced over k."""
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    out = np.empty((a.shape[0], b.shape[1]), dtype=np.int64)
    step = max(1, _PRODUCT_BLOCK // max(b.size, 1))
    for lo in range(0, a.shape[0], step):
        prod = mul_arrays(ctx, a[lo : lo + step, :, None], b[None])
        out[lo : lo + step] = np.bitwise_xor.reduce(prod, axis=1)
    return out


def rref(ctx: FieldCtx, a) -> tuple[np.ndarray, list[int]]:
    """Reduced row-echelon form; returns (matrix, pivot column list)."""
    r = np.array(a, dtype=np.int64, copy=True)
    if r.size == 0:
        return r, []
    rows, cols = r.shape
    pivots: list[int] = []
    row = 0
    for col in range(cols):
        if row >= rows:
            break
        nz = r[row:, col].nonzero()[0]
        if nz.size == 0:
            continue
        pr = row + int(nz[0])
        if pr != row:
            r[[row, pr]] = r[[pr, row]]
        # the pivot row is zero left of col, so row operations start there
        pivot = int(r[row, col])
        if pivot != 1:
            r[row, col:] = mul_arrays(ctx, r[row, col:], ctx.inv(pivot))
        # clear col in every other row; rows already zero there add 0
        factor = r[:, col].copy()
        factor[row] = 0
        r[:, col:] ^= mul_arrays(ctx, factor[:, None], r[row, col:][None, :])
        pivots.append(col)
        row += 1
    return r, pivots


def rank(ctx: FieldCtx, a) -> int:
    return len(rref(ctx, a)[1])


def solve(ctx: FieldCtx, a, b) -> np.ndarray | None:
    """One solution of A x = b, or None if the system is inconsistent.

    Free variables are set to zero.
    """
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64).reshape(-1, 1)
    aug = np.hstack([a, b])
    r, pivots = rref(ctx, aug)
    ncols = a.shape[1]
    if ncols in pivots:
        return None
    x = np.zeros(ncols, dtype=np.int64)
    for i, col in enumerate(pivots):
        x[col] = r[i, ncols]
    return x


def null_space(ctx: FieldCtx, a) -> np.ndarray:
    """Basis rows of {x : A x = 0}, in canonical rref-derived form."""
    a = np.asarray(a, dtype=np.int64)
    ncols = a.shape[1]
    r, pivots = rref(ctx, a)
    free = [c for c in range(ncols) if c not in pivots]
    basis = np.zeros((len(free), ncols), dtype=np.int64)
    for bi, fc in enumerate(free):
        basis[bi, fc] = 1
        for ri, pc in enumerate(pivots):
            basis[bi, pc] = int(r[ri, fc])  # -r = r in char 2
    return basis

