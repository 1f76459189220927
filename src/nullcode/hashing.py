"""lambda-wise independent hashing via low-degree polynomials over
GF(2^r), plus the key-recovery attack that makes single instances easy.

A key is lambda coefficients of a polynomial over the key field; the hash
of a domain point (symbol e, coordinate i) is the low `out_bits` bits of
the polynomial evaluated at the injective encoding of (e, i).  Truncating
a uniform field element keeps it uniform, so any lambda distinct points
have jointly uniform outputs over width min(out_bits, r).

Every output bit is F_2-linear in the key bits, which is what the
Gaussian-elimination attack exploits: pick one codeword, write down the
linear system that forces the hash to cancel the oracle on it, and solve.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import codes as codes_mod
from . import linalg
from .codes import CodeSpec
from .errors import (
    BudgetExceeded,
    DistinctnessViolated,
    EncodingOverflow,
    LengthMismatch,
)
from .gf import FieldCtx
from .instances import OracleInstance

_EXACT_KEYBITS_LIMIT = 24


@dataclass(frozen=True)
class HashFamily:
    """Keys live in F_{2^r}^lam, domain points are (symbol rank, coordinate)."""

    key_field: FieldCtx
    lam: int
    n: int
    sigma_size: int
    out_bits: int = 6

    def __post_init__(self):
        if min(self.lam, self.n, self.sigma_size) < 1:
            raise ValueError("lambda, n and |Sigma| must be >= 1")
        if self.key_field.q < self.sigma_size * self.n:
            raise EncodingOverflow(
                f"2^r = {self.key_field.q} cannot injectively encode "
                f"{self.sigma_size} x {self.n} domain points"
            )

    @property
    def r(self) -> int:
        return self.key_field.s

    @property
    def key_bits(self) -> int:
        return self.r * self.lam

    @property
    def key_count(self) -> int:
        return 1 << self.key_bits

    @property
    def effective_width(self) -> int:
        return min(self.out_bits, self.r)

    def encode(self, e_rank: int, i: int) -> int:
        """Injective map (e, i) -> field element; i is 1-based."""
        if not 0 <= e_rank < self.sigma_size or not 1 <= i <= self.n:
            raise EncodingOverflow(f"point ({e_rank}, {i}) outside the domain")
        return e_rank * self.n + (i - 1)

    def to_json(self) -> dict:
        return {
            "r": self.r,
            "modulus": self.key_field.modulus,
            "lambda": self.lam,
            "n": self.n,
            "sigma": self.sigma_size,
            "out_bits": self.out_bits,
        }

    @classmethod
    def from_json(cls, data: dict) -> "HashFamily":
        return cls(
            key_field=FieldCtx(int(data["r"]), int(data["modulus"])),
            lam=int(data["lambda"]),
            n=int(data["n"]),
            sigma_size=int(data["sigma"]),
            out_bits=int(data.get("out_bits", 6)),
        )


@dataclass(frozen=True)
class HashKey:
    coeffs: tuple[int, ...]


def key_from_int(family: HashFamily, value: int) -> HashKey:
    mask = family.key_field.q - 1
    coeffs = tuple((value >> (j * family.r)) & mask for j in range(family.lam))
    return HashKey(coeffs)


def zero_key(family: HashFamily) -> HashKey:
    return HashKey((0,) * family.lam)


def random_key(family: HashFamily, rng: np.random.Generator) -> HashKey:
    return HashKey(tuple(int(rng.integers(family.key_field.q)) for _ in range(family.lam)))


def eval_poly(family: HashFamily, key: HashKey, x: int) -> int:
    if len(key.coeffs) != family.lam:
        raise LengthMismatch("key length != lambda")
    ctx = family.key_field
    acc = 0
    for c in reversed(key.coeffs):
        acc = ctx.mul(acc, x) ^ c
    return acc


def eval_hash(family: HashFamily, key: HashKey, e_rank: int, i: int) -> int:
    """Low out_bits bits of the polynomial at encode(e, i)."""
    value = eval_poly(family, key, family.encode(e_rank, i))
    return value & ((1 << family.out_bits) - 1)


def eval_hash_bias(family: HashFamily, key: HashKey, e_rank: int, i: int) -> int:
    """AND of the output bits (1 iff the block is all ones)."""
    return int(eval_hash(family, key, e_rank, i) == (1 << family.out_bits) - 1)


def hash_bias_tables(family: HashFamily, key: HashKey) -> np.ndarray:
    """Bias bit of the hash at every (coordinate, symbol) cell."""
    out = np.zeros((family.n, family.sigma_size), dtype=np.uint8)
    for i in range(1, family.n + 1):
        for e in range(family.sigma_size):
            out[i - 1, e] = eval_hash_bias(family, key, e, i)
    return out


def independence_check(family: HashFamily, points) -> bool:
    """Exact joint-uniformity over all keys at lambda distinct points.

    The joint distribution over width-w outputs, w = min(out_bits, r), must
    hit every one of 2^(w lambda) outcomes equally often (2^(w lambda)
    outcomes need w lambda <= key bits, which the polynomial construction
    guarantees since w <= r).
    """
    points = list(points)
    if len(points) != family.lam:
        raise LengthMismatch("need exactly lambda points")
    encoded = [family.encode(e, i) for e, i in points]
    if len(set(encoded)) != len(encoded):
        raise DistinctnessViolated("evaluation points must be distinct")
    if family.key_bits > _EXACT_KEYBITS_LIMIT:
        raise BudgetExceeded(
            f"exact mode enumerates 2^{family.key_bits} keys; over budget"
        )
    w = family.effective_width
    mask = (1 << w) - 1
    counts = np.zeros(1 << (w * family.lam), dtype=np.int64)
    for kv in range(family.key_count):
        key = key_from_int(family, kv)
        outcome = 0
        for x in encoded:
            outcome = (outcome << w) | (eval_poly(family, key, x) & mask)
        counts[outcome] += 1
    expected = family.key_count >> (w * family.lam)
    return bool(np.all(counts == expected))


# -- the key-recovery attack ---------------------------------------------------


def _hash_bit_matrix(family: HashFamily, encoded: list[int]) -> np.ndarray:
    """F_2 matrix of the map key bits -> concatenated output bits at the
    given encoded points, built by probing key basis vectors."""
    w = family.out_bits
    rows = w * len(encoded)
    cols = family.key_bits
    mat = np.zeros((rows, cols), dtype=np.int64)
    for bit in range(cols):
        key = key_from_int(family, 1 << bit)
        for pi, x in enumerate(encoded):
            val = eval_poly(family, key, x) & ((1 << w) - 1)
            for j in range(w):
                mat[pi * w + j, bit] = (val >> j) & 1
    return mat


def attack_solve(
    family: HashFamily,
    spec: CodeSpec,
    inst: OracleInstance,
) -> HashKey | None:
    """Find a key whose hash cancels the instance's bias oracle on one
    fixed codeword, by Gaussian elimination over the key bits.

    Picks the codeword of message rank 1, sets per-coordinate block
    targets whose AND reproduces the oracle's bias bit there, and solves
    the resulting F_2-linear system.  Returns None only when the system
    is infeasible (rank check fails).
    """
    if family.lam < spec.n:
        import warnings

        warnings.warn("lambda < n: the linear system may be infeasible", stacklevel=2)
    x_word = codes_mod.fold(spec, codes_mod.codeword_matrix(spec)[1])
    ranks = [spec.symbol_rank(s) for s in x_word]
    encoded = [family.encode(ranks[i], i + 1) for i in range(spec.n)]
    w = family.out_bits
    full_block = (1 << w) - 1
    targets = []
    for i in range(spec.n):
        bias_bit = int(inst.tables[i, ranks[i]])
        block = full_block if bias_bit else 0
        for j in range(w):
            targets.append((block >> j) & 1)
    gf2 = FieldCtx(1)
    mat = _hash_bit_matrix(family, encoded)
    sol = linalg.solve(gf2, mat, np.array(targets, dtype=np.int64))
    if sol is None:
        return None
    key_int = 0
    for bit, val in enumerate(sol.tolist()):
        key_int |= int(val) << bit
    key = key_from_int(family, key_int)
    for i in range(spec.n):
        want = int(inst.tables[i, ranks[i]])
        if eval_hash_bias(family, key, ranks[i], i + 1) != want:
            raise AssertionError("solved key fails the bias constraint")
    return key
