"""lambda-wise independent hashing via low-degree polynomials over
GF(2^r), plus the key-recovery attack that makes single instances easy.

A key is lambda coefficients of a polynomial over the key field; the hash
of a domain point (symbol e, coordinate i) is the low `out_bits` bits of
the polynomial evaluated at the injective encoding of (e, i).  Truncating
a uniform field element keeps it uniform, so any lambda distinct points
have jointly uniform outputs over width min(out_bits, r).

Every output bit is F_2-linear in the key bits.  The independence check
certifies joint uniformity by the rank of that linear map, and the
Gaussian-elimination attack exploits it: pick one codeword, write down the
linear system that forces the hash to cancel the oracle on it, and solve.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import codes as codes_mod
from . import linalg
from .budget import DEFAULT_ENUM_BUDGET
from .codes import CodeSpec
from .errors import (
    BudgetExceeded,
    DistinctnessViolated,
    EncodingOverflow,
    LengthMismatch,
)
from .gf import FieldCtx, json_int
from .instances import OracleInstance

_GF2 = FieldCtx(1)


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
        if not 1 <= self.out_bits <= 63:  # an all-ones mask of out_bits bits fits in int64
            raise ValueError(f"out_bits {self.out_bits} is outside [1, 63]")
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

    def encode(self, e_rank, i):
        """Injective map (e, i) -> field element, elementwise; i is 1-based."""
        e_rank, i = np.asarray(e_rank), np.asarray(i)
        if not ((0 <= e_rank) & (e_rank < self.sigma_size) & (1 <= i) & (i <= self.n)).all():
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
        """Inverse of to_json; TypeError for a field that is not an integer."""
        return cls(
            key_field=FieldCtx(json_int(data["r"], "r"), json_int(data["modulus"], "modulus")),
            lam=json_int(data["lambda"], "lambda"),
            n=json_int(data["n"], "n"),
            sigma_size=json_int(data["sigma"], "sigma"),
            out_bits=json_int(data.get("out_bits", 6), "out_bits"),
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


def hash_values(family: HashFamily, keys, points) -> np.ndarray:
    """Low out_bits bits of each key's polynomial at each encoded point,
    as a (keys x points) array."""
    coeffs = [key.coeffs for key in keys]
    if any(len(c) != family.lam for c in coeffs):
        raise LengthMismatch("key length != lambda")
    coeffs = np.array(coeffs, dtype=np.int64).reshape(len(coeffs), family.lam)
    values = linalg.poly_eval(family.key_field, coeffs.T[:, :, None], points)
    return values & ((1 << family.out_bits) - 1)


def hash_bias_tables(family: HashFamily, keys) -> np.ndarray:
    """Bias bit of each key's hash at every (coordinate, symbol) cell, as a
    (keys x n x |Sigma|) uint8 array: the AND of the output bits, 1 iff
    the block is all ones.  The keys are hashed in blocks of at most
    DEFAULT_ENUM_BUDGET cells, so only one block's int64 values are held
    at a time."""
    i, e = np.indices((family.n, family.sigma_size))
    points = family.encode(e, i + 1).ravel()
    out = np.empty((len(keys), points.size), dtype=np.uint8)
    step = max(1, DEFAULT_ENUM_BUDGET // points.size)
    for lo in range(0, len(keys), step):
        values = hash_values(family, keys[lo : lo + step], points)
        out[lo : lo + step] = values == (1 << family.out_bits) - 1
    return out.reshape(-1, family.n, family.sigma_size)


def _hash_bit_matrix(family: HashFamily, encoded) -> np.ndarray:
    """F_2 matrix of the map key bits -> concatenated output bits at the
    given encoded points: row p out_bits + j is bit j at point p, column b
    the image of key basis vector b."""
    basis = [key_from_int(family, 1 << bit) for bit in range(family.key_bits)]
    values = hash_values(family, basis, encoded)
    bits = (values[:, :, None] >> np.arange(family.out_bits)) & 1
    return bits.reshape(family.key_bits, -1).T


def independence_check(family: HashFamily, points) -> bool:
    """Exact joint uniformity over all keys at lambda distinct points.

    Every output bit is F_2-linear in the key bits, so the width-w outputs,
    w = min(out_bits, r), hit all 2^(w lambda) outcomes equally often over
    the 2^(r lambda) keys exactly when the linear map from key bits to
    output bits is onto, i.e. when its (w lambda) x (r lambda) bit matrix
    has rank w lambda.  The entries of that matrix are bounded by the
    enumeration budget.

    For lambda distinct points the map from a key to its lambda values is
    a Vandermonde matrix, which is invertible, and taking the low w bits of
    each value is onto; so the certificate always holds and False is never
    returned.  It stays the check's output, not an assumption.
    """
    points = list(points)
    if len(points) != family.lam:
        raise LengthMismatch("need exactly lambda points")
    encoded = family.encode(*np.array(points).T)
    if np.unique(encoded).size != encoded.size:
        raise DistinctnessViolated("evaluation points must be distinct")
    entries = family.out_bits * family.lam * family.key_bits
    if entries > DEFAULT_ENUM_BUDGET:
        raise BudgetExceeded(f"{entries} key-bit matrix entries exceed budget {DEFAULT_ENUM_BUDGET}")
    # output bits at or above r are zero rows, which leave the rank alone
    rank = linalg.rank(_GF2, _hash_bit_matrix(family, encoded))
    return rank == family.effective_width * family.lam


# -- the key-recovery attack ---------------------------------------------------


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
        warnings.warn("lambda < n: the linear system may be infeasible", stacklevel=2)
    ranks = codes_mod.codeword_rank_matrix(spec)[1]
    encoded = family.encode(ranks, np.arange(1, spec.n + 1))
    bias = inst.tables[np.arange(spec.n), ranks]
    # an all-ones block where the bias bit is 1, all zeros where it is 0
    targets = np.repeat(bias.astype(np.int64), family.out_bits)
    sol = linalg.solve(_GF2, _hash_bit_matrix(family, encoded), targets)
    if sol is None:
        return None
    key = key_from_int(family, sum(int(v) << bit for bit, v in enumerate(sol.tolist())))
    hashed = hash_values(family, [key], encoded)[0]
    if not np.array_equal(hashed == (1 << family.out_bits) - 1, bias == 1):
        raise AssertionError("solved key fails the bias constraint")
    return key
