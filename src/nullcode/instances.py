"""Biased-oracle instances, the null-codeword relation, and its verifier.

An instance carries n bit-tables H_1..H_n, one per code coordinate; table
i maps every symbol of Sigma to a bit that is 1 with probability p.  A
solution is a codeword x with H_i(x_i) = 0 for all i; `verify` checks a
candidate with table lookups plus the code's parity checks, and
`brute_solve` enumerates the exact solution set for small codes.

When p = 2**-b, `sample_unfolded_instance` draws each bit as the AND of
b uniform bits, as the total problem layer samples its copies; the
instance keeps only the ANDed tables.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from . import codes, linalg
from .budget import DEFAULT_TABLE_BUDGET
from .codes import CodeSpec, Codeword
from .errors import (
    BudgetExceeded,
    DomainMismatch,
    LengthMismatch,
    ParseError,
    SplitRequiresEvenN,
)
from .gf import exact
from .parallel import parallel_map

FORMAT_VERSION = 1


@dataclass(frozen=True)
class OracleInstance:
    """n oracle tables over Sigma.

    tables: uint8 array of shape (n, |Sigma|), entry (i, e) = H_i(e).
    """

    spec: CodeSpec
    p: Fraction
    seed: int
    tables: np.ndarray

    def __post_init__(self):
        n, sigma = self.tables.shape
        if n != self.spec.n or sigma != self.spec.sigma_size:
            raise LengthMismatch("table shape does not match the code")
        self.tables.setflags(write=False)

    @property
    def n(self) -> int:
        return self.spec.n

    @property
    def sigma_size(self) -> int:
        return self.spec.sigma_size


def check_table_bits(spec: CodeSpec, blocks: int = 1):
    """Raise BudgetExceeded when `blocks` (n x |Sigma|) tables over spec
    hold more than DEFAULT_TABLE_BUDGET bits."""
    bits = spec.n * spec.sigma_size * blocks
    if bits > DEFAULT_TABLE_BUDGET:
        raise BudgetExceeded(f"{bits} table bits exceed budget {DEFAULT_TABLE_BUDGET}")


def sample_instance(spec: CodeSpec, p, seed: int) -> OracleInstance:
    """Sample each table bit independently with P[bit = 1] = p.

    p is read by `gf.exact`, so 0.1 draws what Fraction(1, 10) and the
    CLI's --p 0.1 draw.  The draw uses integer comparison against the exact
    rational bias, so
    identical (spec, p, seed) give bit-identical instances on any platform.
    """
    p = exact(p)
    if not 0 <= p <= 1:
        raise ValueError("bias must lie in [0, 1]")
    check_table_bits(spec)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x0B1A5]))
    draws = rng.integers(0, p.denominator, size=(spec.n, spec.sigma_size))
    tables = (draws < p.numerator).astype(np.uint8)
    return OracleInstance(spec=spec, p=p, seed=seed, tables=tables)


def sample_unfolded_instance(spec: CodeSpec, b: int, seed: int) -> OracleInstance:
    """Sample each table bit as the AND of b uniform bits, so p = 2**-b;
    all n |Sigma| b drawn bits count against the table budget."""
    check_table_bits(spec, blocks=b)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x0B1A6]))
    blocks = rng.integers(0, 2, size=(spec.n, spec.sigma_size, b)).astype(np.uint8)
    return OracleInstance(spec=spec, p=Fraction(1, 1 << b), seed=seed, tables=blocks.min(axis=2))


def verify(inst: OracleInstance, x: Codeword) -> bool:
    """Membership in the code plus H_i(x_i) = 0 for every coordinate.

    Runs in poly(n, log |Sigma|) table lookups on top of the parity-check
    test; malformed words are simply invalid.
    """
    spec = inst.spec
    try:
        word = codes.unfold(spec, x)
    except (LengthMismatch, DomainMismatch):
        return False
    ranks = codes.from_digits(word.reshape(inst.n, spec.m), spec.field.q)
    if inst.tables[np.arange(inst.n), ranks].any():
        return False
    return bool(_in_code(spec, word[None])[0])


def verify_flat(inst: OracleInstance, flat) -> np.ndarray:
    """`verify` on a 1-D array of flat ranks at once: a rank outside
    [0, |Sigma|^n) is invalid; otherwise every table must read 0 at its
    symbol and the unfolded word must be a codeword."""
    spec = inst.spec
    flat = np.asarray(flat, dtype=np.int64)
    ranks = codes.to_digits(flat, spec.sigma_size, spec.n)
    accepted = (inst.tables[np.arange(spec.n), ranks] == 0).all(axis=1)
    in_code = _in_code(spec, codes.to_digits(flat, spec.field.q, spec.N))
    return accepted & in_code & (flat >= 0) & (flat < spec.sigma_size**spec.n)


def _in_code(spec: CodeSpec, words: np.ndarray) -> np.ndarray:
    """Per row of unfolded words: every parity check of the code (a
    generator row of its dual) vanishes on it.  A code of dimension N has
    no parity checks and holds every word."""
    if spec.dim == spec.N:
        return np.ones(len(words), dtype=bool)
    checks = codes.dual(spec).generator_matrix()
    return ~linalg.matmul(spec.field, words, checks.T).any(axis=1)


def solution_mask(tables: np.ndarray, ranks: np.ndarray) -> np.ndarray:
    """ok[..., j]: every table reads 0 at codeword j, for tables of shape
    (..., n, |Sigma|) and ranks holding (a row slice of)
    codes.codeword_rank_matrix, whose columns are contiguous."""
    ok = np.ones(tables.shape[:-2] + ranks.shape[:1], dtype=bool)
    for i in range(ranks.shape[1]):
        ok &= tables[..., i, :].take(ranks[:, i], axis=-1) == 0
    return ok


def brute_solve(inst: OracleInstance, jobs: int = 1) -> np.ndarray:
    """Exact solution set as an (S, N) int64 array, in message-rank order.

    Its rows are the rows of codes.codeword_matrix(inst.spec) that every
    table accepts (codes.fold turns one into a word).  The message space
    is scanned in chunks; the worker count never changes the output.
    """
    ranks = codes.codeword_rank_matrix(inst.spec)
    nrows = ranks.shape[0]

    def chunk_hits(bounds):
        lo, hi = bounds
        return lo + np.nonzero(solution_mask(inst.tables, ranks[lo:hi]))[0]

    step = max(1, nrows // max(jobs, 1))
    chunks = [(lo, min(lo + step, nrows)) for lo in range(0, nrows, step)]
    hits = np.concatenate(parallel_map(chunk_hits, chunks, jobs))
    return codes.codeword_matrix(inst.spec)[hits]


# -- bipartite split -----------------------------------------------------------


@dataclass(frozen=True)
class Split:
    """Alice holds tables 1..n/2, Bob the rest.  Each player's input is an
    int bitmask of n |Sigma| / 2 bits, of any width: bit j of a side is
    table entry (j // |Sigma|, j % |Sigma|) of that side's half, so Bob's
    bit j is entry (n/2 + j // |Sigma|, j % |Sigma|)."""

    n: int
    sigma_size: int

    def __post_init__(self):
        if self.n % 2:
            raise SplitRequiresEvenN(f"n = {self.n} is odd")

    @property
    def half(self) -> int:
        return self.n // 2

    @property
    def bits_per_side(self) -> int:
        return self.half * self.sigma_size

    def inputs(self, tables: np.ndarray) -> tuple[int, int]:
        """(x, y): the players' inputs for an (n, |Sigma|) table array."""
        halves = np.asarray(tables, dtype=np.uint8).reshape(2, self.bits_per_side)
        return tuple(
            int.from_bytes(np.packbits(bits, bitorder="little").tobytes(), "little")
            for bits in halves
        )

    def tables(self, x: int, y: int) -> np.ndarray:
        """Inverse of inputs: the (n, |Sigma|) uint8 tables of inputs x, y."""
        nbytes = (self.bits_per_side + 7) // 8
        raw = np.frombuffer(x.to_bytes(nbytes, "little") + y.to_bytes(nbytes, "little"), np.uint8)
        bits = np.unpackbits(raw, bitorder="little").reshape(2, -1)[:, : self.bits_per_side]
        return bits.reshape(self.n, self.sigma_size)


# -- file format -----------------------------------------------------------------


def _pack_hex(bits: np.ndarray) -> str:
    return np.packbits(bits.astype(np.uint8), bitorder="little").tobytes().hex()


def _unpack_hex_rows(rows, count: int, nbits: int, field: str) -> np.ndarray:
    """The (count, nbits) bits of a list of count hex rows of nbits bits each."""
    nbytes = (nbits + 7) // 8
    try:
        raw = [bytes.fromhex(row) for row in rows]
    except (TypeError, ValueError):
        raw = []
    if len(raw) != count or any(len(row) != nbytes for row in raw):
        raise ParseError("instance", field, f"need {count} rows of {2 * nbytes} hex digits")
    bits = np.frombuffer(b"".join(raw), np.uint8).reshape(count, nbytes)
    return np.unpackbits(bits, axis=1, bitorder="little")[:, :nbits]


def instance_to_json(inst: OracleInstance) -> dict:
    return {
        "format": FORMAT_VERSION,
        "code": inst.spec.to_json(),
        "p": f"{inst.p.numerator}/{inst.p.denominator}",
        "seed": inst.seed,
        "split": None if inst.n % 2 else {"n": inst.n, "sigma": inst.sigma_size},
        "tables": [_pack_hex(row) for row in inst.tables],
    }


def instance_from_json(data: dict) -> OracleInstance:
    """Inverse of instance_to_json.  Raises ParseError, naming the field,
    for a format other than the integer FORMAT_VERSION, a p other than
    "num/den" in [0, 1] with at most 4300 ASCII digits a side (what int()
    converts by default), a seed that is not an integer, and tables of the
    wrong count or hex length.  Other keys are ignored: the "split" header
    instance_to_json writes, and the AND-block "unfolded" object that
    older files carry."""
    version = data.get("format")
    if type(version) is not int or version != FORMAT_VERSION:
        raise ParseError("instance", "format", f"format must be {FORMAT_VERSION}, got {version!r}")
    spec = CodeSpec.from_json(data["code"])
    text = str(data["p"])
    num, _, den = text.partition("/")
    digits = num.isdecimal() and den.isdecimal() and max(len(num), len(den)) <= 4300
    if not (text.isascii() and digits and 0 < int(den) and int(num) <= int(den)):
        raise ParseError("instance", "p", f"p must be 'num/den' in [0, 1], got {data['p']!r}")
    seed = data["seed"]
    if type(seed) is not int:
        raise ParseError("instance", "seed", f"seed must be an integer, got {seed!r}")
    tables = _unpack_hex_rows(data["tables"], spec.n, spec.sigma_size, "tables")
    return OracleInstance(spec=spec, p=Fraction(int(num), int(den)), seed=seed, tables=tables)


def with_tables(inst: OracleInstance, tables: np.ndarray) -> OracleInstance:
    """Same spec and bookkeeping, different bias tables."""
    return replace(inst, tables=np.ascontiguousarray(tables, dtype=np.uint8))
