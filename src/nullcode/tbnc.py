"""The total problem layer: t oracle copies sharing one hash key.

A solution is a key plus one codeword per copy such that, on every copy,
the copy's bias oracle XOR the keyed hash vanishes on the codeword.  The
bias bits are produced by AND-collapsing each side separately and only
then XORing; collapsing the XOR of the AND-blocks would give a
different (wrong) oracle.

`run_keyed_smp` simulates the referee protocol at toy scale: draw a key,
filter each coordinate's state by measuring the hash-shifted register
(with retries), then run the one-copy processing stage per copy and
verify the sampled outputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import codes as codes_mod
from . import hashing as hashing_mod
from . import instances as inst_mod
from . import qsim
from .budget import DEFAULT_ENUM_BUDGET
from .codes import CodeSpec, DecoderParams
from .errors import (
    BudgetExceeded,
    EmptySupport,
    LengthMismatch,
    RetriesExhausted,
)
from .gf import exact
from .hashing import HashFamily, HashKey
from .instances import OracleInstance

DEFAULT_RETRY_CAP = 64


@dataclass(frozen=True)
class TbncInstance:
    """t oracle copies over one code, sharing one hash family."""

    t: int
    spec: CodeSpec
    family: HashFamily
    copies: tuple[OracleInstance, ...]

    def __post_init__(self):
        if self.t < 1:
            raise ValueError(f"t = {self.t}: need at least one copy")
        if (self.family.n, self.family.sigma_size) != (self.spec.n, self.spec.sigma_size):
            raise ValueError(
                f"family domain {self.family.sigma_size} x {self.family.n} does not match "
                f"the code's {self.spec.sigma_size} x {self.spec.n}"
            )
        if len(self.copies) != self.t:
            raise LengthMismatch("copy count mismatch")
        for c in self.copies:
            if c.spec != self.spec:
                raise ValueError("all copies must share the code spec")


def make_tbnc(
    spec: CodeSpec,
    family: HashFamily,
    t: int,
    seed: int,
    b: int = 6,
) -> TbncInstance:
    """Sample t copies, each bit the AND of b uniform bits (bias 2**-b)."""
    copies = tuple(
        inst_mod.sample_unfolded_instance(spec, b, seed * 1000003 + i)
        for i in range(t)
    )
    return TbncInstance(t=t, spec=spec, family=family, copies=copies)


def xored_bias_tables(
    copy: OracleInstance, family: HashFamily, key: HashKey
) -> np.ndarray:
    """bias H (AND-collapsed) XOR bias h_k, per (coordinate, symbol)."""
    return copy.tables ^ hashing_mod.hash_bias_tables(family, [key])[0]


def tbnc_verify(tb: TbncInstance, key: HashKey, solutions) -> bool:
    """instances.verify of every copy's codeword against that copy's
    XORed bias tables; a malformed word is simply invalid."""
    solutions = list(solutions)
    if len(solutions) != tb.t:
        raise LengthMismatch(f"need {tb.t} solutions, got {len(solutions)}")
    return all(
        inst_mod.verify(inst_mod.with_tables(copy, xored_bias_tables(copy, tb.family, key)), word)
        for copy, word in zip(tb.copies, solutions)
    )


def run_keyed_smp(
    tb: TbncInstance,
    params: DecoderParams,
    seed: int,
) -> dict:
    """Referee protocol for the total problem at toy scale.

    Draws a key, simulates the per-coordinate filtering measurements with
    retries, runs the one-copy pipeline per copy, and samples one output
    per copy.  Success means the verifier accepts the
    sampled (key, solutions).  A coordinate whose filtering fails
    DEFAULT_RETRY_CAP times in a row raises RetriesExhausted.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xA162]))
    key = hashing_mod.random_key(tb.family, rng)
    solutions = []
    diagnostics = []
    retries_total = 0
    for copy in tb.copies:
        g = xored_bias_tables(copy, tb.family, key)
        for i in range(tb.spec.n):
            support = int((g[i] == 0).sum())
            if support == 0:
                raise EmptySupport(f"coordinate {i + 1} has no zero cell")
            pr = support / tb.spec.sigma_size
            for retries in range(DEFAULT_RETRY_CAP):
                if rng.random() < pr:
                    break
            else:
                raise RetriesExhausted(
                    f"coordinate {i + 1}: {DEFAULT_RETRY_CAP} filtering attempts failed"
                )
            retries_total += retries
        shifted = inst_mod.with_tables(copy, g)
        report = qsim.run_smp_protocol(tb.spec, shifted, params)
        z = qsim.sample_measurement(report, rng)
        solutions.append(qsim.flat_to_word(tb.spec, z))
        diagnostics.append(
            {
                "epsilon": report["epsilon"],
                "delta": report["delta"],
                "l2_distance": report["l2_distance"],
                "success_probability": report["success_probability"],
            }
        )
    success = tbnc_verify(tb, key, solutions)
    return {
        "key": key,
        "solutions": solutions,
        "success": success,
        "retries": retries_total,
        "per_copy": diagnostics,
    }


# -- totality ---------------------------------------------------------------------


def solution_set_empty(spec: CodeSpec, tables: np.ndarray) -> bool:
    ranks = codes_mod.codeword_rank_matrix(spec)
    return not inst_mod.solution_mask(tables, ranks).any()


def exact_emptiness_probability(
    spec: CodeSpec,
    family: HashFamily,
    key: HashKey,
    b: int,
) -> Fraction:
    """P over a fresh 2**-b-biased oracle that no codeword solves the
    XORed instance, exactly, by enumerating the c cells codewords read.

    A cell reads 0 with probability 1 - 2^-b where the hash bit is 0 and
    2^-b where it is 1, so the likelier value of a cell is its hash bit,
    and an assignment (bit j set: cell j reads 1) that differs from the
    likelier values on k cells weighs (2^b - 1)^(c - k) / 2^(bc).  An
    assignment has no solution when it meets every codeword's cell mask.
    """
    ranks = codes_mod.codeword_rank_matrix(spec)
    flat = ranks + np.arange(spec.n) * spec.sigma_size  # cell i |Sigma| + rank
    cells = np.unique(flat)
    c = cells.size
    if 1 << c > DEFAULT_ENUM_BUDGET:
        raise BudgetExceeded(f"2^{c} touched-cell assignments exceed budget {DEFAULT_ENUM_BUDGET}")
    assignments = np.arange(1 << c)
    empty = np.ones(1 << c, dtype=bool)
    # a codeword's n cells are distinct, so its mask is the sum of their bits
    for mask in (1 << np.searchsorted(cells, flat)).sum(axis=1).tolist():
        empty &= (assignments & mask) != 0
    flips = np.zeros(1, dtype=np.int64)  # flips[a] = k, built one cell at a time
    for h in hashing_mod.hash_bias_tables(family, [key])[0].ravel()[cells].tolist():
        flips = np.concatenate([flips + h, flips + 1 - h])
    den = 1 << b
    counts = np.bincount(flips[empty], minlength=c + 1)
    return Fraction(sum(int(n) * (den - 1) ** (c - k) for k, n in enumerate(counts)), den**c)


def totality_scan(
    spec: CodeSpec,
    family: HashFamily,
    t: int,
    h_samples: int,
    key_budget: int,
    seed: int,
) -> dict:
    """Sample oracles, scan keys, and report how often every copy's
    solution set is nonempty.

    Returns the fraction of sampled oracles admitting at least one good
    key among the scanned ones and the per-key emptiness rate of the
    zero key (compared against its exact closed form elsewhere).  The
    scanned keys' hash tables are computed once; raises BudgetExceeded
    when they hold more than DEFAULT_TABLE_BUDGET bits.
    """
    if h_samples < 1 or key_budget < 1:
        raise ValueError("totality scan needs at least one oracle sample and one key")
    key_budget = min(key_budget, family.key_count)
    inst_mod.check_table_bits(spec, blocks=key_budget)
    keys = [hashing_mod.key_from_int(family, kv) for kv in range(key_budget)]
    hash_bias = hashing_mod.hash_bias_tables(family, keys)
    ranks = codes_mod.codeword_rank_matrix(spec)
    good_key_hits = 0
    per_key_nonempty = np.zeros(len(keys), dtype=np.int64)
    for s in range(h_samples):
        tb = make_tbnc(spec, family, t, seed * 999983 + s)
        nonempty = np.ones(len(keys), dtype=bool)
        for copy in tb.copies:
            nonempty &= inst_mod.solution_mask(copy.tables ^ hash_bias, ranks).any(axis=1)
        per_key_nonempty += nonempty
        good_key_hits += bool(nonempty.any())
    # keys[0] is the zero key
    return {
        "h_samples": h_samples,
        "keys_scanned": len(keys),
        "good_key_fraction": good_key_hits / h_samples,
        "zero_key_empty_rate": (h_samples - int(per_key_nonempty[0])) / h_samples,
        "per_key_nonempty_rate": (per_key_nonempty / h_samples).tolist(),
    }


def union_bound_calculator(t: int, r: int, suc_single) -> Fraction:
    """Accounting of the key-union bound, exactly: 2^r * suc_single^t.

    The single-copy success probability at the given communication budget
    is supplied by the caller and read by `gf.exact` (0.3 is 3/10).
    """
    suc = exact(suc_single)
    if t < 0 or r < 0 or suc < 0:
        raise ValueError("inputs must be nonnegative")
    return 2**r * suc**t
