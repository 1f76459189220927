"""The total problem layer: t oracle copies sharing one hash key.

A solution is a key plus one codeword per copy such that, on every copy,
the copy's bias oracle XOR the keyed hash vanishes on the codeword.  The
bias bits are produced by AND-collapsing each side separately and only
then XORing; collapsing the XOR of the unfolded tables would give a
different (wrong) oracle.

`run_keyed_smp` simulates the referee protocol at toy scale: draw a key,
filter each coordinate's state by measuring the hash-shifted register
(with retries), then run the one-copy processing stage per copy and
verify the sampled outputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import codes as codes_mod
from . import hashing as hashing_mod
from . import instances as inst_mod
from . import qsim
from .codes import CodeSpec, DecoderParams
from .errors import (
    BudgetExceeded,
    EmptySupport,
    LengthMismatch,
    RetriesExhausted,
)
from .hashing import HashFamily, HashKey
from .instances import OracleInstance

DEFAULT_RETRY_CAP = 64


@dataclass(frozen=True)
class TbncInstance:
    """t unfolded oracle copies over one code, sharing one hash family."""

    t: int
    spec: CodeSpec
    family: HashFamily
    copies: tuple[OracleInstance, ...]

    def __post_init__(self):
        if self.t < 1:
            raise ValueError(f"t = {self.t}: need at least one copy")
        if len(self.copies) != self.t:
            raise LengthMismatch("copy count mismatch")
        for c in self.copies:
            if c.spec != self.spec:
                raise ValueError("all copies must share the code spec")
            if c.unfolded is None:
                raise ValueError("copies must carry unfolded tables")


def make_tbnc(
    spec: CodeSpec,
    family: HashFamily,
    t: int,
    seed: int,
    b: int = 6,
) -> TbncInstance:
    """Sample t copies with uniform unfolded tables (bias 2**-b each)."""
    copies = tuple(
        inst_mod.sample_unfolded_instance(spec, b, seed * 1000003 + i)
        for i in range(t)
    )
    return TbncInstance(t=t, spec=spec, family=family, copies=copies)


def xored_bias_tables(
    copy: OracleInstance, family: HashFamily, key: HashKey
) -> np.ndarray:
    """bias H (AND-collapsed) XOR bias h_k, per (coordinate, symbol)."""
    hash_bias = hashing_mod.hash_bias_tables(family, key)
    return (copy.tables ^ hash_bias).astype(np.uint8)


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
            attempt = 0
            while True:
                if attempt >= DEFAULT_RETRY_CAP:
                    raise RetriesExhausted(
                        f"coordinate {i + 1}: {DEFAULT_RETRY_CAP} filtering attempts failed"
                    )
                attempt += 1
                if rng.random() < pr:
                    break
            retries_total += attempt - 1
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
) -> float:
    """P over a fresh 2**-b-biased oracle that no codeword solves the
    XORed instance, by exact weighted enumeration of the touched cells.

    This is the brute-force closed form: only table cells actually read by
    some codeword matter, and the weight of each assignment is a product
    of per-cell Bernoulli masses.
    """
    ranks = codes_mod.codeword_rank_matrix(spec)
    cells = sorted({(i, int(r)) for row in ranks for i, r in enumerate(row)})
    if len(cells) > 22:
        raise BudgetExceeded(f"{len(cells)} touched cells is too many to enumerate")
    cell_index = {c: j for j, c in enumerate(cells)}
    hash_bias = hashing_mod.hash_bias_tables(family, key)
    p = Fraction(1, 1 << b)
    prob_zero = []  # per cell: P[bias H ^ bias h = 0]
    for (i, r) in cells:
        prob_zero.append(1 - p if hash_bias[i, r] == 0 else p)
    total = Fraction(0)
    word_cells = [
        [cell_index[(i, int(r))] for i, r in enumerate(row)] for row in ranks
    ]
    for assignment in range(1 << len(cells)):
        weight = Fraction(1)
        for j, pz in enumerate(prob_zero):
            weight *= pz if not (assignment >> j) & 1 else 1 - pz
        if weight == 0:
            continue
        has_solution = any(
            all(not (assignment >> j) & 1 for j in wc) for wc in word_cells
        )
        if not has_solution:
            total += weight
    return float(total)


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
    zero key (compared against its exact closed form elsewhere).
    """
    if h_samples < 1 or key_budget < 1:
        raise ValueError("totality scan needs at least one oracle sample and one key")
    key_budget = min(key_budget, family.key_count)
    keys = [hashing_mod.key_from_int(family, kv) for kv in range(key_budget)]
    rng_seeds = [seed * 999983 + s for s in range(h_samples)]
    good_key_hits = 0
    zero_key_empty = 0
    per_key_nonempty = np.zeros(len(keys), dtype=np.int64)
    for hs in rng_seeds:
        tb = make_tbnc(spec, family, t, hs)
        nonempty = [
            not any(
                solution_set_empty(spec, xored_bias_tables(copy, family, key))
                for copy in tb.copies
            )
            for key in keys
        ]
        per_key_nonempty += nonempty
        good_key_hits += any(nonempty)
        zero_key_empty += not nonempty[0]  # keys[0] is the zero key
    return {
        "h_samples": h_samples,
        "keys_scanned": len(keys),
        "good_key_fraction": good_key_hits / h_samples,
        "zero_key_empty_rate": zero_key_empty / h_samples,
        "per_key_nonempty_rate": (per_key_nonempty / h_samples).tolist(),
    }


def union_bound_calculator(t: int, r: int, suc_single: float) -> float:
    """Accounting of the key-union bound: 2^r * suc_single^t.

    The single-copy success probability at the given communication budget
    is supplied by the caller.
    """
    if t < 0 or r < 0 or suc_single < 0:
        raise ValueError("inputs must be nonnegative")
    if suc_single == 0.0:
        return 2.0**r if t == 0 else 0.0
    try:
        return (2.0**r) * (suc_single**t)
    except OverflowError:
        log2val = r + t * math.log2(suc_single)
        if log2val < -1074:
            return 0.0
        return math.inf if log2val >= 1024 else 2.0**log2val