import dataclasses
import functools
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from nullcode import codes, configs, hashing, instances, tbnc
from nullcode.budget import DEFAULT_TABLE_BUDGET
from nullcode.codes import DecoderParams
from nullcode.errors import BudgetExceeded, LengthMismatch, RetriesExhausted
from test_codes import symbol_rank_loop
from test_qsim import child_peak


def codewords(spec) -> list:
    return [codes.fold(spec, r) for r in codes.codeword_matrix(spec)]


def rep_setup(t=1, seed=0):
    spec = configs.toy_repetition_spec(n=2, s=2)
    fam = configs.toy_family(spec)
    return spec, fam, tbnc.make_tbnc(spec, fam, t, seed)


def zero_copy(spec, seed=0, b=6):
    c = instances.sample_unfolded_instance(spec, b, seed)
    return instances.OracleInstance(
        spec=spec,
        p=c.p,
        seed=seed,
        tables=np.zeros_like(c.tables),
    )


def test_verify_zero_everything():
    spec, fam, _ = rep_setup()
    tb = tbnc.TbncInstance(
        t=2, spec=spec, family=fam, copies=(zero_copy(spec, 0), zero_copy(spec, 1))
    )
    key = hashing.zero_key(fam)
    words = codewords(spec)[:2]
    assert tbnc.tbnc_verify(tb, key, [words[1], words[1]])
    assert tbnc.tbnc_verify(tb, key, [words[0], words[1]])


def test_verify_rejects_malformed_words():
    spec, fam, _ = rep_setup()
    tb = tbnc.TbncInstance(
        t=2, spec=spec, family=fam, copies=(zero_copy(spec, 0), zero_copy(spec, 1))
    )
    key = hashing.zero_key(fam)
    good = ((1,), (1,))
    assert tbnc.tbnc_verify(tb, key, [good, good])
    for word in (((1,),), ((1,), (1,), (1,)), ((1,), (4,))):
        assert not tbnc.tbnc_verify(tb, key, [good, word])
        assert not tbnc.tbnc_verify(tb, key, [word, good])


def test_verify_one_wrong_copy():
    spec, fam, tb = rep_setup(t=2, seed=3)
    key = hashing.zero_key(fam)
    g0 = tbnc.xored_bias_tables(tb.copies[0], fam, key)
    g1 = tbnc.xored_bias_tables(tb.copies[1], fam, key)
    sols0 = [w for w in codewords(spec) if _solves(spec, g0, w)]
    sols1 = [w for w in codewords(spec) if _solves(spec, g1, w)]
    if sols0 and sols1:
        assert tbnc.tbnc_verify(tb, key, [sols0[0], sols1[0]])
        bad = [w for w in codewords(spec) if w not in sols1]
        if bad:
            assert not tbnc.tbnc_verify(tb, key, [sols0[0], bad[0]])


def _solves(spec, g, word):
    return all(not g[i, symbol_rank_loop(spec, s)] for i, s in enumerate(word))


@pytest.mark.parametrize("field, value", [("n", 1), ("n", 3), ("sigma_size", 2)])
def test_instance_rejects_a_family_that_does_not_match_the_code(field, value):
    # a family over a smaller domain would broadcast its hash tables over
    # the code's coordinates or symbols
    spec, fam, tb = rep_setup()
    bad = dataclasses.replace(fam, **{field: value})
    with pytest.raises(ValueError, match="does not match the code's 4 x 2"):
        tbnc.TbncInstance(t=1, spec=spec, family=bad, copies=tb.copies)


def test_verify_length_check():
    spec, fam, tb = rep_setup(t=2)
    with pytest.raises(LengthMismatch):
        tbnc.tbnc_verify(tb, hashing.zero_key(fam), [((0,), (0,))])


def test_xor_layer_convention():
    # collapsing each side separately then XORing differs from collapsing
    # the XOR of the unfolded blocks; the oracle layer uses the former.
    b = 6
    full = (1 << b) - 1
    found = False
    for a_bits in (full, full - 1, 0, 0b101010):
        for h_bits in (full, 0b011111, 0, full - 2):
            and_a = int(a_bits == full)
            and_h = int(h_bits == full)
            sep = and_a ^ and_h
            joint = int((a_bits ^ h_bits) == full)
            if sep != joint:
                found = True
    assert found  # the two conventions genuinely differ on 6-bit blocks

    spec, fam, tb = rep_setup(seed=9)
    rng = np.random.default_rng(0)
    key = hashing.random_key(fam, rng)
    g = tbnc.xored_bias_tables(tb.copies[0], fam, key)
    hash_bias = hashing.hash_bias_tables(fam, [key])[0]
    assert np.array_equal(g, tb.copies[0].tables ^ hash_bias)


def test_keyed_smp_all_zero_forced_zero_key(monkeypatch):
    spec = configs.toy_selfdual_spec()
    fam = configs.toy_family(spec)
    params = DecoderParams.for_spec(spec, Fraction(1, 64))
    tb = tbnc.TbncInstance(
        t=2, spec=spec, family=fam, copies=(zero_copy(spec, 0), zero_copy(spec, 1))
    )
    monkeypatch.setattr(hashing, "random_key", lambda family, rng: hashing.zero_key(family))
    out = tbnc.run_keyed_smp(tb, params, seed=4)
    assert out["success"]
    assert out["retries"] == 0
    for diag in out["per_copy"]:
        assert abs(diag["success_probability"] - 1) <= 1e-9


def test_keyed_smp_success_passes_verifier():
    spec = configs.toy_selfdual_spec()
    fam = configs.toy_family(spec)
    params = DecoderParams.for_spec(spec, Fraction(1, 64))
    for seed in range(6):
        tb = tbnc.make_tbnc(spec, fam, 2, 500 + seed)
        out = tbnc.run_keyed_smp(tb, params, seed=seed)
        if out["success"]:
            assert tbnc.tbnc_verify(tb, out["key"], out["solutions"])


def test_keyed_smp_deterministic_under_seed():
    spec = configs.toy_selfdual_spec()
    fam = configs.toy_family(spec)
    params = DecoderParams.for_spec(spec, Fraction(1, 64))
    tb = tbnc.make_tbnc(spec, fam, 2, 77)
    a = tbnc.run_keyed_smp(tb, params, seed=123)
    b = tbnc.run_keyed_smp(tb, params, seed=123)
    assert a["key"] == b["key"]
    assert a["solutions"] == b["solutions"]
    assert a["success"] == b["success"]
    assert a["retries"] == b["retries"]


def test_keyed_smp_retry_cap_zero(monkeypatch):
    spec = configs.toy_selfdual_spec()
    fam = configs.toy_family(spec)
    params = DecoderParams.for_spec(spec, Fraction(1, 64))
    tb = tbnc.make_tbnc(spec, fam, 1, 42)
    monkeypatch.setattr(tbnc, "DEFAULT_RETRY_CAP", 0)
    with pytest.raises(RetriesExhausted):
        tbnc.run_keyed_smp(tb, params, seed=0)


# -- exact emptiness ------------------------------------------------------------


def _touched_cells(spec) -> list:
    ranks = codes.codeword_rank_matrix(spec)
    return sorted({(i, int(r)) for row in ranks for i, r in enumerate(row)})


@functools.cache
def _empty_assignments(spec) -> list:
    """Every assignment of the touched cells (bit j set: cell j reads 1)
    under which no codeword reads 0 on all of its cells."""
    cells = _touched_cells(spec)
    index = {c: j for j, c in enumerate(cells)}
    word_cells = [
        [index[(i, int(r))] for i, r in enumerate(row)] for row in codes.codeword_rank_matrix(spec)
    ]
    return [
        a
        for a in range(1 << len(cells))
        if not any(all(not (a >> j) & 1 for j in wc) for wc in word_cells)
    ]


def emptiness_oracle(spec, fam, key, b) -> Fraction:
    """The 2^cells enumeration: the total weight of the empty assignments,
    each weighing the product of its per-cell Bernoulli masses.  Masses
    are kept as integers over the common denominator 2^b, and the weights
    of all assignments are built one cell at a time."""
    cells = _touched_cells(spec)
    hash_bias = hashing.hash_bias_tables(fam, [key])[0]
    den = 1 << b
    p = Fraction(1, den)
    weights = [1]
    for i, r in cells:
        prob_zero = 1 - p if hash_bias[i, r] == 0 else p  # P[bias H ^ bias h = 0]
        zero, one = int(prob_zero * den), int((1 - prob_zero) * den)
        weights = [w * zero for w in weights] + [w * one for w in weights]
    return Fraction(sum(weights[a] for a in _empty_assignments(spec)), den ** len(cells))


EMPTINESS_SPECS = {
    "rep(2,2)": lambda: configs.toy_repetition_spec(n=2, s=2),
    "rep(3,1)": lambda: configs.toy_repetition_spec(n=3, s=1),
    "rep(2,1)": lambda: configs.toy_repetition_spec(n=2, s=1),
    "selfdual": configs.toy_selfdual_spec,
}


@pytest.mark.parametrize("b", [1, 2, 3, 6])
@pytest.mark.parametrize("name", list(EMPTINESS_SPECS))
def test_exact_emptiness_equals_the_enumeration(name, b):
    spec = EMPTINESS_SPECS[name]()
    fam = configs.toy_family(spec)
    rng = np.random.default_rng(0)  # the same five keys at every b
    keys = [hashing.zero_key(fam)] + [hashing.random_key(fam, rng) for _ in range(4)]
    for key in keys:
        exact = tbnc.exact_emptiness_probability(spec, fam, key, b)
        assert type(exact) is Fraction
        assert exact == emptiness_oracle(spec, fam, key, b)


def test_exact_emptiness_on_the_selfdual_code_is_fast():
    spec = configs.toy_selfdual_spec()
    fam = configs.toy_family(spec)
    start = time.perf_counter()
    exact = tbnc.exact_emptiness_probability(spec, fam, hashing.zero_key(fam), 6)
    assert time.perf_counter() - start < 0.1
    assert 0 < exact < 1


def test_exact_emptiness_checks_the_enumeration_budget():
    # rep(4, 2) touches 16 cells, 2^16 assignments; rep(5, 2) touches 20
    at_budget = configs.toy_repetition_spec(n=4, s=2)
    fam = configs.toy_family(at_budget)
    assert 0 < tbnc.exact_emptiness_probability(at_budget, fam, hashing.zero_key(fam), 2) < 1
    over = configs.toy_repetition_spec(n=5, s=2)
    fam = configs.toy_family(over)
    with pytest.raises(BudgetExceeded, match="2\\^20 touched-cell assignments exceed budget 65536"):
        tbnc.exact_emptiness_probability(over, fam, hashing.zero_key(fam), 2)


def test_totality_zero_key_exact_vs_empirical():
    spec, fam, _ = rep_setup()
    b = 2  # bias 1/4 makes emptiness non-negligible
    exact = tbnc.exact_emptiness_probability(spec, fam, hashing.zero_key(fam), b)
    # closed form for the repetition code: cells are disjoint per codeword
    manual = 1.0
    for _ in range(spec.size):
        manual *= 1 - (1 - 1 / 4) ** spec.n
    assert abs(exact - manual) <= 1e-12
    n_samples = 300
    empty = 0
    for seed in range(n_samples):
        tb = tbnc.make_tbnc(spec, fam, 1, seed, b=b)
        g = tbnc.xored_bias_tables(tb.copies[0], fam, hashing.zero_key(fam))
        empty += tbnc.solution_set_empty(spec, g)
    se = math.sqrt(exact * (1 - exact) / n_samples)
    assert abs(empty / n_samples - exact) <= 3 * se + 1e-9


def test_totality_scan_reports():
    spec, fam, _ = rep_setup()
    out = tbnc.totality_scan(spec, fam, 1, 40, 8, seed=5)
    assert out["keys_scanned"] == 8
    assert 0 <= out["zero_key_empty_rate"] <= 1
    assert len(out["per_key_nonempty_rate"]) == 8
    assert out["per_key_nonempty_rate"][0] == 1 - out["zero_key_empty_rate"]


def totality_oracle(spec, fam, t, h_samples, key_budget, seed) -> list:
    """Per sample, per key: every copy's solution set is nonempty, by
    solution_set_empty over each key's xored_bias_tables."""
    keys = [hashing.key_from_int(fam, kv) for kv in range(min(key_budget, fam.key_count))]
    return [
        [
            not any(
                tbnc.solution_set_empty(spec, tbnc.xored_bias_tables(copy, fam, key))
                for copy in tbnc.make_tbnc(spec, fam, t, seed * 999983 + s).copies
            )
            for key in keys
        ]
        for s in range(h_samples)
    ]


@pytest.mark.parametrize("t", [1, 2])
@pytest.mark.parametrize("seed", [0, 5, 17])
def test_totality_scan_equals_the_per_key_oracle(t, seed):
    spec, fam, _ = rep_setup()
    samples, budget = 12, 32
    nonempty = np.array(totality_oracle(spec, fam, t, samples, budget, seed))
    out = tbnc.totality_scan(spec, fam, t, samples, budget, seed)
    assert out["keys_scanned"] == budget
    assert out["per_key_nonempty_rate"] == (nonempty.sum(axis=0) / samples).tolist()
    assert out["good_key_fraction"] == nonempty.any(axis=1).sum() / samples
    assert out["zero_key_empty_rate"] == (~nonempty[:, 0]).sum() / samples


def test_totality_scan_checks_the_table_budget_before_it_allocates():
    spec, fam, _ = rep_setup()
    # 2^24 keys x 2 x 4 cells = 2^27 > 2^26
    start = time.perf_counter()
    with pytest.raises(BudgetExceeded, match="134217728 table bits"):
        tbnc.totality_scan(spec, fam, 1, 1, fam.key_count, seed=0)
    assert time.perf_counter() - start < 1


# keys x n x |Sigma| = 2^16 x 4 x 64 = 2^24 hash-table cells, a quarter of
# the table budget
TOTALITY_2_24_RUN = """
from nullcode import configs, tbnc

spec = configs.toy_repetition_spec(n=4, s=6)
out = tbnc.totality_scan(spec, configs.toy_family(spec, lam=4), 1, 2, 1 << 16, 0)
assert out["keys_scanned"] == 1 << 16
"""


def test_totality_at_2_24_cells_runs_in_a_child_under_200_mb():
    peak_mb, elapsed = child_peak(TOTALITY_2_24_RUN)
    assert peak_mb < 200, f"peak RSS {peak_mb:.0f} MB"
    assert elapsed < 20, f"{elapsed:.1f} s"


# keys x n x |Sigma| = 2^16 x 4 x 256 = 2^26 hash-table cells, the whole
# table budget
TOTALITY_2_26_RUN = """
from nullcode import configs, tbnc

spec = configs.toy_repetition_spec(n=4, s=8)
out = tbnc.totality_scan(spec, configs.toy_family(spec, lam=4), 1, 2, 1 << 16, 0)
assert out["keys_scanned"] == 1 << 16
"""


def test_totality_at_the_table_budget_runs_in_a_child_under_300_mb():
    spec = configs.toy_repetition_spec(n=4, s=8)
    assert (1 << 16) * spec.n * spec.sigma_size == DEFAULT_TABLE_BUDGET
    peak_mb, elapsed = child_peak(TOTALITY_2_26_RUN)
    assert peak_mb < 300, f"peak RSS {peak_mb:.0f} MB"
    assert elapsed < 20, f"{elapsed:.1f} s"


def test_union_bound_calculator():
    assert tbnc.union_bound_calculator(0, 10, 0.5) == 2.0**10
    assert tbnc.union_bound_calculator(100, 10, 1.0) == 2.0**10
    assert tbnc.union_bound_calculator(100, 10, 0.5) == 2.0**-90
    # below the smallest float, and still exact
    assert tbnc.union_bound_calculator(2000, 10, 0.5) == Fraction(1, 2**1990)
    assert tbnc.union_bound_calculator(3, 0, "1/3") == Fraction(1, 27)
    # a float is read as the decimal its repr prints
    assert tbnc.union_bound_calculator(2, 1, 0.1) == Fraction(2, 100)
    with pytest.raises(ValueError):
        tbnc.union_bound_calculator(-1, 10, 0.5)
