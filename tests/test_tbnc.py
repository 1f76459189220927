import math
from fractions import Fraction

import numpy as np
import pytest

from nullcode import codes, configs, hashing, instances, tbnc
from nullcode.codes import DecoderParams
from nullcode.errors import LengthMismatch, RetriesExhausted


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
        unfolded=np.zeros_like(c.unfolded),
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
    return all(not g[i, spec.symbol_rank(s)] for i, s in enumerate(word))


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
    hash_bias = hashing.hash_bias_tables(fam, key)
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


def test_union_bound_calculator():
    assert tbnc.union_bound_calculator(0, 10, 0.5) == 2.0**10
    assert tbnc.union_bound_calculator(100, 10, 1.0) == 2.0**10
    assert tbnc.union_bound_calculator(100, 10, 0.5) == 2.0**-90
    with pytest.raises(ValueError):
        tbnc.union_bound_calculator(-1, 10, 0.5)
