import itertools
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from nullcode import codes, configs, linalg
from nullcode.codes import CodeSpec, DecoderParams
from nullcode.errors import BudgetExceeded, LengthMismatch, ParseError
from nullcode.gf import FieldCtx


def codewords(spec: CodeSpec) -> list:
    return [codes.fold(spec, r) for r in codes.codeword_matrix(spec)]


def inner(ctx: FieldCtx, u, v) -> int:
    """Coordinate-wise inner product sum_i u_i v_i over the field."""
    return int(np.bitwise_xor.reduce(linalg.mul_arrays(ctx, u, v)))


def rs_f4(k: int) -> CodeSpec:
    return CodeSpec(
        kind="grs-folded", field=FieldCtx(2), m=1, k=k, gamma=2, v=(1, 1, 1)
    )


GRS_K3 = CodeSpec(
    kind="grs-folded", field=FieldCtx(4), m=5, k=3, gamma=2, v=(1,) * 15
)


def test_preset_schedule():
    s2 = codes.preset(2)
    assert (s2.n, s2.field.q, s2.N, s2.m, s2.k) == (3, 16, 15, 5, 1)
    s3 = codes.preset(3)
    assert (s3.n, s3.field.q, s3.N, s3.m, s3.k) == (7, 64, 63, 9, 6)


def test_preset_degenerate_warns():
    with pytest.warns(UserWarning):
        s1 = codes.preset(1)
    assert (s1.n, s1.field.q, s1.N, s1.m, s1.k) == (1, 4, 3, 3, 0)


def test_encode_identity_poly():
    cw = codes.encode(rs_f4(1), [0, 1])  # f(x) = x
    assert cw == ((1,), (2,), (3,))


def test_encode_zero_poly():
    assert codes.encode(rs_f4(1), [0]) == ((0,), (0,), (0,))


def test_encode_length_check():
    with pytest.raises(LengthMismatch):
        codes.encode(rs_f4(1), [1, 2, 3])


def horner_encode(spec: CodeSpec, msg) -> list:
    """v_i f(gamma^i) for f with ascending coefficients msg, by Horner's
    rule in scalar field arithmetic."""
    ctx = spec.field
    out, point = [], 1
    for vi in spec.v:
        acc = 0
        for c in reversed(msg):
            acc = ctx.mul(acc, point) ^ c
        out.append(ctx.mul(vi, acc))
        point = ctx.mul(point, spec.gamma)
    return out


def row_xor_encode(spec: CodeSpec, msg) -> list:
    """XOR over j of msg_j times row j of genmat, in scalar field arithmetic."""
    ctx = spec.field
    out = [0] * spec.N
    for c, row in zip(msg, spec.genmat):
        out = [o ^ ctx.mul(c, g) for o, g in zip(out, row)]
    return out


def message_of_rank(spec: CodeSpec, rank: int) -> list:
    q = spec.field.q
    return [(rank // q**j) % q for j in range(spec.dim)]


def _preset(t: int) -> CodeSpec:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # preset(1) is degenerate
        return codes.preset(t)


def _algebra_grs() -> CodeSpec:
    """The benchmark's |C| = 65536 code: the t = 2 preset with k = 3."""
    base = codes.preset(2)
    return CodeSpec(kind="grs-folded", field=base.field, m=base.m, k=3, gamma=base.gamma, v=base.v)


@pytest.mark.parametrize(
    "t, dual",
    [(1, False), (1, True), (2, False), (2, True), (3, False), (3, True), (None, False)],
    ids=["t1", "t1-dual", "t2", "t2-dual", "t3", "t3-dual", "algebra"],
)
def test_grs_encoding_matches_horner(t, dual):
    spec = _algebra_grs() if t is None else _preset(t)
    if dual:
        spec = codes.dual(spec)
    rng = np.random.default_rng(7)
    for _ in range(20):
        msg = rng.integers(spec.field.q, size=spec.dim).tolist()
        assert codes.encode_unfolded(spec, msg).tolist() == horner_encode(spec, msg)
    short = msg[: max(1, spec.dim // 2)]  # padded with zero coefficients
    assert codes.encode_unfolded(spec, short).tolist() == horner_encode(spec, short)
    if spec.size <= 1 << 16:
        table = codes.codeword_matrix(spec)
        ranks = {0, spec.size - 1, *rng.integers(spec.size, size=100).tolist()}
        for rank in sorted(ranks):
            assert table[rank].tolist() == horner_encode(spec, message_of_rank(spec, rank))


def _generic_gf16() -> CodeSpec:
    rng = np.random.default_rng(3)
    while True:
        genmat = rng.integers(16, size=(3, 6))
        if linalg.rank(FieldCtx(4), genmat) == 3:
            return CodeSpec(
                kind="generic-linear", field=FieldCtx(4), m=2,
                genmat=tuple(map(tuple, genmat.tolist())),
            )


@pytest.mark.parametrize("name", ["selfdual", "repetition", "gf16", "gf16-dual"])
def test_generic_encoding_matches_row_xor(name):
    spec = {
        "selfdual": configs.toy_selfdual_spec,
        "repetition": lambda: configs.toy_repetition_spec(n=3, s=2),
        "gf16": _generic_gf16,
        "gf16-dual": lambda: codes.dual(_generic_gf16()),
    }[name]()
    assert spec.kind == "generic-linear"
    table = codes.codeword_matrix(spec)
    for rank in range(spec.size):
        msg = message_of_rank(spec, rank)
        expect = row_xor_encode(spec, msg)
        assert table[rank].tolist() == expect
        assert codes.encode_unfolded(spec, msg).tolist() == expect
    with pytest.raises(LengthMismatch):
        codes.encode_unfolded(spec, [0] * (spec.dim - 1))


def test_generator_matrix_is_cached_and_read_only():
    for spec in (GRS_K3, configs.toy_selfdual_spec()):
        gm = spec.generator_matrix()
        assert gm is spec.generator_matrix()
        assert not gm.flags.writeable


def test_preset2_has_256_distinct_codewords():
    spec = codes.preset(2)
    assert spec.size == 256
    mat = codes.codeword_matrix(spec)
    assert len({tuple(row) for row in mat.tolist()}) == 256


def test_dual_of_rs_f4():
    d = codes.dual(rs_f4(1))
    assert d.k == 0 and d.v == (1, 2, 3)
    words = sorted(codewords(d))
    assert words == [
        ((0,), (0,), (0,)),
        ((1,), (2,), (3,)),
        ((2,), (3,), (1,)),
        ((3,), (1,), (2,)),
    ]


def test_dual_matches_null_space():
    # independent oracle: null space of the generator matrix
    for spec in (rs_f4(0), rs_f4(1), codes.preset(2)):
        d = codes.dual(spec)
        ns = linalg.null_space(spec.field, spec.generator_matrix())
        assert np.array_equal(
            linalg.row_space_canonical(spec.field, ns), d.basis_rref()
        )


def test_dual_is_involution():
    for spec in (rs_f4(0), rs_f4(1), codes.preset(2)):
        assert codes.dual(codes.dual(spec)) == spec


def test_orthogonality_witness():
    ctx = FieldCtx(2)
    assert inner(ctx, [1, 2, 3], [1, 2, 3]) == 0


def test_all_pairs_orthogonal_small():
    spec = rs_f4(1)
    d = codes.dual(spec)
    for c in codewords(spec):
        for cd in codewords(d):
            assert inner(spec.field, codes.unfold(spec, c), codes.unfold(d, cd)) == 0


def test_folded_dual_commutes():
    # dual of the folded code equals the folded dual: same unfolded row space
    spec = codes.preset(2)
    d = codes.dual(spec)
    unfolded = CodeSpec(
        kind="grs-folded", field=spec.field, m=1, k=spec.k, gamma=spec.gamma, v=spec.v
    )
    du = codes.dual(unfolded)
    assert np.array_equal(d.basis_rref(), du.basis_rref())
    assert d.m == spec.m and d.n == spec.n


def test_fold_unfold_roundtrip():
    spec = codes.preset(2)
    rng = np.random.default_rng(0)
    x = rng.integers(0, 16, size=spec.N).tolist()
    assert codes.unfold(spec, codes.fold(spec, x)).tolist() == x


def test_fold_m1_identity():
    spec = rs_f4(1)
    assert codes.fold(spec, [0, 2, 0]) == ((0,), (2,), (0,))


def test_digits_round_trip_and_match_the_scalar_ranks():
    rng = np.random.default_rng(5)
    for base, count in ((2, 1), (2, 62), (4, 3), (16, 5), (64, 9), (1 << 20, 3)):
        values = rng.integers(0, base**count, size=50)
        digits = codes.to_digits(values, base, count)
        assert digits.shape == (50, count)
        assert ((digits >= 0) & (digits < base)).all()
        assert np.array_equal(codes.from_digits(digits, base), values)
        blocks = codes.to_digits(values.reshape(5, 10), base, count)
        assert np.array_equal(blocks, digits.reshape(5, 10, count))
        assert codes.to_digits(int(values[0]), base, count).tolist() == digits[0].tolist()
    specs = (_preset(1), codes.preset(2), codes.preset(3), GRS_K3, configs.toy_selfdual_spec())
    for spec in specs:
        q, sigma = spec.field.q, spec.sigma_size
        ranks = [0, 1, sigma - 1, *rng.integers(sigma, size=30).tolist()]
        syms = [spec.rank_symbol(r) for r in ranks]
        assert [tuple(d) for d in codes.to_digits(ranks, q, spec.m).tolist()] == syms
        assert codes.from_digits(syms, q).tolist() == [spec.symbol_rank(s) for s in syms]


@pytest.mark.parametrize("base, count", [(2, 63), (256, 8), (256, 255), (3, 40)])
def test_digits_past_int64_raise(base, count):
    with pytest.raises(BudgetExceeded):
        codes.to_digits([0, 1], base, count)
    with pytest.raises(BudgetExceeded):
        codes.from_digits(np.zeros((2, count), dtype=np.int64), base)


def rank_matrix_loop(spec: CodeSpec) -> np.ndarray:
    """Per coordinate, each codeword's symbol rank by a digit loop over its
    m field elements, most significant first."""
    unfolded = codes.codeword_matrix(spec)
    q = spec.field.q
    out = np.zeros((unfolded.shape[0], spec.n), dtype=np.int64)
    for i in range(spec.n):
        block = unfolded[:, i * spec.m : (i + 1) * spec.m]
        r = np.zeros(unfolded.shape[0], dtype=np.int64)
        for j in range(spec.m):
            r = r * q + block[:, j]
        out[:, i] = r
    return out


RANK_SPECS = {
    "selfdual": configs.toy_selfdual_spec,
    "repetition": configs.toy_repetition_spec,
    "t1": lambda: _preset(1),
    "t2": lambda: codes.preset(2),
    "t3": lambda: codes.preset(3),
}


@pytest.mark.parametrize("dual", [False, True], ids=["code", "dual"])
@pytest.mark.parametrize("name", list(RANK_SPECS))
def test_codeword_rank_matrix_matches_the_digit_loop(name, dual):
    spec = RANK_SPECS[name]()
    if dual:
        spec = codes.dual(spec)
    if spec.size > 1 << 16:
        with pytest.raises(BudgetExceeded):
            codes.codeword_rank_matrix(spec)
        return
    got = codes.codeword_rank_matrix(spec)
    assert np.array_equal(got, rank_matrix_loop(spec))
    assert [tuple(row) for row in got.tolist()] == [spec.word_ranks(w) for w in codewords(spec)]


def test_rank_matrix_past_int64_raises():
    # |Sigma| = 256^255: the rank of one symbol does not fit in int64, while
    # the 256 codewords are well within the enumeration budget
    ctx = FieldCtx(8)
    spec = CodeSpec(
        kind="grs-folded", field=ctx, m=255, k=0, gamma=ctx.generator(), v=(1,) * 255
    )
    assert codes.codeword_matrix(spec).shape == (256, 255)
    with pytest.raises(BudgetExceeded):
        codes.codeword_rank_matrix(spec)


def test_list_decode_trivial_cases():
    spec = rs_f4(1)
    c = codes.encode(spec, [1, 2])
    assert codes.list_decode(spec, c, 0) == [c]
    everything = codes.list_decode(spec, c, spec.N)
    assert len(everything) == spec.size


def test_list_decode_dual_single_error():
    spec = rs_f4(1)
    d = codes.dual(spec)
    c = ((1,), (2,), (3,))
    corrupted = ((1,), (0,), (3,))
    assert codes.list_decode(d, corrupted, 1) == [c]


def test_bw_agrees_with_exhaustive_gf4():
    # every input of an enumerable config, for both degrees
    for k in (0, 1):
        spec = rs_f4(k)
        unique_radius = (spec.N - spec.k - 1) // 2
        for zvec in itertools.product(range(4), repeat=3):
            z = tuple((v,) for v in zvec)
            for radius in range(unique_radius + 1):
                exhaustive = codes.list_decode(spec, z, radius)
                bw = codes._berlekamp_welch(
                    spec, np.array(zvec, dtype=np.int64), radius
                )
                bw_list = [codes.fold(spec, bw)] if bw is not None else []
                assert sorted(exhaustive) == sorted(bw_list)


def test_bw_on_preset3_dual():
    spec = codes.preset(3)
    dual_spec = codes.dual(spec)
    rng = np.random.default_rng(5)
    for _ in range(20):
        msg = [int(rng.integers(64)) for _ in range(dual_spec.dim)]
        x = codes.encode_unfolded(dual_spec, msg)
        err = np.zeros(spec.N, dtype=np.int64)
        for pos in rng.choice(spec.N, size=3, replace=False):
            err[pos] = int(rng.integers(1, 64))
        got = codes._berlekamp_welch(
            CodeSpec(kind="grs-folded", field=spec.field, m=1, k=dual_spec.k,
                     gamma=dual_spec.gamma, v=dual_spec.v),
            x ^ err,
            3,
        )
        assert got is not None and np.array_equal(got, x)


def test_decoder_params():
    spec = codes.preset(3)
    params = DecoderParams.for_spec(spec, Fraction(1, 64))
    assert params.radius_unfolded == 1  # floor((2**-6 + 0.01) * 63)
    with pytest.raises(ValueError):
        DecoderParams.for_spec(spec, Fraction(1, 2))


def test_dual_decode_zero_error():
    spec = codes.preset(3)
    params = DecoderParams.for_spec(spec, Fraction(1, 64))
    d = codes.dual(spec)
    x = codes.encode(d, [3, 1, 4, 1, 5, 9])
    assert codes.dual_decode(spec, params, x) == x


def test_dual_decode_one_error():
    spec = codes.preset(3)
    params = DecoderParams.for_spec(spec, Fraction(1, 64))
    d = codes.dual(spec)
    rng = np.random.default_rng(11)
    msg = [int(rng.integers(64)) for _ in range(d.dim)]
    x = codes.encode(d, msg)
    xu = codes.unfold(d, x)
    err = np.zeros(spec.N, dtype=np.int64)
    err[30] = 7
    z = codes.fold(spec, (xu ^ err).tolist())
    assert codes.dual_decode(spec, params, z) == x


def test_dual_decode_bottom_when_far():
    # exhaustive toy: corrupt more than the radius allows at t=2-like scale
    spec = rs_f4(1)
    params = DecoderParams(p=Fraction(1, 64), epsilon=Fraction(1, 100), radius_unfolded=0)
    z = ((1,), (0,), (3,))  # distance 1 from (1,2,3), distance >0 from all
    d = codes.dual(spec)
    dists = [
        sum(a != b for a, b in zip(codes.unfold(d, c), codes.unfold(spec, z)))
        for c in codewords(d)
    ]
    assert min(dists) > 0  # oracle: no codeword within the radius
    assert codes.dual_decode(spec, params, z) is None


def _decode_at_unique_radius(spec, radius, z):
    """Oracle: Berlekamp-Welch on the unfolded dual at its unique-decoding
    radius, then keep the candidate only if it lies within `radius`."""
    d = codes.dual(spec)
    d_unf = CodeSpec(kind="grs-folded", field=spec.field, m=1, k=d.k, gamma=d.gamma, v=d.v)
    zu = codes.unfold(spec, z)
    cand = codes._berlekamp_welch(d_unf, zu, (d_unf.N - d_unf.k - 1) // 2)
    if cand is None or codes.hw_unfolded(cand ^ zu) > radius:
        return None
    return codes.fold(spec, cand)


def test_dual_decode_matches_unique_radius_filter():
    # the dual of preset(3) is too large to enumerate, so dual_decode runs
    # Berlekamp-Welch at the decoder radius itself; up to the unique radius
    # (3) that must agree with decoding at the unique radius and filtering
    spec = codes.preset(3)
    d = codes.dual(spec)
    rng = np.random.default_rng(21)
    for radius in (1, 2, 3):
        params = DecoderParams(
            p=Fraction(1, 64), epsilon=Fraction(1, 100), radius_unfolded=radius
        )
        for weight in range(6):
            msg = [int(rng.integers(64)) for _ in range(d.dim)]
            xu = codes.encode_unfolded(d, msg)
            err = np.zeros(spec.N, dtype=np.int64)
            for pos in rng.choice(spec.N, size=weight, replace=False):
                err[pos] = int(rng.integers(1, 64))
            z = codes.fold(spec, (xu ^ err).tolist())
            got = codes.dual_decode(spec, params, z)
            assert got == _decode_at_unique_radius(spec, radius, z)
            assert (got is not None) == (weight <= radius)


def test_dual_decode_beyond_unique_radius_raises():
    # a hand-built radius past the dual's unique-decoding bound (3 at t=3)
    # has no unique-decoding path; for_spec never builds one
    spec = codes.preset(3)
    params = DecoderParams(p=Fraction(1, 64), epsilon=Fraction(1, 100), radius_unfolded=4)
    x = codes.encode(codes.dual(spec), [3, 1, 4, 1, 5, 9])
    with pytest.raises(BudgetExceeded, match="unique-decoding bound 3"):
        codes.dual_decode(spec, params, x)


def test_good_error_separation_preset3():
    # sampled e with hw(unfold e) <= radius vs nonzero dual codewords
    spec = codes.preset(3)
    params = DecoderParams.for_spec(spec, Fraction(1, 64))
    d = codes.dual(spec)
    rng = np.random.default_rng(2)
    for _ in range(50):
        e = np.zeros(spec.N, dtype=np.int64)
        if rng.random() < 0.8:
            e[int(rng.integers(spec.N))] = int(rng.integers(1, 64))
        msg = [int(rng.integers(64)) for _ in range(d.dim)]
        if not any(msg):
            msg[0] = 1
        y = codes.encode_unfolded(d, msg)
        assert codes.hw_unfolded(e ^ y) > params.radius_unfolded


def test_list_recover_count_trivial():
    spec = codes.preset(2)
    full = [set(range(spec.sigma_size)) for _ in range(spec.n)]
    assert codes.list_recover_count(spec, full, 1.0) == spec.size
    empty = [set() for _ in range(spec.n)]
    assert codes.list_recover_count(spec, empty, 0.1) == 0


def test_list_recover_count_zero_symbol():
    spec = codes.preset(2)
    zero_rank = 0
    S = [{zero_rank} for _ in range(spec.n)]
    count = codes.list_recover_count(spec, S, 0.4)
    # independent recount over the enumerated codewords
    ranks = codes.codeword_rank_matrix(spec)
    manual = int(((ranks == 0).sum(axis=1) >= 2).sum())  # >= 0.4*3 means >= 2
    assert count == manual


def test_list_recover_count_jobs_invariant():
    spec = codes.preset(2)
    S = [{0, 5}, {0}, {1, 2, 3}]
    assert codes.list_recover_count(spec, S, 0.4) == codes.list_recover_count(
        spec, S, 0.4, jobs=4
    )


def _list_recover_oracle(spec, S, zeta):
    """Count agreements with np.isin over the full rank columns."""
    ranks = codes.codeword_rank_matrix(spec)
    agree = np.zeros(ranks.shape[0], dtype=np.int64)
    for i, s in enumerate(S):
        agree += np.isin(ranks[:, i], np.array(sorted(s), dtype=np.int64))
    return int((agree >= math.ceil(zeta * spec.n - 1e-9)).sum())


@pytest.mark.parametrize("spec", [codes.preset(2), GRS_K3], ids=["preset2", "grs-k3"])
def test_list_recover_count_matches_isin(spec):
    rng = np.random.default_rng(11)
    ranks = codes.codeword_rank_matrix(spec)
    cases = [[set() for _ in range(spec.n)]]
    for trial in range(6):
        planted = rng.choice(ranks.shape[0], size=8, replace=False)
        sets = [
            set(ranks[planted, i].tolist())
            | set(rng.integers(0, spec.sigma_size, size=40).tolist())
            for i in range(spec.n)
        ]
        if trial % 2:
            sets[0] = set()
        cases.append(sets)
    # the first five codewords' symbols, and ranks no codeword symbol can have
    cases.append([set(ranks[:5, i].tolist()) for i in range(spec.n)])
    cases.append([{-1, spec.sigma_size + 3, int(ranks[7, i])} for i in range(spec.n)])
    for S in cases:
        for zeta in (0.3, 2 / 3, 1.0):
            want = _list_recover_oracle(spec, S, zeta)
            for jobs in (1, 3):
                assert codes.list_recover_count(spec, S, zeta, jobs=jobs) == want


def test_lr_param_check():
    out = codes.lr_param_check(63, 9, 6, 0, 2, 8, 0.4, 64)
    assert out["ineq1"] and out["ineq2"] and out["L"] == 64**2
    # huge ell breaks the second inequality
    bad = codes.lr_param_check(63, 9, 6, 64**3, 2, 8, 0.4, 64)
    assert not bad["ineq2"]
    with pytest.raises(ZeroDivisionError):
        codes.lr_param_check(63, 9, 0, 2, 2, 8, 0.4, 64)
    with pytest.raises(ZeroDivisionError):
        codes.lr_param_check(63, 9, 6, 2, 10, 8, 0.4, 64)


def test_membership():
    spec = codes.preset(2)
    cw = codes.encode(spec, [7, 11])
    assert codes.contains(spec, cw)
    bad = [list(sym) for sym in cw]
    bad[0][0] ^= 1
    assert not codes.contains(spec, tuple(tuple(s) for s in bad))


def test_budget_exceeded():
    spec = codes.preset(3)
    with pytest.raises(BudgetExceeded):
        codes.codeword_matrix(spec)  # |C| = 64^7 over default budget


def test_generic_linear_dual():
    gm = ((1, 1),)
    spec = CodeSpec(kind="generic-linear", field=FieldCtx(2), m=1, genmat=gm)
    d = codes.dual(spec)
    # repetition pairs are self-dual over F4: equal canonical bases
    assert np.array_equal(spec.basis_rref(), d.basis_rref())


@pytest.mark.parametrize(
    "edit, field",
    [
        (lambda d: d.update(kind="folded-rs"), "kind"),
        (lambda d: d.pop("kind"), "kind"),
        (lambda d: d["field"].pop("s"), "field"),
        (lambda d: d["field"].pop("modulus"), "field"),
        (lambda d: d.update(field=4), "field"),
        (lambda d: d.update(m="5"), "m"),
        (lambda d: d.update(m=0), "m"),
        (lambda d: d.update(k=3.5), "k"),
        (lambda d: d.pop("k"), "k"),
        (lambda d: d.update(gamma=None), "gamma"),
        pytest.param(lambda d: d.update(gamma=0), "gamma", id="gamma-zero"),
        pytest.param(lambda d: d.update(gamma=1), "gamma", id="gamma-one"),
        (lambda d: d.update(v=d["v"][:-1]), "v"),
        (lambda d: d.update(v=5), "v"),
    ],
)
def test_grs_from_json_rejects_malformed_fields(edit, field):
    data = codes.preset(2).to_json()
    edit(data)
    with pytest.raises(ParseError, match=f"^code:{field}: "):
        CodeSpec.from_json(data)


@pytest.mark.parametrize(
    "gamma", [0, 1, 8, 16, -1], ids=["zero", "one", "order5", "q", "negative"]
)
def test_grs_spec_rejects_non_generator_gamma(gamma):
    # 2 generates F_16^* under the default modulus; 8 = 2^3 has order 5
    ctx = FieldCtx(4)
    assert ctx.element_order(2) == 15 and ctx.element_order(8) == 5
    with pytest.raises(ValueError, match="does not generate"):
        CodeSpec(kind="grs-folded", field=ctx, m=5, k=3, gamma=gamma, v=(1,) * 15)


@pytest.mark.parametrize(
    "genmat",
    [[], [[1, 1], [1]], [[]], "11", [[1, 1], 1]],
    ids=["empty", "ragged", "empty-row", "not-a-list", "row-not-a-list"],
)
def test_generic_from_json_rejects_bad_genmat(genmat):
    data = configs.toy_selfdual_spec().to_json()
    data["genmat"] = genmat
    with pytest.raises(ParseError, match="^code:genmat: "):
        CodeSpec.from_json(data)


def test_from_json_roundtrips_both_kinds():
    for spec in (codes.preset(2), GRS_K3, configs.toy_selfdual_spec()):
        assert CodeSpec.from_json(spec.to_json()) == spec
