import itertools
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from nullcode import codes, configs, instances, linalg
from nullcode.codes import CodeSpec, DecoderParams
from nullcode.errors import BudgetExceeded, DomainMismatch, LengthMismatch, ParseError
from nullcode.gf import FieldCtx
from test_instances import SMALL_SPECS


def codewords(spec: CodeSpec) -> list:
    return [codes.fold(spec, r) for r in codes.codeword_matrix(spec)]


def symbol_rank_loop(spec: CodeSpec, sym) -> int:
    """A symbol's rank by a digit loop over its m field elements, most
    significant first."""
    r = 0
    for d in sym:
        r = r * spec.field.q + int(d)
    return r


def rank_symbol_loop(spec: CodeSpec, rank: int) -> tuple:
    """Inverse of symbol_rank_loop, by peeling base-q digits."""
    out = []
    for _ in range(spec.m):
        out.append(rank % spec.field.q)
        rank //= spec.field.q
    return tuple(reversed(out))


def inner(ctx: FieldCtx, u, v) -> int:
    """Coordinate-wise inner product sum_i u_i v_i over the field."""
    return int(np.bitwise_xor.reduce(linalg.mul_arrays(ctx, u, v)))


def canonical_basis(spec: CodeSpec) -> np.ndarray:
    """The rref of the generator matrix: every basis of a code's row space
    has the same one."""
    return linalg.rref(spec.field, spec.generator_matrix())[0]


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
    cw = codes.fold(rs_f4(1), codes.encode_unfolded(rs_f4(1), [0, 1]))  # f(x) = x
    assert cw == ((1,), (2,), (3,))


def test_encode_zero_poly():
    assert codes.fold(rs_f4(1), codes.encode_unfolded(rs_f4(1), [0])) == ((0,), (0,), (0,))


def test_encode_length_check():
    with pytest.raises(LengthMismatch):
        codes.fold(rs_f4(1), codes.encode_unfolded(rs_f4(1), [1, 2, 3]))


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


@pytest.mark.parametrize("name", ["selfdual", "repetition", "t1", "t2"])
def test_every_code_table_is_cached_and_read_only(name):
    spec = RANK_SPECS[name]()
    tables = {
        "generator_matrix": spec.generator_matrix,
        "codeword_matrix": lambda: codes.codeword_matrix(spec),
        "codeword_rank_matrix": lambda: codes.codeword_rank_matrix(spec),
    }
    if spec.kind == "grs-folded":
        tables["points"] = spec.points
    for table in tables.values():
        got = table()
        assert table() is got and not got.flags.writeable
    # an equal spec built apart reads the same cached tables
    twin = CodeSpec.from_json(spec.to_json())
    assert twin is not spec and codes.codeword_rank_matrix(twin) is tables["codeword_rank_matrix"]()
    assert codes.codeword_rank_matrix(spec).flags.f_contiguous


def test_an_over_budget_code_raises_on_every_call():
    # the cache holds no exception, so the gate inside each cached table
    # raises again on every call
    spec = codes.preset(3)
    assert spec.size > 1 << 16
    for _ in range(3):
        for table in (codes.codeword_matrix, codes.codeword_rank_matrix):
            with pytest.raises(BudgetExceeded, match=f"^\\|C\\| = {spec.size} exceeds budget 65536$"):
                table(spec)
        with pytest.raises(BudgetExceeded):
            codes.list_recover_count(spec, [{0}] * spec.n, 1)


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
        assert np.array_equal(linalg.rref(spec.field, ns)[0], canonical_basis(d))


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
    assert np.array_equal(canonical_basis(d), canonical_basis(du))
    assert d.m == spec.m and d.n == spec.n


def test_fold_unfold_roundtrip():
    spec = codes.preset(2)
    rng = np.random.default_rng(0)
    x = rng.integers(0, 16, size=spec.N).tolist()
    assert codes.unfold(spec, codes.fold(spec, x)).tolist() == x


def fold_loop(spec: CodeSpec, x):
    """fold by slicing: symbol i is elements i m .. (i + 1) m - 1."""
    x = list(int(v) for v in x)
    if len(x) != spec.N:
        raise LengthMismatch(f"expected {spec.N} field symbols, got {len(x)}")
    m = spec.m
    return tuple(tuple(x[i * m : (i + 1) * m]) for i in range(spec.n))


@pytest.mark.parametrize(
    "build",
    [
        configs.toy_selfdual_spec,
        lambda: GRS_K3,
        lambda: codes.preset(2),
        lambda: _unfolded_dual_preset3(),  # defined below
    ],
    ids=["selfdual", "grs-k3-m5", "preset2", "preset3-dual-unfolded"],
)
def test_fold_matches_the_slicing_loop(build):
    spec = build()
    rng = np.random.default_rng(7)
    x = rng.integers(0, spec.field.q, size=spec.N)
    half = spec.N // 2
    inputs = [
        x,
        x.tolist(),
        itertools.chain(x[:half].tolist(), x[half:]),
        (x + 0.75).tolist(),  # floats truncate through int
        x.astype(np.uint8),
    ]
    for value in inputs:
        got = codes.fold(spec, value)
        assert got == fold_loop(spec, x) and type(got[0][0]) is int
    for length in (0, spec.N - 1, spec.N + 1, spec.N + spec.m):
        word = x.tolist()[:length] + [0] * max(0, length - spec.N)
        for fold in (codes.fold, fold_loop):
            with pytest.raises(LengthMismatch, match=f"expected {spec.N} field symbols, got {length}"):
                fold(spec, word)


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
        syms = [rank_symbol_loop(spec, r) for r in ranks]
        assert [tuple(d) for d in codes.to_digits(ranks, q, spec.m).tolist()] == syms
        assert codes.from_digits(syms, q).tolist() == [symbol_rank_loop(spec, s) for s in syms]


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
    assert [tuple(row) for row in got.tolist()] == [
        tuple(symbol_rank_loop(spec, s) for s in w) for w in codewords(spec)
    ]


@pytest.mark.parametrize(
    "name, dual",
    [(name, False) for name in RANK_SPECS if name != "t3"]
    + [(name, True) for name in ("selfdual", "repetition", "t1")],
)
def test_codeword_rank_matrix_is_a_read_only_column_major_table(name, dual):
    spec = RANK_SPECS[name]()
    if dual:
        spec = codes.dual(spec)
    got = codes.codeword_rank_matrix(spec)
    unfolded = codes.codeword_matrix(spec)
    assert np.array_equal(got, codes.from_digits(unfolded.reshape(-1, spec.n, spec.m), spec.field.q))
    assert got.shape == (spec.size, spec.n) and got.dtype == np.int64
    assert got.flags.f_contiguous and not got.flags.writeable
    assert codes.codeword_rank_matrix(spec) is got


@pytest.mark.parametrize("dual", [False, True], ids=["code", "dual"])
@pytest.mark.parametrize("t", [1, 2, 3])
def test_points_match_repeated_multiplication(t, dual):
    spec = _preset(t)
    if dual:
        spec = codes.dual(spec)
    want, x = [], 1
    for _ in range(spec.N):
        want.append(x)
        x = spec.field.mul(x, spec.gamma)
    assert spec.points().tolist() == want


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
    c = codes.fold(spec, codes.encode_unfolded(spec, [1, 2]))
    assert codes.list_decode(spec, c, 0) == [c]
    everything = codes.list_decode(spec, c, spec.N)
    assert len(everything) == spec.size


def test_list_decode_dual_single_error():
    spec = rs_f4(1)
    d = codes.dual(spec)
    c = ((1,), (2,), (3,))
    corrupted = ((1,), (0,), (3,))
    assert codes.list_decode(d, corrupted, 1) == [c]


def test_list_decode_keeps_out_of_range_digits_apart():
    # (0, 2) is no symbol of F_2^2; read as base-2 digits it would alias
    # (1, 0), and (1, 0) x 4 is a codeword of the toy code, so the word is
    # rejected rather than decoded
    spec = configs.toy_selfdual_spec()
    assert ((1, 0),) * 4 in codewords(spec)
    message = r"every digit must be an integer in \[0, 2\)"
    with pytest.raises(DomainMismatch, match=message):
        codes.list_decode(spec, ((0, 2),) * 4, 0)
    with pytest.raises(DomainMismatch, match=message):
        codes.list_decode(spec, ((0, 2),) + ((1, 0),) * 3, 1)


def _unfolded_dual_preset3() -> CodeSpec:
    d = codes.dual(codes.preset(3))
    return CodeSpec(kind="grs-folded", field=d.field, m=1, k=d.k, gamma=d.gamma, v=d.v)


@pytest.mark.parametrize(
    "build", [configs.toy_selfdual_spec, _unfolded_dual_preset3], ids=["exhaustive", "syndrome"]
)
def test_list_decode_branches_reject_a_malformed_word_alike(build):
    # a 1-symbol word must not be broadcast over every coordinate, and a
    # digit outside [0, q) must not alias another symbol nor index past the
    # syndrome branch's log table
    spec = build()
    q = spec.field.q
    assert (spec.size <= 1 << 16) == (build is configs.toy_selfdual_spec)
    zero = ((0,) * spec.m,)
    for word, message in (
        (zero, f"expected {spec.n} symbols, got 1"),
        (zero * (spec.n - 1), f"expected {spec.n} symbols, got {spec.n - 1}"),
        (zero * (spec.n + 1), f"expected {spec.n} symbols, got {spec.n + 1}"),
        (((0,) * (spec.m + 1),) * spec.n, "symbol width does not match folding"),
    ):
        with pytest.raises(LengthMismatch, match=message):
            codes.list_decode(spec, word, 0)
    message = rf"every digit must be an integer in \[0, {q}\)"
    for digit in (q, -1, 2**70, 0.0, 1.0, True, False, np.True_):
        symbol = (0,) * (spec.m - 1) + (digit,)
        for word in ((symbol,) * spec.n, (symbol,) + zero * (spec.n - 1)):
            with pytest.raises(DomainMismatch, match=message):
                codes.list_decode(spec, word, 1)
    # numpy integers are digits
    assert codes.list_decode(spec, ((np.int64(0),) * spec.m,) * spec.n, 0) == [zero * spec.n]


def _poly_divmod(ctx: FieldCtx, num: list[int], den: list[int]):
    """Polynomial division over F_q; coefficients ascending."""
    num = list(num)
    while num and num[-1] == 0:
        num.pop()
    dd = len(den) - 1
    lead_inv = ctx.inv(den[-1])
    quot = [0] * max(0, len(num) - dd)
    while len(num) - 1 >= dd and num:
        shift = len(num) - 1 - dd
        factor = ctx.mul(num[-1], lead_inv)
        quot[shift] = factor
        for i, c in enumerate(den):
            num[shift + i] ^= ctx.mul(factor, c)
        while num and num[-1] == 0:
            num.pop()
    return quot, num


def berlekamp_welch(spec: CodeSpec, z, radius: int):
    """Oracle: unique decoding of an unfolded GRS word by Berlekamp-Welch.

    Solves Q(a_i) = r_i * E(a_i), r_i = z_i / v_i, with E monic of degree
    `radius` by one linear solve; valid for radius <= floor((N - k - 1) / 2).
    Returns the unfolded codeword or None when no codeword lies within the
    radius.
    """
    ctx = spec.field
    N, k, e = spec.N, spec.k, radius
    z = np.asarray(z, dtype=np.int64)
    r = linalg.mul_arrays(ctx, z, [ctx.inv(x) for x in spec.v])
    steps = ctx.log_np[spec.points()][:, None] * np.arange(k + e + 1)
    pw = ctx.exp_np[steps % (ctx.q - 1)]
    nq = k + e + 1  # coefficients of Q
    A = np.zeros((N, nq + e), dtype=np.int64)
    A[:, :nq] = pw[:, :nq]
    if e:
        A[:, nq:] = linalg.mul_arrays(ctx, r[:, None], pw[:, :e])
    sol = linalg.solve(ctx, A, linalg.mul_arrays(ctx, r, pw[:, e]))
    if sol is None:
        return None
    ecoeffs = [int(c) for c in sol[nq:]] + [1]  # monic
    f, rem = _poly_divmod(ctx, [int(c) for c in sol[:nq]], ecoeffs)
    if rem or len(f) > k + 1:
        return None
    cand = codes.encode_unfolded(spec, f)
    if np.count_nonzero(cand ^ z) > radius:
        return None
    return cand


def _same_decoding(a, b) -> bool:
    return (a is None and b is None) or (
        a is not None and b is not None and np.array_equal(a, b)
    )


def _noisy_words(spec: CodeSpec, rng, weights, per_weight: int) -> list:
    """per_weight codewords of spec with `weight` random nonzero errors
    added, for each weight."""
    q = spec.field.q
    out = []
    for weight in weights:
        for _ in range(per_weight):
            x = codes.encode_unfolded(spec, rng.integers(0, q, size=spec.dim).tolist())
            err = np.zeros(spec.N, dtype=np.int64)
            err[rng.choice(spec.N, size=weight, replace=False)] = rng.integers(1, q, size=weight)
            out.append(x ^ err)
    return out


def test_bw_agrees_with_exhaustive_gf4():
    # every input of an enumerable config, for both degrees
    for k in (0, 1):
        spec = rs_f4(k)
        unique_radius = (spec.N - spec.k - 1) // 2
        for zvec in itertools.product(range(4), repeat=3):
            z = tuple((v,) for v in zvec)
            for radius in range(unique_radius + 1):
                exhaustive = codes.list_decode(spec, z, radius)
                bw = berlekamp_welch(spec, np.array(zvec, dtype=np.int64), radius)
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
        got = berlekamp_welch(
            CodeSpec(kind="grs-folded", field=spec.field, m=1, k=dual_spec.k,
                     gamma=dual_spec.gamma, v=dual_spec.v),
            x ^ err,
            3,
        )
        assert got is not None and np.array_equal(got, x)


def test_syndrome_decoder_matches_oracles_gf4():
    # every input of both GF(4) codes, at every radius up to the unique one:
    # the syndrome decoder, Berlekamp-Welch and the exhaustive branch agree
    for k in (0, 1):
        spec = rs_f4(k)
        for zvec in itertools.product(range(4), repeat=3):
            z = np.array(zvec, dtype=np.int64)
            for radius in range((spec.N - spec.k - 1) // 2 + 1):
                got = codes._syndrome_decode(spec, z, radius)
                assert _same_decoding(got, berlekamp_welch(spec, z, radius))
                want = codes.list_decode(spec, codes.fold(spec, z), radius)
                assert ([codes.fold(spec, got)] if got is not None else []) == want


@pytest.mark.parametrize("k", [0, 1, 2, 6, 12, 13])
def test_syndrome_decoder_matches_bw_gf16(k):
    # non-unit multipliers; error weights 0..N reach far past the unique
    # radius, where either decoder must return None or the same codeword
    ctx = FieldCtx(4)
    rng = np.random.default_rng(100 + k)
    spec = CodeSpec(
        kind="grs-folded", field=ctx, m=1, k=k, gamma=ctx.generator(),
        v=tuple(rng.integers(2, ctx.q, size=ctx.q - 1).tolist()),
    )
    enumerable = spec.size <= 1 << 16
    decoded = 0
    for z in _noisy_words(spec, rng, range(spec.N + 1), 8):
        for radius in range((spec.N - spec.k - 1) // 2 + 1):
            got = codes._syndrome_decode(spec, z, radius)
            assert _same_decoding(got, berlekamp_welch(spec, z, radius))
            if enumerable:
                want = codes.list_decode(spec, codes.fold(spec, z), radius)
                assert ([codes.fold(spec, got)] if got is not None else []) == want
            decoded += got is not None
    assert decoded > 0


def test_decoder_params_read_p_as_a_decimal():
    spec = configs.toy_selfdual_spec()
    want = DecoderParams.for_spec(spec, Fraction(1, 10))
    assert DecoderParams.for_spec(spec, 0.1) == want
    assert DecoderParams.for_spec(spec, np.float64(0.1)) == want
    assert DecoderParams.for_spec(spec, "1/10") == want


def test_syndrome_decoder_on_preset3_dual():
    # the benchmark's decoder: the unfolded dual of preset(3) (k = 55,
    # unique radius 3) at radii 0-3, error weights 0-7
    d = codes.dual(codes.preset(3))
    spec = CodeSpec(kind="grs-folded", field=d.field, m=1, k=d.k, gamma=d.gamma, v=d.v)
    rng = np.random.default_rng(8)
    weights = range(8)
    words = _noisy_words(spec, rng, weights, 6)
    for i, z in enumerate(words):
        weight = weights[i // 6]
        for radius in range(4):
            got = codes._syndrome_decode(spec, z, radius)
            assert _same_decoding(got, berlekamp_welch(spec, z, radius))
            if weight <= radius:
                assert got is not None and np.count_nonzero(got ^ z) == weight


def test_full_grs_code_decodes_to_the_word():
    # k = N - 1: no parity checks, every word is a codeword
    ctx = FieldCtx(4)
    spec = CodeSpec(kind="grs-folded", field=ctx, m=1, k=14, gamma=2, v=(1,) * 15)
    z = tuple((v,) for v in range(15))
    assert codes.list_decode(spec, z, 0) == [z]
    with pytest.raises(BudgetExceeded, match="unique-decoding bound 0"):
        codes.list_decode(spec, z, 1)


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
    x = codes.fold(d, codes.encode_unfolded(d, [3, 1, 4, 1, 5, 9]))
    assert codes.dual_decode(spec, params, x) == x


def test_dual_decode_one_error():
    spec = codes.preset(3)
    params = DecoderParams.for_spec(spec, Fraction(1, 64))
    d = codes.dual(spec)
    rng = np.random.default_rng(11)
    msg = [int(rng.integers(64)) for _ in range(d.dim)]
    x = codes.fold(d, codes.encode_unfolded(d, msg))
    xu = codes.unfold(d, x)
    err = np.zeros(spec.N, dtype=np.int64)
    err[30] = 7
    z = codes.fold(spec, (xu ^ err).tolist())
    assert codes.dual_decode(spec, params, z) == x


def test_dual_decode_bottom_when_far():
    # exhaustive toy: corrupt more than the radius allows at t=2-like scale
    spec = rs_f4(1)
    params = DecoderParams(p=Fraction(1, 64), radius_unfolded=0)
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
    cand = berlekamp_welch(d_unf, zu, (d_unf.N - d_unf.k - 1) // 2)
    if cand is None or np.count_nonzero(cand ^ zu) > radius:
        return None
    return codes.fold(spec, cand)


def test_dual_decode_matches_unique_radius_filter():
    # the dual of preset(3) is too large to enumerate, so dual_decode runs
    # the syndrome decoder at the decoder radius itself; up to the unique radius
    # (3) that must agree with decoding at the unique radius and filtering
    spec = codes.preset(3)
    d = codes.dual(spec)
    rng = np.random.default_rng(21)
    for radius in (1, 2, 3):
        params = DecoderParams(p=Fraction(1, 64), radius_unfolded=radius)
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
    params = DecoderParams(p=Fraction(1, 64), radius_unfolded=4)
    d = codes.dual(spec)
    x = codes.fold(d, codes.encode_unfolded(d, [3, 1, 4, 1, 5, 9]))
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
        assert np.count_nonzero(e ^ y) > params.radius_unfolded


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


def _agreements(spec, S):
    """Each codeword's agreements with S, by np.isin over the full rank
    columns."""
    ranks = codes.codeword_rank_matrix(spec)
    agree = np.zeros(ranks.shape[0], dtype=np.int64)
    for i, s in enumerate(S):
        agree += np.isin(ranks[:, i], np.array(sorted(s), dtype=np.int64))
    return agree


def _list_recover_oracle(spec, S, zeta):
    return int((_agreements(spec, S) >= math.ceil(zeta * spec.n - 1e-9)).sum())


# selfdual and grs4-m1-k1 have 16 codewords over 4 symbols per coordinate, so
# each symbol is shared by several codewords
@pytest.mark.parametrize(
    "spec",
    [codes.preset(2), GRS_K3, configs.toy_selfdual_spec(), SMALL_SPECS["grs4-m1-k1"]()],
    ids=["preset2", "grs-k3", "selfdual", "grs4-m1-k1"],
)
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


@pytest.mark.parametrize(
    "bad",
    [1.5, True, "3", np.float64(2.0), np.bool_(False), None],
    ids=["float", "bool", "str", "np-float", "np-bool", "none"],
)
def test_list_recover_count_rejects_a_rank_that_is_not_an_integer(bad):
    # a rank that is not an integer is rejected, not truncated by int()
    spec = configs.toy_selfdual_spec()
    S = [{0, 1}, {bad}, {2}, set()]
    with pytest.raises(DomainMismatch, match="every candidate rank must be an integer"):
        codes.list_recover_count(spec, S, 0.5)


def test_list_recover_count_matches_nothing_past_int64():
    # a rank past int64, like -1 or |Sigma|, is a rank no symbol has
    spec = configs.toy_selfdual_spec()
    ranks = codes.codeword_rank_matrix(spec)
    far = (2**70, -(2**70), np.uint64(2**64 - 1), spec.sigma_size, -1)
    S = [{int(ranks[5, i]), np.int64(ranks[9, i]), *far} for i in range(spec.n)]
    for zeta in (0.25, 0.75, 1.0):
        want = _list_recover_oracle(spec, [{int(ranks[j, i]) for j in (5, 9)} for i in range(spec.n)], zeta)
        for jobs in (1, 3):
            assert codes.list_recover_count(spec, S, zeta, jobs=jobs) == want
    assert codes.list_recover_count(spec, [{2**70}] * spec.n, 0) == spec.size
    assert codes.list_recover_count(spec, [{2**70}] * spec.n, 0.25) == 0


def test_list_recover_count_reads_zeta_exactly():
    # the threshold is ceil(zeta n) with no slack: at zeta n = t + 10^-12
    # a codeword needs t + 1 agreements (a 1e-9 slack made it t)
    spec = GRS_K3
    ranks = codes.codeword_rank_matrix(spec)
    rng = np.random.default_rng(7)
    S = [set(ranks[rng.random(len(ranks)) < 0.4, i].tolist()) for i in range(spec.n)]
    agree, n = _agreements(spec, S), spec.n
    assert set(agree.tolist()) == set(range(n + 1))
    for t in range(n + 1):
        assert codes.list_recover_count(spec, S, Fraction(t, n)) == (agree >= t).sum()
        above = Fraction(t * 10**12 + 1, n * 10**12)
        assert codes.list_recover_count(spec, S, above) == (agree >= t + 1).sum()
        assert codes.list_recover_count(spec, S, float(above)) == (agree >= t + 1).sum()
    # a float is read as the decimal its repr prints: 2/3 as 0.6666666666666666
    assert codes.list_recover_count(spec, S, 2 / 3) == (agree >= 2).sum()
    assert codes.list_recover_count(spec, S, "0.8") == (agree >= 3).sum()
    # a numpy float too, whose repr under numpy 2 is not a decimal
    assert codes.list_recover_count(spec, S, np.float64(0.8)) == (agree >= 3).sum()
    assert codes.list_recover_count(spec, S, np.float64(2 / 3)) == (agree >= 2).sum()


def test_lr_param_check():
    out = codes.lr_param_check(63, 9, 6, 0, 2, 8, 0.4, 64)
    assert out["ineq1"] and out["ineq2"] and out["L"] == 64**2
    # huge ell breaks the second inequality
    bad = codes.lr_param_check(63, 9, 6, 64**3, 2, 8, 0.4, 64)
    assert not bad["ineq2"]
    with pytest.raises(ValueError):
        codes.lr_param_check(63, 9, 0, 2, 2, 8, 0.4, 64)
    with pytest.raises(ValueError):
        codes.lr_param_check(63, 9, 6, 2, 10, 8, 0.4, 64)
    # each of these divided by zero or raised a negative base to a fractional
    # power; a q of 0 is no field size, and q = -64 made L = q**s complex
    bad_args = ({"m": 0}, {"r": 0}, {"s": -1}, {"k": -6}, {"N": -63}, {"ell": -2}, {"q": 0}, {"q": -64, "s": 2.5})
    for bad in bad_args:
        args = {"N": 63, "m": 9, "k": 6, "ell": 2, "s": 2, "r": 8, "zeta": 0.4, "q": 64} | bad
        with pytest.raises(ValueError):
            codes.lr_param_check(**args)


@pytest.mark.parametrize(
    "big",
    [
        {"s": 200, "q": 1e10},  # q^s overflows a float
        {"s": 2000.0},  # k^s overflows a float
        {"s": 2000},  # the int k^s is too large to convert to a float
        {"k": 10**400},  # and so is N ell k^s here
    ],
)
def test_lr_param_check_rejects_overflowing_powers(big):
    args = {"N": 63, "m": 9, "k": 6, "ell": 2, "s": 2, "r": 8, "zeta": 0.4, "q": 64} | big
    with pytest.raises(ValueError, match="overflow"):
        codes.lr_param_check(**args)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", ["N", "m", "k", "ell", "s", "r", "zeta", "q"])
def test_lr_param_check_rejects_non_finite(name, value):
    args = {"N": 63, "m": 9, "k": 6, "ell": 2, "s": 2, "r": 8, "zeta": 0.4, "q": 64}
    with pytest.raises(ValueError, match="finite"):
        codes.lr_param_check(**(args | {name: value}))


TINY = Fraction(1, 10**30)


@pytest.mark.parametrize(
    "args, key, at_tie",
    [
        # (r + s) (N ell / k)^(1/3) = 4 * 64^(1/3) = 16 = q, not below q;
        # in floats 64 ** (1/3) is 3.9999999999999996
        ({"N": 64, "m": 4, "k": 1, "ell": 1, "s": 2, "r": 2, "zeta": 1, "q": 16}, "ineq2", False),
        # (27/8)^(1/3) = 3/2, so the left side is 4 * 3/2 = 6 = q
        ({"N": 27, "m": 4, "k": 8, "ell": 1, "s": 2, "r": 2, "zeta": 1, "q": 6}, "ineq2", False),
        # s = 1/2: (3/2 + 1/2) 8^(2/3) = 8 = q
        ({"N": 8, "m": 4, "k": 1, "ell": 1, "s": Fraction(1, 2), "r": Fraction(3, 2), "zeta": 1, "q": 8}, "ineq2", False),
        # zeta N / m = 64/6 / 4 = 8/3 = (1 + 2/2) (64 * 1 * 1^2)^(1/3) / 3
        ({"N": 64, "m": 4, "k": 1, "ell": 1, "s": 2, "r": 2, "zeta": Fraction(1, 6), "q": 16}, "ineq1", True),
        # (N ell k^s)^(1/3) = (2 * 1 * 2^2)^(1/3) = 2, and at zeta = 2
        # zeta N / m = 1 = (1 + 2/4) 2 / 3
        ({"N": 2, "m": 4, "k": 2, "ell": 1, "s": 2, "r": 4, "zeta": 2, "q": 16}, "ineq1", True),
    ],
)
def test_lr_param_check_is_exact_at_ties(args, key, at_tie):
    assert codes.lr_param_check(**args)[key] is at_tie
    # the smallest step off the tie, on the side that flips the verdict
    if key == "ineq2":
        assert codes.lr_param_check(**(args | {"q": args["q"] + TINY}))["ineq2"] is True
    else:
        assert codes.lr_param_check(**(args | {"zeta": args["zeta"] - TINY}))["ineq1"] is False


@pytest.mark.parametrize(
    "args, want",
    [
        # s + 1 = 3123/1000: the comparisons stand for 3123rd powers
        ({"s": 2.123}, {"ineq1": True, "ineq2": True}),
        # q^150 = 2^900 is a float, and (r + s)^151 is past 2^1024
        ({"m": 200, "s": 150}, {"ineq1": False, "ineq2": False, "L": 2**900}),
        # s + 1 = (10^300 + 1)/10^300
        ({"s": 1e-300}, {"ineq1": False, "ineq2": False}),
    ],
)
def test_lr_param_check_takes_every_power_floats_took(args, want):
    got = codes.lr_param_check(**({"N": 63, "m": 9, "k": 6, "ell": 2, "s": 2, "r": 8, "zeta": 0.4, "q": 64} | args))
    assert got | want == got


def test_lr_param_check_flips_past_a_negative_m_minus_s_plus_1():
    # m - s + 1 = -1: the right side of ineq1 is not positive, so it holds
    # for every zeta >= 0 and fails only once zeta N / m drops below it
    args = {"N": 64, "m": 2, "k": 1, "ell": 1, "s": 4, "r": 4, "zeta": 0, "q": 16}
    assert codes.lr_param_check(**args)["ineq1"] is True
    # (1 + 4/4) 64^(1/5) / -1 = -2 * 2^(6/5); zeta N / m = 32 zeta
    assert codes.lr_param_check(**(args | {"zeta": Fraction(-1, 8)}))["ineq1"] is True
    assert codes.lr_param_check(**(args | {"zeta": Fraction(-1, 4)}))["ineq1"] is False


def test_membership():
    spec = codes.preset(2)
    base = instances.sample_instance(spec, Fraction(1, 64), 0)
    inst = instances.with_tables(base, np.zeros_like(base.tables))  # only the code decides
    cw = codes.fold(spec, codes.encode_unfolded(spec, [7, 11]))
    assert instances.verify(inst, cw)
    bad = [list(sym) for sym in cw]
    bad[0][0] ^= 1
    assert not instances.verify(inst, tuple(tuple(s) for s in bad))


def test_budget_exceeded():
    spec = codes.preset(3)
    with pytest.raises(BudgetExceeded):
        codes.codeword_matrix(spec)  # |C| = 64^7 over default budget


def test_generic_linear_dual():
    gm = ((1, 1),)
    spec = CodeSpec(kind="generic-linear", field=FieldCtx(2), m=1, genmat=gm)
    d = codes.dual(spec)
    # repetition pairs are self-dual over F4: equal canonical bases
    assert np.array_equal(canonical_basis(spec), canonical_basis(d))


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


@pytest.mark.parametrize("entry", [-1, 2, 5])
def test_generic_spec_rejects_an_entry_outside_the_field(entry):
    # as a GRS multiplier outside (0, q) is; numpy would wrap -1 around the
    # log tables and index past them at 2 or 5
    rows = [list(row) for row in configs.toy_selfdual_spec().genmat]
    rows[1][2] = entry
    with pytest.raises(ValueError, match="generator matrix entries must be field elements"):
        CodeSpec(kind="generic-linear", field=FieldCtx(1), m=2, genmat=tuple(map(tuple, rows)))


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


@pytest.mark.parametrize("value", [1.0, 0.5, "1", True], ids=repr)
@pytest.mark.parametrize("field", ["v", "genmat"])
def test_from_json_rejects_an_entry_that_is_not_an_integer(field, value):
    spec = codes.preset(2) if field == "v" else configs.toy_selfdual_spec()
    data = spec.to_json()
    if field == "v":
        data["v"][3] = value
    else:
        data["genmat"][1][2] = value
    with pytest.raises(TypeError, match=f"^{field} must be an integer, got "):
        CodeSpec.from_json(data)


@pytest.mark.parametrize("m", [0, -1])
def test_spec_rejects_a_folding_width_below_one(m):
    # from_json rejects these first; a direct build must too
    with pytest.raises(ValueError, match=f"folding width m = {m} is not positive"):
        CodeSpec(kind="grs-folded", field=FieldCtx(2), m=m, k=0, gamma=2, v=(1, 1, 1))
    with pytest.raises(ValueError, match=f"folding width m = {m} is not positive"):
        CodeSpec(kind="generic-linear", field=FieldCtx(1), m=m, genmat=((1, 1),))


def test_from_json_roundtrips_both_kinds():
    for spec in (codes.preset(2), GRS_K3, configs.toy_selfdual_spec()):
        assert CodeSpec.from_json(spec.to_json()) == spec
