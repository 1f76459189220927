import json
import math
from fractions import Fraction

import numpy as np
import pytest

from nullcode import codes, configs, instances
from nullcode.errors import BudgetExceeded, ParseError, SplitRequiresEvenN
from nullcode.gf import FieldCtx


def toy():
    return configs.toy_repetition_spec(n=2, s=2)


def grs4(m, k):
    """Degree-k GRS code over F_4 (N = 3), m-folded."""
    ctx = FieldCtx(2)
    return codes.CodeSpec(kind="grs-folded", field=ctx, m=m, k=k, gamma=ctx.generator(), v=(1, 2, 3))


# small codes whose |Sigma|^n words can all be enumerated: the self-dual toy,
# repetition codes over F_2 and F_4, and F_4 GRS codes folded to m = 1 and 3
SMALL_SPECS = {
    "selfdual": configs.toy_selfdual_spec,
    "rep4-s1": lambda: configs.toy_repetition_spec(n=4, s=1),
    "rep5-s1": lambda: configs.toy_repetition_spec(n=5, s=1),
    "rep3-s2": lambda: configs.toy_repetition_spec(n=3, s=2),
    "rep4-s2": lambda: configs.toy_repetition_spec(n=4, s=2),
    "grs4-m1-k0": lambda: grs4(1, 0),
    "grs4-m1-k1": lambda: grs4(1, 1),
    "grs4-m3-k0": lambda: grs4(3, 0),
    "grs4-m3-k1": lambda: grs4(3, 1),
}


def verify_each(inst, flats):
    """The scalar verifier on the word of each flat rank."""
    spec = inst.spec
    words = codes.to_digits(flats, spec.field.q, spec.N)
    return np.array([instances.verify(inst, codes.fold(spec, w)) for w in words], dtype=bool)


def test_extreme_biases():
    spec = toy()
    assert not instances.sample_instance(spec, 0, 1).tables.any()
    assert instances.sample_instance(spec, 1, 1).tables.all()


def test_bias_concentration():
    spec = codes.preset(2)  # 3 x 2^20 table bits
    inst = instances.sample_instance(spec, Fraction(1, 64), 9)
    nbits = inst.tables.size
    p = 1 / 64
    sigma = math.sqrt(nbits * p * (1 - p))
    assert abs(int(inst.tables.sum()) - nbits * p) <= 3 * sigma


def test_sample_instance_reads_p_as_the_cli_does(tmp_path, capsys):
    # 0.1 is 1/10, as the CLI's --p 0.1 reads it, not its binary value
    # 3602879701896397/2^55, which draws other tables
    from nullcode.cli import main

    path = tmp_path / "inst.json"
    assert main(["instance", "gen", "--toy", "--p", "0.1", "--seed", "3", "--out", str(path)]) == 0
    written = instances.instance_from_json(json.loads(path.read_text()))
    for p in (0.1, np.float64(0.1), "0.1"):
        inst = instances.sample_instance(configs.toy_selfdual_spec(), p, 3)
        assert inst.p == written.p == Fraction(1, 10)
        assert np.array_equal(inst.tables, written.tables)


def test_seed_determinism_bytes():
    spec = toy()
    a = instances.instance_to_json(instances.sample_instance(spec, Fraction(1, 4), 3))
    b = instances.instance_to_json(instances.sample_instance(spec, Fraction(1, 4), 3))
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_and_block_bias_monte_carlo():
    # AND of b fresh uniform bits is 1 with probability 2^-b
    rng = np.random.default_rng(0)
    b = 6
    blocks = rng.integers(0, 2, size=(200000, b))
    hits = blocks.min(axis=1).mean()
    p = 2.0**-b
    se = math.sqrt(p * (1 - p) / 200000)
    assert abs(hits - p) <= 3 * se


def test_unfolded_sampling_gives_biased_tables():
    spec = codes.preset(2)
    inst = instances.sample_unfolded_instance(spec, 6, 4)
    assert inst.p == Fraction(1, 64)
    nbits = inst.tables.size
    p = 1 / 64
    sigma = math.sqrt(nbits * p * (1 - p))
    assert abs(int(inst.tables.sum()) - nbits * p) <= 3 * sigma


def test_verify_and_brute_solve_examples():
    spec = toy()
    base = instances.sample_instance(spec, Fraction(1, 4), 0)
    tables = np.ones((2, 4), dtype=np.uint8)
    tables[0, 1] = 0
    tables[1, 1] = 0
    inst = instances.with_tables(base, tables)
    sols = instances.brute_solve(inst)
    _assert_rows(spec, sols)
    assert np.array_equal(sols, [[1, 1]])
    assert instances.verify(inst, ((1,), (1,)))
    assert not instances.verify(inst, ((2,), (2,)))
    assert not instances.verify(inst, ((1,), (2,)))  # not a codeword

    zero = instances.with_tables(base, np.zeros((2, 4), np.uint8))
    assert len(instances.brute_solve(zero)) == spec.size
    ones = instances.with_tables(base, np.ones((2, 4), np.uint8))
    assert instances.brute_solve(ones).shape == (0, spec.N)


def test_verify_rejects_malformed_words():
    spec = toy()  # n = 2 over Sigma = F_4
    base = instances.sample_instance(spec, Fraction(1, 4), 0)
    inst = instances.with_tables(base, np.zeros((2, 4), np.uint8))
    assert instances.verify(inst, ((1,), (1,)))
    assert instances.verify(inst, ((np.int64(1),), (np.uint8(1),)))
    for word in (((1,),), ((1,), (1,), (1,)), ((1,), (4,)), ((-1,), (1,)), ((1,), (1, 0))):
        assert not instances.verify(inst, word)
    # digits that are not integers: 1.0 and True would read as the digit 1
    for word in (((1.0,), (1,)), ((True,), (True,)), ((np.True_,), (1,)), ((1,), (2**70,))):
        assert not instances.verify(inst, word)


def test_verify_matches_brute_solve_exhaustively():
    spec = toy()
    base = instances.sample_instance(spec, Fraction(1, 4), 0)
    rng = np.random.default_rng(1)
    for _ in range(20):
        inst = instances.with_tables(
            base, rng.integers(0, 2, size=(2, 4)).astype(np.uint8)
        )
        sols = {codes.fold(spec, row) for row in instances.brute_solve(inst)}
        for word in (codes.fold(spec, r) for r in codes.codeword_matrix(spec)):
            assert instances.verify(inst, word) == (word in sols)


def test_expected_solution_count():
    spec = toy()
    p = Fraction(1, 4)
    expect = float(spec.size * (1 - p) ** spec.n)  # linearity of expectation
    assert expect == spec.size * (1 - 1 / 4) ** spec.n
    counts = []
    for seed in range(1000):
        inst = instances.sample_instance(spec, p, seed)
        counts.append(len(instances.brute_solve(inst)))
    counts = np.array(counts, dtype=float)
    se = counts.std(ddof=1) / math.sqrt(len(counts))
    assert abs(counts.mean() - expect) <= 3 * se


def test_brute_solve_jobs_invariant():
    spec = toy()
    inst = instances.sample_instance(spec, Fraction(1, 4), 17)
    assert np.array_equal(instances.brute_solve(inst), instances.brute_solve(inst, jobs=3))


def _assert_rows(spec, sols):
    """The brute_solve contract: an (S, N) int64 array of unfolded rows."""
    assert isinstance(sols, np.ndarray)
    assert sols.dtype == np.int64
    assert sols.ndim == 2 and sols.shape[1] == spec.N


def _brute_solve_oracle(inst):
    """Fold each solution row by row with codes.fold."""
    ranks = codes.codeword_rank_matrix(inst.spec)
    ok = (inst.tables[np.arange(inst.n), ranks] == 0).all(axis=1)
    mat = codes.codeword_matrix(inst.spec)
    return [codes.fold(inst.spec, mat[idx]) for idx in np.nonzero(ok)[0]]


def _unfolded(spec, words):
    """The (S, N) int64 rows of a list of folded words."""
    return np.array(words, dtype=np.int64).reshape(len(words), spec.N)


BRUTE_SOLVE_SPECS = pytest.mark.parametrize(
    "spec",
    [
        toy(),
        configs.toy_selfdual_spec(),
        codes.preset(2),
        codes.CodeSpec(
            kind="grs-folded", field=codes.preset(2).field, m=5, k=3,
            gamma=codes.preset(2).gamma, v=codes.preset(2).v,
        ),
    ],
    ids=["repetition", "selfdual", "preset2", "grs-k3"],
)
BRUTE_SOLVE_DRAWS = ((0, Fraction(1, 4)), (1, Fraction(1, 2)), (2, Fraction(1, 16)))


@BRUTE_SOLVE_SPECS
def test_brute_solve_matches_per_row_fold(spec):
    for seed, p in BRUTE_SOLVE_DRAWS:
        inst = instances.sample_instance(spec, p, seed)
        want = _unfolded(spec, _brute_solve_oracle(inst))
        for jobs in (1, 3):
            got = instances.brute_solve(inst, jobs=jobs)
            _assert_rows(spec, got)
            assert np.array_equal(got, want)
    shape = (spec.n, spec.sigma_size)
    zero = instances.with_tables(inst, np.zeros(shape, np.uint8))
    assert np.array_equal(instances.brute_solve(zero), _unfolded(spec, _brute_solve_oracle(zero)))
    assert len(instances.brute_solve(zero)) == spec.size
    ones = instances.with_tables(inst, np.ones(shape, np.uint8))
    none = instances.brute_solve(ones)
    _assert_rows(spec, none)
    assert none.shape == (0, spec.N)


@BRUTE_SOLVE_SPECS
def test_brute_solve_rows_are_the_codewords_verify_accepts(spec):
    # differential: the array scan against the paper's rank-based verifier
    for seed, p in BRUTE_SOLVE_DRAWS:
        inst = instances.sample_instance(spec, p, seed)
        got = instances.brute_solve(inst).tolist()
        want = [
            row for row in codes.codeword_matrix(spec).tolist()
            if instances.verify(inst, codes.fold(spec, row))
        ]
        assert len(set(map(tuple, got))) == len(got)
        assert set(map(tuple, got)) == set(map(tuple, want))


@pytest.mark.parametrize("name", ["selfdual", "rep3-s2", "grs4-m1-k1", "grs4-m3-k1"])
def test_solution_mask_matches_a_per_codeword_loop(name):
    spec = SMALL_SPECS[name]()
    ranks = codes.codeword_rank_matrix(spec)
    rng = np.random.default_rng(5)
    # a leading batch axis of tables, as the totality scan passes them
    tables = (rng.random((4, 2, spec.n, spec.sigma_size)) < 0.3).astype(np.uint8)
    want = np.array(
        [
            [all(t[i, r] == 0 for i, r in enumerate(row)) for row in ranks.tolist()]
            for t in tables.reshape(-1, spec.n, spec.sigma_size)
        ]
    ).reshape(4, 2, -1)
    assert want.any() and not want.all()
    assert np.array_equal(instances.solution_mask(tables, ranks), want)
    assert np.array_equal(instances.solution_mask(tables[1, 0], ranks), want[1, 0])
    # brute_solve's row chunks of the column-major table, and a C-ordered copy
    for lo, hi in ((0, 5), (3, ranks.shape[0] - 2), (ranks.shape[0], ranks.shape[0])):
        got = instances.solution_mask(tables, ranks[lo:hi])
        assert np.array_equal(got, want[..., lo:hi])
    c_ranks = np.ascontiguousarray(ranks)
    assert c_ranks.flags.c_contiguous
    assert np.array_equal(instances.solution_mask(tables, c_ranks), want)
    assert np.array_equal(instances.solution_mask(tables, c_ranks[2:9]), want[..., 2:9])


def test_split():
    sp = instances.Split(4, 4)
    assert sp.bits_per_side == 8
    assert np.argwhere(sp.tables(1, 0)).tolist() == [[0, 0]]
    assert np.argwhere(sp.tables(1 << 7, 0)).tolist() == [[1, 3]]
    assert np.argwhere(sp.tables(0, 1)).tolist() == [[2, 0]]
    with pytest.raises(SplitRequiresEvenN):
        instances.Split(3, 4)
    assert issubclass(SplitRequiresEvenN, ValueError)  # a usage error on the command line


def _flat_index_layout(split, x, y):
    """Per-bit oracle of the flat layout: table entry (i, e), i counted
    from 1, is bit (i - 1 - offset) * |Sigma| + e of Alice's input when
    i <= n/2 (offset 0) and of Bob's otherwise (offset n/2).  Returns the
    tables of inputs (x, y) and the map (owner, bit) -> (i - 1, e)."""
    tables = np.zeros((split.n, split.sigma_size), dtype=np.uint8)
    cells = {}
    for i in range(1, split.n + 1):
        owner, offset, value = ("A", 0, x) if i <= split.n // 2 else ("B", split.n // 2, y)
        for e in range(split.sigma_size):
            flat = (i - 1 - offset) * split.sigma_size + e
            tables[i - 1, e] = (value >> flat) & 1
            cells[(owner, flat)] = (i - 1, e)
    return tables, cells


@pytest.mark.parametrize(
    "n, sigma", [(2, 4), (4, 2), (2, 64), (6, 32)], ids=["4bit", "4bit-n4", "64bit", "96bit"]
)
def test_split_matches_flat_index_layout(n, sigma):
    split = instances.Split(n, sigma)
    bits = split.bits_per_side
    rng = np.random.default_rng(n * sigma)
    full = (1 << bits) - 1
    pairs = [(0, full), (full, 1 << (bits - 1))] + [
        tuple(int.from_bytes(rng.bytes((bits + 7) // 8), "little") & full for _ in range(2))
        for _ in range(20)
    ]
    for x, y in pairs:
        tables, cells = _flat_index_layout(split, x, y)
        assert np.array_equal(split.tables(x, y), tables)
        assert split.inputs(tables) == (x, y)
    assert len(cells) == 2 * bits
    for (owner, bit), cell in cells.items():
        one_hot = split.tables(*(1 << bit if side == owner else 0 for side in "AB"))
        assert np.argwhere(one_hot).tolist() == [list(cell)]


def test_file_roundtrip_with_unfolded():
    spec = toy()
    inst = instances.sample_unfolded_instance(spec, 2, 8)
    text = json.dumps(instances.instance_to_json(inst), sort_keys=True)
    back = instances.instance_from_json(json.loads(text))
    assert np.array_equal(back.tables, inst.tables)
    assert back.spec == inst.spec and back.p == inst.p and back.seed == inst.seed


@pytest.mark.parametrize("version", [1.0, True, None])
def test_file_format_other_than_the_current_one_is_rejected(version):
    data = instances.instance_to_json(instances.sample_instance(toy(), Fraction(1, 4), 0))
    assert data["format"] == instances.FORMAT_VERSION
    data["format"] = version
    with pytest.raises(ParseError, match="instance:format:"):
        instances.instance_from_json(data)


def test_table_budget():
    spec = codes.preset(3)  # |Sigma| = 64^9 is far over any table budget
    with pytest.raises(BudgetExceeded):
        instances.sample_instance(spec, Fraction(1, 64), 0)


@pytest.mark.parametrize("name", SMALL_SPECS)
def test_verify_flat_equals_verify_on_every_flat_rank(name):
    spec = SMALL_SPECS[name]()
    flats = np.arange(spec.sigma_size**spec.n)
    base = instances.sample_instance(spec, Fraction(1, 4), 0)
    cases = [instances.with_tables(base, np.zeros_like(base.tables))]
    cases += [instances.sample_instance(spec, p, seed) for p in (Fraction(1, 4), Fraction(1, 2)) for seed in range(3)]
    for inst in cases:
        got = instances.verify_flat(inst, flats)
        assert got.dtype == bool and got.shape == flats.shape
        assert np.array_equal(got, verify_each(inst, flats))
    # the all-zero tables accept exactly the codewords
    assert instances.verify_flat(cases[0], flats).sum() == spec.size


def test_verify_flat_rejects_ranks_outside_sigma_n():
    spec = configs.toy_selfdual_spec()
    inst = instances.with_tables(
        instances.sample_instance(spec, Fraction(1, 4), 0),
        np.zeros((spec.n, spec.sigma_size), dtype=np.uint8),
    )
    total = spec.sigma_size**spec.n
    # the codewords 0 and all-ones (total - 1), and their aliases modulo
    # |Sigma|^n, which are not words at all
    flats = np.array([0, -total, total, 2 * total, -1, total - 1])
    got = instances.verify_flat(inst, flats)
    assert got.tolist() == [True, False, False, False, False, True]


@pytest.mark.parametrize(
    "spec",
    [
        grs4(1, 2),
        codes.CodeSpec(kind="generic-linear", field=FieldCtx(1), m=1, genmat=((1, 0), (0, 1))),
    ],
    ids=["grs4-m1-k2", "generic-identity"],
)
def test_a_code_of_dimension_n_holds_every_word(spec):
    # such a code has no dual code, and no parity check to fail
    assert spec.dim == spec.N
    base = instances.sample_instance(spec, Fraction(1, 4), 0)
    inst = instances.with_tables(base, np.zeros_like(base.tables))
    flats = np.arange(spec.sigma_size**spec.n)
    assert instances.verify_flat(inst, flats).all()
    assert verify_each(inst, flats).all()
