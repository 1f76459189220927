import argparse
import json
import os
import subprocess
import sys
import time
import warnings
from fractions import Fraction

import pytest

from nullcode import cli
from nullcode.cli import main
from nullcode.errors import UsageError


def test_code_preset_output(capsys):
    assert main(["code", "preset", "--t", "2"]) == 0
    out = capsys.readouterr().out
    assert "n=3" in out and "q=16" in out and "N=15" in out
    assert "m=5" in out and "k=1" in out


def test_instance_gen_deterministic(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    args = ["instance", "gen", "--t", "2", "--p", "1/64", "--seed", "7"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_instance_verify_and_solve(tmp_path, capsys):
    path = tmp_path / "toy.json"
    # a tiny generic code keeps the tables small
    code_path = tmp_path / "code.json"
    code_path.write_text(
        json.dumps(
            {
                "kind": "generic-linear",
                "field": {"s": 2, "modulus": 7},
                "m": 1,
                "genmat": [[1, 1]],
            }
        )
    )
    assert (
        main(
            [
                "instance", "gen", "--config", str(code_path),
                "--p", "0/1", "--seed", "1", "--out", str(path),
            ]
        )
        == 0
    )
    capsys.readouterr()
    assert main(["instance", "verify", "--in", str(path), "--x", "2 2"]) == 0
    assert "valid" in capsys.readouterr().out
    assert main(["instance", "verify", "--in", str(path), "--x", "1 2"]) == 1
    capsys.readouterr()
    assert main(["instance", "solve", "--in", str(path)]) == 0
    assert "4 solutions" in capsys.readouterr().out


def test_qft_subcommand(capsys):
    assert main(["qsim", "qft", "--s", "2"]) == 0


def test_lrcheck_exit_codes():
    ok = [
        "code", "lrcheck", "--N", "63", "--m", "9", "--k", "6",
        "--ell", "0", "--s", "2", "--r", "8", "--zeta", "0.4", "--q", "64",
    ]
    assert main(ok) == 0
    bad = [
        "code", "lrcheck", "--N", "63", "--m", "9", "--k", "6",
        "--ell", str(64**3), "--s", "2", "--r", "8", "--zeta", "0.4", "--q", "64",
    ]
    assert main(bad) == 1


def test_usage_error_exit_2():
    with pytest.raises(SystemExit) as exc:
        main(["code", "preset"])  # missing --t
    assert exc.value.code == 2


def _tiny_instance(tmp_path):
    code_path = tmp_path / "code.json"
    code_path.write_text(
        json.dumps(
            {"kind": "generic-linear", "field": {"s": 2, "modulus": 7}, "m": 1, "genmat": [[1, 1]]}
        )
    )
    path = tmp_path / "inst.json"
    args = ["instance", "gen", "--config", str(code_path), "--p", "0/1", "--out", str(path)]
    assert main(args) == 0
    return path


# code lrcheck's flags of a passing check; argparse keeps the last of a repeated flag
LRCHECK = "--N 63 --m 9 --k 6 --ell 2 --s 2 --r 8 --zeta 0.4 --q 64".split()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["code", "dual"], None),  # no code given
        (["instance", "verify", "--in", "{inst}", "--x", "1 2 3"], None),
        (["instance", "verify", "--in", "{inst}", "--x", "1 two"], None),
        (["qsim", "claim66", "--sigma", "3"], None),
        (["qsim", "claim66", "--sigma", "0"], None),
        (["qsim", "lemma51", "--toy", "--p", "abc", "--trials", "1"], None),
        (
            ["qsim", "lemma51", "--toy", "--p", "1/3", "--trials", "1"],
            "p + epsilon = 0.3433 is not below the dual unique-decoding fraction 0.1250",
        ),
        (
            ["tbnc", "totality", "--s", "0", "--samples", "1"],
            "extension degree must be >= 1, got 0",
        ),
        (["qsim", "lemma51", "--t", "2", "--p", "1/16", "--trials", "1"], None),
        (["code", "decode", "--toy", "--p", "1/4", "--trials", "1"], None),
        (["code", "dual", "--config", "{missing}"], None),
        (["code", "dual", "--config", "{malformed}"], None),
        (["code", "listrec", "--toy", "--ell", "99", "--trials", "1"], None),
        (["code", "listrec", "--toy", "--ell", "-1", "--trials", "1"], None),
        (["code", "listrec", "--toy", "--zeta", "1.5", "--trials", "1"], None),
        (["code", "listrec", "--toy", "--zeta", "0", "--trials", "1"], None),
        (["code", "dual", "--config", "{short_v}"], None),
        (["code", "dual", "--config", "{gamma_1}"], None),
        (["instance", "solve", "--in", "{missing}"], None),
        (["instance", "verify", "--in", "{missing}", "--x", "1 2"], None),
        (["instance", "solve", "--in", "{no_code}"], None),
        (["tbnc", "verify", "--in", "{missing}", "--key", "0", "--solutions", "1 1"], None),
        (["tbnc", "verify", "--in", "{malformed}", "--key", "0", "--solutions", "1 1"], None),
        (["tbnc", "verify", "--in", "{tb}", "--key", "x", "--solutions", "1 1"], None),
        (["instance", "solve", "--in", "{short_tables}"], None),
        (["tbnc", "verify", "--in", "{tb_t2}", "--key", "0", "--solutions", "1 1"], None),
        (["proto", "drp", "--gamma", "nan", "--trials", "1"], None),
        (["proto", "drp", "--gamma", "inf", "--trials", "1"], None),
        (["proto", "drp", "--gamma", "-1", "--trials", "1"], None),
        (["proto", "transform", "--gamma", "nan", "--trials", "1"], None),
        (["proto", "transform", "--gamma", "inf", "--trials", "1"], None),
        (["proto", "transform", "--gamma", "-1", "--trials", "1"], None),
        # ranks and key coefficients outside their alphabets
        (["instance", "verify", "--in", "{inst}", "--x", "4 0"], None),
        (["instance", "verify", "--in", "{inst}", "--x", "-1 0"], None),
        (["tbnc", "verify", "--in", "{tb}", "--key", "0,0,0,0", "--solutions", "7 3"], None),
        (["tbnc", "verify", "--in", "{tb}", "--key", "0,0,0", "--solutions", "1 1"], None),
        (["tbnc", "verify", "--in", "{tb}", "--key", "999,0,0,0", "--solutions", "1 1"], None),
        (["tbnc", "verify", "--in", "{tb}", "--key=-1,0,0,0", "--solutions", "1 1"], None),
        # library parameters out of range
        (["tbnc", "totality", "--keys", "0"], None),
        (["tbnc", "totality", "--samples", "0"], None),
        (["tbnc", "totality", "--t", "0", "--samples", "1"], None),
        (["tbnc", "gen", "--t", "0"], None),
        (["tbnc", "alg2", "--t", "0", "--trials", "1"], None),
        (["proto", "drp", "--n-bits", "0", "--trials", "1"], None),
        (["proto", "transform", "--n-bits", "0", "--trials", "1"], None),
        (["proto", "cleanup", "--n-bits", "0", "--trials", "1"], None),
        (["proto", "run", "--n-bits", "0"], None),
        (["proto", "danger", "--n", "0", "--trials", "1"], None),
        (["hash", "check", "--lam", "0"], None),
        (["hash", "check", "--r", "3"], None),
        (["hash", "check", "--r", "2"], None),  # 2^r is too small for the domain
        (["hash", "check", "--n", "0"], None),
        (["hash", "check", "--sigma", "0"], None),
        (["code", "preset", "--t", "0"], None),
        (["instance", "gen", "--toy", "--p", "3/2"], None),
        (["qsim", "claim66", "--p", "3/2"], None),
        # --lam past the sigma x n distinct points of the domain
        (["hash", "check", "--lam", "9"], None),
        (["hash", "check", "--lam", "5", "--sigma", "2"], None),
        # every --p has a denominator of at most 2^64
        (["qsim", "claim66", "--sigma", "65536", "--p", f"1/{2**64 + 1}"], None),
        (["qsim", "claim66", "--p", f"1/{10**30}"], None),
        (["instance", "gen", "--toy", "--p", f"3/{2**65}"], None),
        (["code", "decode", "--toy", "--p", f"1/{2**64 + 1}", "--trials", "1"], None),
        (["qsim", "lemma51", "--toy", "--p", f"1/{2**64 + 1}", "--trials", "1"], None),
        (["qsim", "alg1", "--toy", "--p", f"1/{2**64 + 1}", "--trials", "1"], None),
        (["proto", "danger", "--p", f"1/{2**64 + 1}", "--trials", "1"], None),
        # negative counts, and input enumerations past the budget
        (["code", "decode", "--toy", "--trials", "-2"], None),
        (["hash", "attack", "--trials", "-1"], None),
        (["tbnc", "alg2", "--t", "1", "--trials", "-1"], None),
        (["qsim", "claim66", "--sigma", "131072"], None),  # |Sigma| is at most 2^16
        (["proto", "transform", "--depth", "-1", "--trials", "1"], None),
        (["proto", "run", "--n-bits", "2", "--depth", "-1"], None),
        (["proto", "cleanup", "--depth", "-1", "--trials", "1"], None),
        (["proto", "drp", "--n-bits", "17", "--trials", "1"], None),
        (["proto", "cleanup", "--n-bits", "17", "--trials", "1"], None),
        (["proto", "run", "--n-bits", "1.5"], None),
        # a field with more than 2^16 elements
        (["code", "dual", "--config", "{s17}"], None),
        # an odd split, lr_param_check outside its domain, --keys past the enumeration budget
        (["proto", "danger", "--n", "3", "--trials", "1"], None),  # a split needs an even n
        (["code", "lrcheck", *LRCHECK, "--k", "0"], None),
        (["code", "lrcheck", *LRCHECK, "--m", "2", "--s", "3"], None),  # m - s + 1 = 0
        (["code", "lrcheck", *LRCHECK, "--m", "0"], None),
        (["code", "lrcheck", *LRCHECK, "--r", "0"], None),
        (["code", "lrcheck", *LRCHECK, "--s", "-1"], None),
        (["tbnc", "totality", "--keys", "65537"], None),
        (["code", "lrcheck", *LRCHECK, "--s", "200", "--q", "1e10"], None),  # q^s overflows a float
        # non-finite lrcheck parameters, and a transform gamma above 1
        (["code", "lrcheck", *LRCHECK, "--zeta", "nan"], "every parameter must be finite"),
        (["code", "lrcheck", *LRCHECK, "--N", "inf"], "every parameter must be finite"),
        (["code", "lrcheck", *LRCHECK, "--q=-inf"], "every parameter must be finite"),
        (
            ["proto", "transform", "--gamma", "1.5", "--trials", "1"],
            "gamma 1.5 exceeds 1: the full domain is not gamma-dense",
        ),
        (
            ["proto", "transform", "--gamma", "1e300", "--n-bits", "4", "--depth", "3"],
            "gamma 1e+300 exceeds 1: the full domain is not gamma-dense",
        ),
        # gamma is read exactly, and its reduced denominator is capped
        (
            ["proto", "transform", "--gamma", "0.0004", "--trials", "1"],
            "--gamma 0.0004 has a reduced denominator above 1000",
        ),
        (["proto", "drp", "--gamma", "0.0004", "--trials", "1"], None),
        # a family whose all-ones hash block does not fit in int64, or is empty
        (
            ["tbnc", "verify", "--in", "{tb_out_bits_0}", "--key", "0,0,0,0", "--solutions", "0 0"],
            None,
        ),
        (
            ["tbnc", "verify", "--in", "{tb_out_bits_64}", "--key", "0,0,0,0", "--solutions", "0 0"],
            None,
        ),
        # integer fields that int() would truncate: out_bits 6.9 read as 6, s 1.5 as 1
        (
            ["tbnc", "verify", "--in", "{tb_out_bits_6.9}", "--key", "0,0,0,0", "--solutions", "0 0"],
            None,
        ),
        (["code", "dual", "--config", "{s_1.5}"], None),
        # a copy count that is not an integer, and a family that does not
        # match the code (its tables would broadcast over the coordinates)
        *(
            (
                ["tbnc", "verify", "--in", f"{{tb_{edit}}}", "--key", "0,0,3,5", "--solutions", "2 2"],
                None,
            )
            for edit in ("t_1.0", "t_true", "family_n_1", "family_sigma_2")
        ),
        # --lam past the n x |Sigma| = 8 points of the totality scan's domain,
        # and copy counts past the enumeration budget
        (["tbnc", "totality", "--lam", "9"], "--lam 9 exceeds the 8 points of the domain"),
        (
            ["tbnc", "totality", "--lam", "100000"],
            "--lam 100000 exceeds the 8 points of the domain",
        ),
        (["tbnc", "totality", "--lam", "0"], None),
        (["tbnc", "gen", "--t", "65537"], "--t 65537 is not an integer in [1, 65536]"),
        (["tbnc", "alg2", "--t", "65537", "--trials", "1"], None),
        (["tbnc", "totality", "--t", "65537"], None),
        # gamma and zeta are read exactly: 0.8001 is 8001/10000, not 4/5
        (
            ["proto", "drp", "--gamma", "0.8001", "--trials", "1"],
            "--gamma 0.8001 has a reduced denominator above 1000",
        ),
        (["code", "listrec", "--toy", "--zeta", "abc", "--trials", "1"], "'abc' is not a fraction"),
        # a decimal exponent is bounded before Fraction builds 10^|exponent|
        (
            ["instance", "gen", "--toy", "--p", "1e1000000000"],
            "--p 1e1000000000 has a decimal exponent above 4300 in magnitude",
        ),
        (
            ["code", "listrec", "--toy", "--zeta", "1E-1_000_000_000", "--trials", "1"],
            "--zeta 1E-1_000_000_000 has a decimal exponent above 4300 in magnitude",
        ),
        # a generator-matrix entry outside F_2 = [0, 2)
        (["code", "dual", "--config", "{genmat_-1}"], None),
        (["code", "dual", "--config", "{genmat_2}"], None),
        # a gamma past the float range is shown as a bound, not as its 401 digits
        (
            ["proto", "transform", "--gamma", "1e400", "--n-bits", "4", "--depth", "3"],
            "gamma above 1.8e+308 exceeds 1: the full domain is not gamma-dense",
        ),
        # a q of at most 0, whose q^s was complex at s = 2.5
        (
            ["code", "lrcheck", *LRCHECK, "--s", "2.5", "--q=-64"],
            "N, m, k, r and q must be positive, ell and s nonnegative",
        ),
    ],
)
def test_usage_errors_exit_2(tmp_path, capsys, argv, message):
    # message, where a row gives one, is the exact error line
    paths = {"{missing}": tmp_path / "missing.json", "{malformed}": tmp_path / "bad.json"}
    paths["{malformed}"].write_text('{"kind": ')
    if "{short_v}" in argv:
        from nullcode import codes

        short_v = codes.preset(2).to_json()
        short_v["v"] = short_v["v"][:-1]
        paths["{short_v}"] = tmp_path / "short_v.json"
        paths["{short_v}"].write_text(json.dumps(short_v))
    if "{gamma_1}" in argv:
        from nullcode import codes

        with pytest.warns(UserWarning, match="degenerate"):
            gamma_1 = codes.preset(1).to_json()
        gamma_1["gamma"] = 1  # order 1, not a generator of F_4^*
        paths["{gamma_1}"] = tmp_path / "gamma_1.json"
        paths["{gamma_1}"].write_text(json.dumps(gamma_1))
    for entry in (-1, 2):
        if f"{{genmat_{entry}}}" in argv:
            from nullcode import configs

            data = configs.toy_selfdual_spec().to_json()
            data["genmat"][1][2] = entry
            paths[f"{{genmat_{entry}}}"] = tmp_path / f"genmat_{entry}.json"
            paths[f"{{genmat_{entry}}}"].write_text(json.dumps(data))
    if "{s17}" in argv:
        from nullcode import codes

        s17 = codes.preset(2).to_json()
        s17["field"] = {"s": 17, "modulus": (1 << 17) | (1 << 3) | 1}  # irreducible
        paths["{s17}"] = tmp_path / "s17.json"
        paths["{s17}"].write_text(json.dumps(s17))
    if "{inst}" in argv:
        paths["{inst}"] = _tiny_instance(tmp_path)
    if "{no_code}" in argv:
        data = json.loads(_tiny_instance(tmp_path).read_text())
        del data["code"]
        paths["{no_code}"] = tmp_path / "no_code.json"
        paths["{no_code}"].write_text(json.dumps(data))
    if "{tb}" in argv:
        paths["{tb}"] = tmp_path / "tb.json"
        assert main(["tbnc", "gen", "--t", "1", "--out", str(paths["{tb}"])]) == 0
    if "{short_tables}" in argv:  # the file parses, its shapes disagree
        paths["{short_tables}"] = tmp_path / "short_tables.json"
        assert main(["instance", "gen", "--toy", "--out", str(paths["{short_tables}"])]) == 0
        data = json.loads(paths["{short_tables}"].read_text())
        del data["tables"][-1]
        paths["{short_tables}"].write_text(json.dumps(data))
    if "{tb_t2}" in argv:
        paths["{tb_t2}"] = tmp_path / "tb_t2.json"
        assert main(["tbnc", "gen", "--t", "1", "--out", str(paths["{tb_t2}"])]) == 0
        data = json.loads(paths["{tb_t2}"].read_text())
        data["t"] = 2
        paths["{tb_t2}"].write_text(json.dumps(data))
    if "{s_1.5}" in argv:
        from nullcode import configs

        s_half = configs.toy_selfdual_spec().to_json()
        s_half["field"]["s"] = 1.5
        paths["{s_1.5}"] = tmp_path / "s_half.json"
        paths["{s_1.5}"].write_text(json.dumps(s_half))
    for edit, (section, field, value) in {
        "t_1.0": (None, "t", 1.0),
        "t_true": (None, "t", True),
        "family_n_1": ("family", "n", 1),
        "family_sigma_2": ("family", "sigma", 2),
    }.items():
        if f"{{tb_{edit}}}" in argv:
            path = paths[f"{{tb_{edit}}}"] = tmp_path / f"tb_{edit}.json"
            assert main(["tbnc", "gen", "--t", "1", "--out", str(path)]) == 0
            data = json.loads(path.read_text())
            (data[section] if section else data)[field] = value
            path.write_text(json.dumps(data))
    for out_bits in (0, 64, 6.9):
        if f"{{tb_out_bits_{out_bits}}}" in argv:
            path = paths[f"{{tb_out_bits_{out_bits}}}"] = tmp_path / f"tb_{out_bits}.json"
            assert main(["tbnc", "gen", "--t", "1", "--out", str(path)]) == 0
            data = json.loads(path.read_text())
            data["family"]["out_bits"] = out_bits
            path.write_text(json.dumps(data))
    argv = [str(paths.get(a, a)) for a in argv]
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message is None or err == f"error: {message}\n"


def test_length_mismatch_outside_parsing_exits_1(tmp_path, capsys):
    # a well-formed file with the wrong number of solutions is a check failure
    path = tmp_path / "tb.json"
    assert main(["tbnc", "gen", "--t", "1", "--out", str(path)]) == 0
    capsys.readouterr()
    argv = ["tbnc", "verify", "--in", str(path), "--key", "0,0,0,0", "--solutions", "1 1;1 1"]
    assert main(argv) == 1
    assert capsys.readouterr().err == "error: need 1 solutions, got 2\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["qsim", "lemma51", "--toy", "--jobs", "2"],
        ["tbnc", "alg2", "--n", "3"],
        ["tbnc", "alg2", "--s", "3"],
        ["proto", "drp", "--n", "5"],
        ["qsim", "claim66", "--trials", "1"],
        ["qsim", "claim66", "--seed", "0"],
        ["instance", "solve", "--in", "a.json", "--jobs", "2"],
        ["proto", "transform", "--pairs", "5"],
        ["proto", "transform", "--pairs", "-3", "--trials", "1"],
    ],
    ids=[
        "lemma51-jobs", "alg2-n", "alg2-s", "drp-n", "claim66-trials", "claim66-seed",
        "instance-solve-jobs", "transform-pairs", "transform-pairs-negative",
    ],
)
def test_removed_flags_exit_2(argv, capsys):
    # no subcommand takes --jobs; alg2 always runs the toy code;
    # no flag is read from a prefix (--n is not --n-bits); claim66 is exact,
    # with nothing to sample; transform checks every input pair
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().err.startswith(f"usage: nullcode {argv[0]} {argv[1]} ")


def test_drp_huge_gamma_matches_gamma_64(capsys):
    # 2^64 exceeds every set of 4-bit values, so 1e300 finds the same parts
    argv = ["proto", "drp", "--trials", "1", "--n-bits", "4", "--gamma"]
    assert main(argv + ["64"]) == 0
    want = capsys.readouterr().out
    assert main(argv + ["1e300"]) == 0
    assert capsys.readouterr().out == want


def test_gamma_reads_a_decimal_and_a_fraction_alike(capsys):
    # --gamma is read like --p: 4/5 and 0.8 are one gamma, the default
    outs = []
    for extra in (["--gamma", "4/5"], ["--gamma", "0.8"], []):
        assert main(["proto", "drp", "--trials", "2", "--n-bits", "5", *extra]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1] == outs[2]


def test_table_stats_subcommand(capsys):
    assert main(["qsim", "claim66", "--sigma", "4", "--p", "1/4"]) == 0
    rec = json.loads(capsys.readouterr().out)
    assert rec["mean_W0_sq"] == 0.75


def _no_nan(name):
    raise AssertionError(f"{name} is not JSON")


@pytest.mark.parametrize(
    "argv, nones",
    [
        # every table all ones: no nonempty table to average over
        (["--p", "1"], {"mean_W0_sq_nonempty"}),
    ],
    ids=["all-empty"],
)
def test_claim66_too_few_samples_print_null(argv, nones, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["qsim", "claim66", *argv]) == 0
    rec = json.loads(capsys.readouterr().out, parse_constant=_no_nan)
    assert {k for k, v in rec.items() if v is None} == nones
    assert rec["empty_mass"] == 1.0 and rec["per_element_mean"] == 0.0


def test_claim66_sigma_one_has_no_nonzero_frequency(capsys):
    assert main(["qsim", "claim66", "--sigma", "1"]) == 0
    assert capsys.readouterr().out == (
        '{"empty_mass": 0.25, "mean_W0_sq": 0.75, "mean_W0_sq_nonempty": 1.0, "mode": "exact", '
        '"p": 0.25, "per_element_mean": null, "sigma": 1}\n'
    )


def test_claim66_largest_sigma_is_exact_and_fast(capsys):
    start = time.perf_counter()
    assert main(["qsim", "claim66", "--sigma", "65536", "--p", "1/4"]) == 0
    assert time.perf_counter() - start < 1
    rec = json.loads(capsys.readouterr().out)
    per_element = float(Fraction(1, 4) * (1 - Fraction(1, 4) ** 65535) / 65535)
    assert rec["per_element_mean"] == per_element
    assert rec["mean_W0_sq"] == 0.75 and rec["mode"] == "exact"


@pytest.mark.parametrize("jobs", ["0", "-3", "100000"])
def test_instance_solve_jobs_out_of_range_exits_2_before_any_scan(
    jobs, tmp_path, capsys, monkeypatch
):
    # instance solve has no --jobs: every value is an unknown flag
    from nullcode import instances, parallel

    def no_pool(*args, **kwargs):
        raise AssertionError("a scan started")

    # brute_solve reads the name it imported, not the parallel module's
    for module in (parallel, instances):
        monkeypatch.setattr(module, "parallel_map", no_pool)
    path = _tiny_instance(tmp_path)
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["instance", "solve", "--in", str(path), "--jobs", jobs])
    assert exc.value.code == 2
    assert capsys.readouterr().err.startswith("usage: nullcode instance solve ")


@pytest.mark.parametrize(
    "text, ok",
    [
        ("1e4300", True),
        ("0e-4300", True),
        ("2.5E+0000000000004300", True),  # leading zeros do not count
        ("1e4_300", True),
        ("1e4301", False),
        ("-1e-4301", False),
        ("1e43000000000000000000000000000000", False),
    ],
)
def test_fraction_exponent_bound(text, ok):
    if ok:
        assert cli._parse_fraction(text, "--p") == Fraction(text)
    else:
        with pytest.raises(UsageError, match=f"^--zeta {text} has a decimal exponent above 4300"):
            cli._parse_fraction(text, "--zeta")


def test_p_denominator_of_2_to_the_64_is_accepted(capsys):
    assert main(["qsim", "claim66", "--sigma", "2", "--p", f"3/{2**65}"]) == 2
    capsys.readouterr()
    assert main(["qsim", "claim66", "--sigma", "2", "--p", f"2/{2**65}"]) == 0
    assert json.loads(capsys.readouterr().out)["p"] == 2.0**-64


def test_hash_check_lambda_2_at_r_12_is_certified_fast(capsys):
    # 24 key bits: 2^24 keys to enumerate, or the rank of a 12 x 24 bit matrix
    start = time.perf_counter()
    assert main(["hash", "check", "--lam", "2", "--r", "12"]) == 0
    assert time.perf_counter() - start < 1
    assert capsys.readouterr().out == "independent\n"


def _malformed(copy: dict, field: str, value):
    """The instance copy with field (a.b for a nested one) set to value;
    a value that is a function of the old one maps it."""
    copy = json.loads(json.dumps(copy))
    owner = copy
    *path, last = field.split(".")
    for key in path:
        owner = owner[key]
    owner[last] = value(owner[last]) if callable(value) else value
    return copy


MALFORMED = [
    ("p", "3/2"),
    ("p", "-1/2"),
    ("p", "1/0"),
    ("p", "1/64/2"),
    ("p", 0.015625),
    ("seed", "7"),
    ("seed", 1.5),
    ("seed", True),
    ("tables", lambda rows: rows[:-1]),
    ("tables", lambda rows: rows + rows[:1]),
    ("tables", lambda rows: [rows[0] + "00"] + rows[1:]),
    ("tables", lambda rows: [rows[0][:-2]] + rows[1:]),
    ("tables", lambda rows: ["zz"] + rows[1:]),
    ("tables", 5),  # not a list of rows
    ("tables", lambda rows: [5] + rows[1:]),  # a row that is not a string
    ("p", 1),
    ("seed", None),
    ("p", "1/" + "1" * 5000),  # past int()'s digit limit
    ("format", None),
    ("format", 2),
    ("format", "1"),
    ("p", "\u0661/\u0664"),  # Arabic-Indic digits: decimal, but not ASCII
]


@pytest.mark.parametrize("command", ["instance verify", "instance solve", "tbnc verify"])
@pytest.mark.parametrize(
    "field, value", MALFORMED, ids=[f"{f}-{i}" for i, (f, _) in enumerate(MALFORMED)]
)
def test_malformed_instance_fields_exit_2(command, field, value, tmp_path, capsys):
    tb_path = tmp_path / "tb.json"
    assert main(["tbnc", "gen", "--t", "1", "--out", str(tb_path)]) == 0
    tb = json.loads(tb_path.read_text())
    bad = _malformed(tb["copies"][0], field, value)
    path = tmp_path / "bad.json"
    if command == "tbnc verify":
        path.write_text(json.dumps({**tb, "copies": [bad]}))
        argv = ["tbnc", "verify", "--in", str(path), "--key", "0,0,0,0", "--solutions", "0 0"]
    else:
        path.write_text(json.dumps(bad))
        argv = [*command.split(), "--in", str(path)] + (["--x", "0 0"] if "verify" in command else [])
    capsys.readouterr()
    assert main(argv) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("error: ") and out.err.count("\n") == 1
    assert f"instance:{field}:" in out.err


def test_proto_danger_over_budget_exits_1_before_anything_is_built(capsys, monkeypatch):
    # 16 bits per side: a reveal tree of 2^32 leaves
    from nullcode import instances

    def no_sample(*args, **kwargs):
        raise AssertionError("an instance was sampled")

    monkeypatch.setattr(instances, "sample_instance", no_sample)
    start = time.perf_counter()
    assert main(["proto", "danger", "--n", "2", "--s", "4", "--trials", "1"]) == 1
    assert time.perf_counter() - start < 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == "error: 4294967296 input pairs exceed budget 65536\n"


def test_report_roundtrip(tmp_path, capsys):
    src = tmp_path / "r.jsonl"
    src.write_text('{"a": 1.0}\n{"a": 3.0}\n')
    out = tmp_path / "summary.csv"
    assert main(["report", "--glob", str(src), "--out", str(out)]) == 0
    body = out.read_text()
    assert "a" in body and "2" in body  # mean of 1 and 3


def test_report_parse_error(tmp_path):
    src = tmp_path / "bad.jsonl"
    src.write_text("not json\n")
    assert main(["report", "--glob", str(src)]) == 1


def test_report_rejects_a_number_past_the_float_range(tmp_path, capsys):
    # 10^400 is past float64; 10^5000 is past int()'s 4300-digit limit
    for big, lineno in (("1" + "0" * 400, 1), ("1" + "0" * 5000, 2)):
        src = tmp_path / "big.jsonl"
        src.write_text('{"x": 1}\n' * (lineno - 1) + f'{{"x": {big}}}\n')
        assert main(["report", "--glob", str(src)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {src}:{lineno}: ")


def test_report_averages_values_near_the_float_maximum(tmp_path, capsys):
    # the sum 2e308 and the square 1e616 are past float64, the mean and std
    # are not; as errors, numpy's overflow warnings fail the command
    cases = (("1e308", "1e308", "1e+308,0"), ("1e308", "-1e308", "0,1e+308"))
    for a, b, summary in cases:
        src = tmp_path / "near.jsonl"
        src.write_text(f'{{"x": {a}}}\n{{"x": {b}}}\n')
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["report", "--glob", str(src)]) == 0
        out = capsys.readouterr()
        assert out.out.splitlines()[-1] == f"{src},x,2,{summary}"
        assert out.err == ""


def test_report_empty_glob(tmp_path, capsys):
    assert main(["report", "--glob", str(tmp_path / "nothing-*.jsonl")]) == 0


def test_pipeline_subcommand(tmp_path):
    out = tmp_path / "l51.jsonl"
    rc = main(
        [
            "qsim", "lemma51", "--toy", "--p", "1/16",
            "--trials", "3", "--seed", "0", "--out", str(out),
        ]
    )
    assert rc == 0
    recs = [json.loads(line) for line in out.read_text().splitlines()]
    done = [r for r in recs if "l2_distance" in r]
    assert len(done) == 3


def test_pipeline_subcommand_over_budget_exits_1(capsys):
    # a budget error does not depend on the seed, so it ends the run
    assert main(["qsim", "lemma51", "--t", "2", "--p", "1/64", "--trials", "1"]) == 1
    assert "over budget" in capsys.readouterr().err


def test_hash_check_subcommand(capsys):
    assert main(["hash", "check", "--lam", "2", "--r", "4"]) == 0
    assert "independent" in capsys.readouterr().out


def test_report_mixed_schema_rejected(tmp_path):
    src = tmp_path / "mixed.jsonl"
    src.write_text('{"a": 1.0}\n{"b": 2.0}\n')
    assert main(["report", "--glob", str(src)]) == 1


def test_pipeline_subcommand_with_config_file(tmp_path):
    import nullcode.configs as configs

    code_path = tmp_path / "toy.json"
    code_path.write_text(json.dumps({"code": configs.toy_selfdual_spec().to_json()}))
    out = tmp_path / "r.jsonl"
    rc = main(
        [
            "qsim", "lemma51", "--config", str(code_path), "--p", "1/16",
            "--trials", "2", "--seed", "3", "--out", str(out),
        ]
    )
    assert rc == 0


def test_one_leaf_transcript_prints_a_positive_zero_entropy(capsys):
    for args in (
        ["proto", "run", "--n-bits", "1", "--depth", "0"],
        ["proto", "transform", "--depth", "0", "--trials", "1", "--n-bits", "2"],
    ):
        assert main(args) == 0
        out = capsys.readouterr().out
        assert '"entropy": 0.0' in out and "-0.0" not in out


def test_proto_subcommands(tmp_path, capsys):
    assert main(["proto", "drp", "--n-bits", "8", "--trials", "3", "--seed", "1"]) == 0
    assert (
        main(
            [
                "proto", "transform", "--n-bits", "6", "--depth", "3",
                "--trials", "2", "--seed", "2",
            ]
        )
        == 0
    )
    assert main(["proto", "cleanup", "--n-bits", "5", "--depth", "3", "--trials", "2"]) == 0
    assert main(["proto", "run", "--n-bits", "6", "--depth", "3"]) == 0
    assert main(["proto", "danger", "--trials", "5"]) == 0


def test_tbnc_subcommands(tmp_path, capsys):
    path = tmp_path / "tb.json"
    assert main(["tbnc", "gen", "--t", "2", "--seed", "4", "--out", str(path)]) == 0
    capsys.readouterr()
    assert main(["tbnc", "alg2", "--t", "1", "--trials", "2", "--seed", "5"]) == 0
    capsys.readouterr()
    assert (
        main(
            [
                "tbnc", "totality", "--samples", "10", "--keys", "4",
                "--seed", "6", "--lam", "4",
            ]
        )
        == 0
    )


def test_tbnc_verify_subcommand(tmp_path, capsys):
    import numpy as np

    from nullcode import configs, instances, tbnc

    spec = configs.toy_repetition_spec(2, 2)
    fam = configs.toy_family(spec)
    copies = []
    for i in range(2):
        c = instances.sample_unfolded_instance(spec, 6, i)
        copies.append(
            instances.OracleInstance(
                spec=spec,
                p=c.p,
                seed=i,
                tables=np.zeros_like(c.tables),
            )
        )
    payload = {
        "t": 2,
        "family": fam.to_json(),
        "code": spec.to_json(),
        "copies": [instances.instance_to_json(c) for c in copies],
    }
    path = tmp_path / "tb.json"
    path.write_text(json.dumps(payload))
    key = ",".join("0" for _ in range(fam.lam))
    assert (
        main(
            [
                "tbnc", "verify", "--in", str(path),
                "--key", key, "--solutions", "2 2;3 3",
            ]
        )
        == 0
    )
    capsys.readouterr()
    assert (
        main(
            [
                "tbnc", "verify", "--in", str(path),
                "--key", key, "--solutions", "2 1;3 3",
            ]
        )
        == 1
    )


def _with_and_blocks(copy: dict) -> dict:
    """An instance file's dict in the older layout, with the "unfolded"
    object beside the tables: per coordinate, the hex of the b uniform
    bits of every symbol, as sample_unfolded_instance draws them from the
    copy's seed, whose AND must be the file's table bit."""
    import numpy as np

    from nullcode import instances
    from nullcode.codes import CodeSpec

    spec = CodeSpec.from_json(copy["code"])
    b = Fraction(copy["p"]).denominator.bit_length() - 1
    rng = np.random.default_rng(np.random.SeedSequence([copy["seed"], 0x0B1A6]))
    blocks = rng.integers(0, 2, size=(spec.n, spec.sigma_size, b)).astype(np.uint8)
    assert np.array_equal(blocks.min(axis=2), instances.instance_from_json(copy).tables)
    rows = [np.packbits(row.reshape(-1), bitorder="little").tobytes().hex() for row in blocks]
    return {**copy, "unfolded": {"b": b, "tables": rows}}


def test_files_with_and_blocks_read_as_without(tmp_path, capsys):
    # files of earlier versions carry an "unfolded" object; it is ignored
    import numpy as np

    from nullcode import configs, instances

    fresh = instances.instance_to_json(
        instances.sample_unfolded_instance(configs.toy_selfdual_spec(), 2, 8)
    )
    tb_path, old_tb_path = tmp_path / "tb.json", tmp_path / "tb_old.json"
    assert main(["tbnc", "gen", "--t", "2", "--seed", "1", "--out", str(tb_path)]) == 0
    tb = json.loads(tb_path.read_text())
    old_tb = {**tb, "copies": [_with_and_blocks(c) for c in tb["copies"]]}
    old_tb_path.write_text(json.dumps(old_tb))
    pairs = [(fresh, _with_and_blocks(fresh)), *zip(tb["copies"], old_tb["copies"])]
    for new, old in pairs:
        assert "unfolded" not in new
        back = instances.instance_from_json(old)
        assert np.array_equal(back.tables, instances.instance_from_json(new).tables)
    # the repetition code's codewords are "a a"; "0 1" is not one
    solutions = [f"{a} {a};{b} {b}" for a in range(4) for b in range(4)] + ["0 1;0 0"]
    verdicts = set()
    for key in ("0,0,0,0", "0,0,3,5"):
        for words in solutions:
            capsys.readouterr()
            runs = []
            for path in (tb_path, old_tb_path):
                code = main(["tbnc", "verify", "--in", str(path), "--key", key, "--solutions", words])
                runs.append((code, capsys.readouterr().out))
            assert runs[0] == runs[1]
            verdicts.add(runs[0][0])
    assert verdicts == {0, 1}


def test_result_files_regenerate_bit_identically(tmp_path):
    a = tmp_path / "a.jsonl"
    b = tmp_path / "b.jsonl"
    args = ["qsim", "lemma51", "--toy", "--p", "1/16", "--trials", "2", "--seed", "11"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()




def test_the_environment_cannot_change_a_run(tmp_path, monkeypatch):
    # no size limit is read from the environment: with the variable that
    # once overrode the amplitude budget set far below the toy's needs, the
    # golden lemma51 run still writes its recorded stdout and file
    from test_golden import _EXPECTED, run_manifest

    argv = ["qsim", "lemma51", "--toy", "--p", "1/16", "--trials", "3", "--out", "runs.jsonl"]
    (expected,) = [rec for rec in _EXPECTED if rec["argv"] == argv]
    monkeypatch.setenv("NULLCODE_BUDGET", "16")
    assert run_manifest([argv], tmp_path) == [expected]


@pytest.mark.parametrize(
    "argv",
    [
        ["code", "dual", "--config", "code_modulus_-3.json"],
        ["instance", "solve", "--in", "instance_modulus_-7.json"],
        ["tbnc", "verify", "--in", "tb_family_modulus_-67.json", "--key", "0,0,0,0", "--solutions", "0,0"],
    ],
    ids=["code-field", "instance-code-field", "tbnc-family"],
)
def test_negative_modulus_exits_2(argv):
    # in a child process: a modulus check that loops fails here on the
    # timeout instead of stalling the suite
    from test_golden import INPUTS

    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    proc = subprocess.run(
        [sys.executable, "-m", "nullcode.cli", *argv],
        cwd=INPUTS,
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=10,
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith(f"error: {argv[3]}: ") and proc.stderr.count("\n") == 1
    assert "does not have degree" in proc.stderr


HUGE = "99999999999999999999"


@pytest.mark.parametrize(
    "argv, message",
    [
        # field degrees far past GF(2^16): 1 << s once raised OverflowError
        (f"code preset --t {HUGE}", "more than 65536 elements"),
        (f"qsim qft --s {HUGE}", "more than 65536 elements"),
        (f"hash check --r {HUGE}", "more than 65536 elements"),
        (f"tbnc gen --s {HUGE}", f"--s {HUGE} is not an integer in [-inf, 16]"),
        # the repetition code's flags one past their bounds, and a huge --n,
        # whose row of n ones was once built before any check
        (f"proto danger --n {HUGE} --trials 1", f"--n {HUGE} is not an integer in [1, 2048]"),
        # a huge --depth can split until both sides are single points, up
        # to 2^20 leaves at 10 + 10 bits, once built in full
        (f"proto transform --depth {HUGE} --trials 1", f"--depth {HUGE}: random tree exceeds 65536 nodes"),
        (f"proto run --n-bits 10 --depth {HUGE}", f"--depth {HUGE}: random tree exceeds 65536 nodes"),
        *(
            (f"{cmd} --{flag} {bound + 1}", f"--{flag} {bound + 1} is not an integer in [{lo}, {bound}]")
            for cmd in ("proto danger --trials 1", "hash attack --trials 1", "tbnc gen", "tbnc totality")
            for flag, lo, bound in (("n", 1, 2048), ("s", "-inf", 16))
        ),
    ],
)
def test_huge_sizes_exit_2_with_one_error_line(argv, message):
    # in a child process, so a size that is built before it is checked
    # fails on the timeout instead of stalling the suite
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    proc = subprocess.run(
        [sys.executable, "-m", "nullcode.cli", *argv.split()],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=10,
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert message in proc.stderr


def _flags(parser, prefix=()):
    """(subcommand as an argv prefix, action) for every flag of every
    subcommand."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from _flags(sub, (*prefix, name))
        else:
            yield " ".join(prefix), action


# the fastest run of each subcommand that takes --out
OUT_RUNS = {
    "code preset": "--t 2",
    "code dual": "--toy",
    "code decode": "--toy --trials 1",
    "code listrec": "--toy --trials 1",
    "instance gen": "--toy",
    "instance solve": "--in {inst}",
    "qsim lemma51": "--toy --trials 1",
    "qsim alg1": "--toy --trials 1",
    "qsim claim66": "",
    "proto drp": "--n-bits 4 --trials 1",
    "proto transform": "--n-bits 4 --depth 2 --trials 1",
    "proto cleanup": "--n-bits 4 --depth 2 --trials 1",
    "proto danger": "--trials 1",
    "hash attack": "--trials 1",
    "tbnc gen": "--t 1",
    "tbnc alg2": "--t 1 --trials 1",
    "tbnc totality": "--samples 2 --keys 1",
    "report": "--glob {runs}",
}


def test_out_runs_cover_every_subcommand_with_out():
    with_out = [cmd for cmd, action in _flags(cli.build_parser()) if "--out" in action.option_strings]
    assert sorted(with_out) == sorted(OUT_RUNS)


@pytest.mark.parametrize("command", OUT_RUNS)
def test_out_into_a_missing_directory_exits_2(command, tmp_path, capsys):
    paths = {"{inst}": str(_tiny_instance(tmp_path)), "{runs}": str(tmp_path / "runs.jsonl")}
    (tmp_path / "runs.jsonl").write_text('{"a": 1.0}\n')
    out = tmp_path / "missing" / "out.txt"
    argv = [*command.split(), *(paths.get(a, a) for a in OUT_RUNS[command].split())]
    capsys.readouterr()
    assert main([*argv, "--out", str(out)]) == 2
    # the file is written before anything is printed
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {out}: cannot write (No such file or directory)\n"


def test_out_naming_a_directory_or_a_glob_matching_one_exits_2(tmp_path, capsys):
    assert main(["qsim", "claim66", "--out", str(tmp_path)]) == 2
    assert capsys.readouterr() == ("", f"error: {tmp_path}: cannot write (Is a directory)\n")
    (tmp_path / "dir.jsonl").mkdir()
    assert main(["report", "--glob", str(tmp_path / "*.jsonl")]) == 2
    assert capsys.readouterr().err == f"error: {tmp_path / 'dir.jsonl'}: cannot read (Is a directory)\n"


# each numeric flag (every flag with an argparse type) with an Arabic-Indic
# 2, then the three lists of integers
NON_ASCII = {
    **{
        f"{cmd} {action.option_strings[0]}": [*cmd.split(), action.option_strings[0], "\u0662"]
        for cmd, action in _flags(cli.build_parser())
        if action.type is not None
    },
    "instance verify --x": ["instance", "verify", "--in", "{inst}", "--x", "\u0660 0"],
    "tbnc verify --key": ["tbnc", "verify", "--in", "{tb}", "--key", "\u0660,0,0,0", "--solutions", "0 0"],
    "tbnc verify --solutions": ["tbnc", "verify", "--in", "{tb}", "--key", "0,0,0,0", "--solutions", "\u0660 0"],
}


@pytest.mark.parametrize("argv", NON_ASCII.values(), ids=NON_ASCII)
def test_non_ascii_digits_exit_2(argv, tmp_path, capsys):
    # int(), float() and Fraction() read '\u0662' as 2; no flag takes it
    paths = {"{tb}": str(tmp_path / "tb.json")}
    if "{inst}" in argv:
        paths["{inst}"] = str(_tiny_instance(tmp_path))
    if "{tb}" in argv:
        assert main(["tbnc", "gen", "--t", "1", "--out", paths["{tb}"]]) == 0
    ((flag, value),) = [(f, v) for f, v in zip(argv, argv[1:]) if not v.isascii()]
    capsys.readouterr()
    assert main([paths.get(a, a) for a in argv]) == 2
    assert capsys.readouterr() == ("", f"error: {flag} {value!r} is not written in ASCII\n")
