import json

import pytest

from nullcode.cli import main


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


@pytest.mark.parametrize(
    "argv, env",
    [
        (["code", "dual"], None),  # no code given
        (["instance", "verify", "--in", "{inst}", "--x", "1 2 3"], None),
        (["instance", "verify", "--in", "{inst}", "--x", "1 two"], None),
        (["qsim", "claim66", "--sigma", "3"], None),
        (["qsim", "claim66", "--sigma", "0"], None),
        (["qsim", "lemma51", "--toy", "--p", "abc", "--trials", "1"], None),
        (["qsim", "lemma51", "--toy", "--trials", "1"], "lots"),
        (["tbnc", "alg2", "--t", "1", "--trials", "2"], "lots"),
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
    ],
)
def test_usage_errors_exit_2(tmp_path, capsys, monkeypatch, argv, env):
    if env is not None:
        monkeypatch.setenv("NULLCODE_BUDGET", env)
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
    argv = [str(paths.get(a, a)) for a in argv]
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


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
    ],
    ids=["lemma51-jobs", "alg2-n", "alg2-s", "drp-n"],
)
def test_removed_flags_exit_2(argv, capsys):
    # --jobs exists only on instance solve; alg2 always runs the toy code;
    # no flag is read from a prefix (--n is not --n-bits)
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


def test_table_stats_subcommand(capsys):
    assert main(["qsim", "claim66", "--sigma", "4", "--p", "1/4"]) == 0
    rec = json.loads(capsys.readouterr().out)
    assert rec["mean_W0_sq"] == 0.75


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


def test_proto_subcommands(tmp_path, capsys):
    assert main(["proto", "drp", "--n-bits", "8", "--trials", "3", "--seed", "1"]) == 0
    assert (
        main(
            [
                "proto", "transform", "--n-bits", "6", "--depth", "3",
                "--trials", "2", "--pairs", "50", "--seed", "2",
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
                unfolded=np.zeros_like(c.unfolded),
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


def test_result_files_regenerate_bit_identically(tmp_path):
    a = tmp_path / "a.jsonl"
    b = tmp_path / "b.jsonl"
    args = ["qsim", "lemma51", "--toy", "--p", "1/16", "--trials", "2", "--seed", "11"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_env_budget_override(monkeypatch):
    from nullcode import budget

    monkeypatch.setenv("NULLCODE_BUDGET", "16")
    assert budget.amplitude_budget() == 16
    monkeypatch.delenv("NULLCODE_BUDGET")
    assert budget.amplitude_budget() == budget.DEFAULT_AMPLITUDE_BUDGET


@pytest.mark.parametrize("raw", ["lots", "0", "-4", "1.5", ""])
def test_env_budget_rejects_non_positive_integers(monkeypatch, raw):
    from nullcode import budget
    from nullcode.errors import UsageError

    monkeypatch.setenv("NULLCODE_BUDGET", raw)
    with pytest.raises(UsageError, match="NULLCODE_BUDGET"):
        budget.amplitude_budget()
