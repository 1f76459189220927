"""Batch experiment driver.

Raw results go to JSON-lines files, summaries to CSV; every run is
deterministic given --seed.  Exit codes: 0 success, 1 assertion/check
failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import glob as glob_mod
import json
import math
import sys
from fractions import Fraction

import numpy as np

from . import codes, configs, hashing, instances, proto, qsim, tbnc
from .codes import CodeSpec, DecoderParams
from .errors import (
    EmptySupport,
    LengthMismatch,
    NullcodeError,
    ParseError,
    RetriesExhausted,
    UsageError,
)
from .gf import FieldCtx


def _read_json(path, parse, what: str):
    """parse(the JSON content of path); a file that cannot be read or
    parsed is a usage error naming the path."""
    # OSError: unreadable; ValueError: bad JSON or field values; ParseError:
    # a malformed code field; LengthMismatch: fields whose shapes disagree;
    # KeyError, TypeError, AttributeError: a missing field or a value of the
    # wrong type
    try:
        with open(path) as fh:
            return parse(json.load(fh))
    except (
        OSError, ValueError, ParseError, LengthMismatch, KeyError, TypeError, AttributeError
    ) as exc:
        raise UsageError(f"{path}: bad {what} ({exc!r})") from None


def _load_spec(args) -> CodeSpec:
    if args.toy:
        return configs.toy_selfdual_spec()
    if args.t is not None:
        return codes.preset(args.t)
    if args.config:
        return _read_json(
            args.config, lambda data: CodeSpec.from_json(data.get("code", data)), "code config"
        )
    raise UsageError("one of --t, --config, or --toy is required")


def _parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise UsageError(f"{text!r} is not a fraction") from None


def _n_bits(text: str) -> int:
    """A --n-bits value: a positive integer."""
    if not text.isdigit() or int(text) < 1:
        raise UsageError(f"--n-bits {text} is not a positive integer")
    return int(text)


def _gamma(text: str) -> float:
    """A --gamma value: a finite positive number."""
    try:
        gamma = float(text)
    except ValueError:
        raise UsageError(f"--gamma {text!r} is not a number") from None
    if not (math.isfinite(gamma) and gamma > 0):
        raise UsageError(f"--gamma {text} is not a finite positive number")
    return gamma


def _write_json(path, payload) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True)
        fh.write("\n")


def _write_or_print(path, payload) -> None:
    """Write payload to path and say so, or print it when path is None."""
    if path:
        _write_json(path, payload)
        print(f"wrote {path}")
    else:
        print(json.dumps(payload, sort_keys=True))


def _write_jsonl(path, records) -> None:
    with open(path, "w") as fh:
        for rec in records:
            fh.write(json.dumps(rec, sort_keys=True))
            fh.write("\n")


def _emit(records, out) -> None:
    if out:
        _write_jsonl(out, records)
    else:
        for rec in records:
            print(json.dumps(rec, sort_keys=True))


# -- code subcommands ------------------------------------------------------------


def cmd_code_preset(args) -> int:
    spec = codes.preset(args.t)
    print(
        f"n={spec.n} q={spec.field.q} N={spec.N} m={spec.m} k={spec.k} "
        f"|C|={spec.size}"
    )
    if args.out:
        _write_json(args.out, spec.to_json())
    return 0


def cmd_code_dual(args) -> int:
    spec = _load_spec(args)
    d = codes.dual(spec)
    print(json.dumps(d.to_json(), sort_keys=True))
    if args.out:
        _write_json(args.out, d.to_json())
    return 0


def cmd_code_decode(args) -> int:
    spec = _load_spec(args)
    params = DecoderParams.for_spec(spec, _parse_fraction(args.p))
    rng = np.random.default_rng(args.seed)
    dual_spec = codes.dual(spec)
    records = []
    failures = 0
    for trial in range(args.trials):
        msg = [int(rng.integers(spec.field.q)) for _ in range(dual_spec.dim)]
        x = codes.encode(dual_spec, msg)
        xu = codes.unfold(dual_spec, x)
        err = np.zeros(spec.N, dtype=np.int64)
        weight = int(rng.integers(params.radius_unfolded + 1))
        pos = rng.choice(spec.N, size=weight, replace=False)
        for pidx in pos:
            err[pidx] = int(rng.integers(1, spec.field.q))
        z = codes.fold(spec, (xu ^ err).tolist())
        got = codes.dual_decode(spec, params, z)
        ok = got == x
        failures += not ok
        records.append({"trial": trial, "weight": weight, "decoded": bool(ok)})
    _emit(records, args.out)
    print(f"decode: {args.trials - failures}/{args.trials} ok")
    return 1 if failures else 0


def cmd_code_listrec(args) -> int:
    spec = _load_spec(args)
    if not 0 <= args.ell <= spec.sigma_size:
        raise UsageError(
            f"--ell {args.ell} is outside [0, |Sigma| = {spec.sigma_size}]"
        )
    if not 0 < args.zeta <= 1:
        raise UsageError(f"--zeta {args.zeta} is outside (0, 1]")
    rng = np.random.default_rng(args.seed)
    records = []
    for trial in range(args.trials):
        S = [
            set(
                int(x)
                for x in rng.choice(spec.sigma_size, size=args.ell, replace=False)
            )
            for _ in range(spec.n)
        ]
        count = codes.list_recover_count(spec, S, args.zeta)
        records.append({"trial": trial, "count": count})
    _emit(records, args.out)
    return 0


def cmd_code_lrcheck(args) -> int:
    out = codes.lr_param_check(
        args.N, args.m, args.k, args.ell, args.s, args.r, args.zeta, args.q
    )
    print(json.dumps(out, sort_keys=True))
    return 0 if out["ineq1"] and out["ineq2"] else 1


# -- instance subcommands -----------------------------------------------------------


def cmd_instance_gen(args) -> int:
    spec = _load_spec(args)
    inst = instances.sample_instance(spec, _parse_fraction(args.p), args.seed)
    _write_or_print(args.out, instances.instance_to_json(inst))
    return 0


def cmd_instance_verify(args) -> int:
    inst = _read_json(args.infile, instances.instance_from_json, "instance")
    word = _parse_word(inst.spec, args.x)
    ok = instances.verify(inst, word)
    print("valid" if ok else "invalid")
    return 0 if ok else 1


def cmd_instance_solve(args) -> int:
    inst = _read_json(args.infile, instances.instance_from_json, "instance")
    sols = instances.brute_solve(inst, jobs=args.jobs)
    records = [{"solution": [list(sym) for sym in s]} for s in sols]
    _emit(records, args.out)
    print(f"{len(sols)} solutions")
    return 0


def _parse_word(spec: CodeSpec, text: str):
    try:
        ranks = [int(tok) for tok in text.replace(",", " ").split()]
    except ValueError:
        raise UsageError(f"{text!r} is not a list of symbol ranks") from None
    if len(ranks) != spec.n:
        raise UsageError(f"expected {spec.n} symbol ranks")
    if any(not 0 <= r < spec.sigma_size for r in ranks):
        raise UsageError(f"{text!r}: a symbol rank lies outside [0, {spec.sigma_size})")
    return tuple(spec.rank_symbol(r) for r in ranks)


# -- qsim subcommands ------------------------------------------------------------


def cmd_qsim_qft(args) -> int:
    ctx = FieldCtx(args.s)
    mat = qsim.qft_matrix(ctx)
    residual = float(np.abs(mat @ mat.T - np.eye(ctx.q)).max())
    print(f"q={ctx.q} unitarity residual {residual:.2e}")
    return 0 if residual <= 1e-12 else 1


def _trial_records(args) -> list[dict]:
    """Sample instances from --seed on until --trials runs of
    qsim.run_smp_protocol complete, with one record per instance; an
    instance with an empty table support is recorded as skipped."""
    spec = _load_spec(args)
    p = _parse_fraction(args.p)
    params = DecoderParams.for_spec(spec, p)
    keys = ("epsilon", "delta", "l2_distance", "success_probability")
    records = []
    seed = args.seed
    produced = 0
    while produced < args.trials:
        inst = instances.sample_instance(spec, p, seed)
        try:
            out = qsim.run_smp_protocol(spec, inst, params)
        except EmptySupport as exc:
            records.append({"seed": seed, "skipped": str(exc), **dict.fromkeys(keys)})
        else:
            produced += 1
            records.append({"seed": seed, "skipped": None, **{k: out[k] for k in keys}})
        seed += 1
    return records


def cmd_qsim_lemma51(args) -> int:
    # add_decode_pipeline raises when a run leaves the distance bound
    records = _trial_records(args)
    _emit(records, args.out)
    done = sum(rec["skipped"] is None for rec in records)
    print(f"lemma51: {done}/{done} within bound")
    return 0


def cmd_qsim_alg1(args) -> int:
    _emit(_trial_records(args), args.out)
    return 0


def cmd_qsim_claim66(args) -> int:
    ctx = FieldCtx(1)
    if args.sigma < 1 or args.sigma & (args.sigma - 1):
        raise UsageError("--sigma must be a power of two")
    m = args.sigma.bit_length() - 1
    stats = qsim.table_fourier_stats(
        ctx, m, _parse_fraction(args.p), trials=args.trials, seed=args.seed
    )
    printable = {k: v for k, v in stats.items() if not k.endswith("_exact")}
    print(json.dumps(printable, sort_keys=True))
    if args.out:
        _write_jsonl(args.out, [printable])
    return 0


# -- proto subcommands -------------------------------------------------------------


def cmd_proto_drp(args) -> int:
    from .density import (
        density_restoring_partition,
        expected_codimension,
        min_entropy,
        validate_partition,
    )

    rng = np.random.default_rng(args.seed)
    records = []
    for trial in range(args.trials):
        universe = 1 << args.n_bits
        size = int(rng.integers(2, universe + 1))
        X = rng.choice(universe, size=size, replace=False)
        parts = density_restoring_partition(X, args.gamma, tuple(range(args.n_bits)))
        validate_partition(X, parts, args.gamma, tuple(range(args.n_bits)))
        records.append(
            {
                "trial": trial,
                "set_size": size,
                "parts": len(parts),
                "expected_codim": expected_codimension(parts),
                "gap_reference": args.n_bits - min_entropy(X, tuple(range(args.n_bits))),
            }
        )
    _emit(records, args.out)
    return 0


def cmd_proto_transform(args) -> int:
    rng = np.random.default_rng(args.seed)
    records = []
    failures = 0
    for trial in range(args.trials):
        tree = proto.random_onebit_tree(
            rng, args.n_bits, args.n_bits, args.depth, labels=list(range(4))
        )
        out = proto.subcube_like_transform(tree, args.gamma)
        nodes = proto.validate_subcube_like(out, args.gamma)
        pairs = [
            (int(rng.integers(1 << args.n_bits)), int(rng.integers(1 << args.n_bits)))
            for _ in range(args.pairs)
        ]
        same = proto.outputs_agree(tree, out, pairs)
        failures += not same
        stats = proto.transcript_stats(out)
        records.append(
            {
                "trial": trial,
                "nodes": nodes,
                "outputs_match": bool(same),
                "entropy": stats["entropy"],
                "cost": out.cost(),
                "orig_cost": tree.cost(),
            }
        )
    _emit(records, args.out)
    return 1 if failures else 0


def cmd_proto_cleanup(args) -> int:
    rng = np.random.default_rng(args.seed)
    records = []
    failures = 0
    for trial in range(args.trials):
        labels = list(range(3))
        tree = proto.random_onebit_tree(
            rng, args.n_bits, args.n_bits, args.depth, labels=labels
        )
        valid_a = lambda label, x: (x >> (label % args.n_bits)) & 1 == 0
        valid_b = lambda label, y: (y >> (label % args.n_bits)) & 1 == 0
        err = proto.measure_error(tree, valid_a, valid_b)
        cleaned = proto.cleanup(tree, err, valid_a, valid_b)
        ok = proto.never_wrong(cleaned, valid_a, valid_b)
        bot = proto.bottom_probability(cleaned)
        failures += not (ok and bot <= 2 * err + 1e-12)
        records.append({"trial": trial, "error": err, "bot": bot, "sound": bool(ok)})
    _emit(records, args.out)
    return 1 if failures else 0


def cmd_proto_run(args) -> int:
    rng = np.random.default_rng(args.seed)
    tree = proto.random_onebit_tree(
        rng, args.n_bits, args.n_bits, args.depth, labels=list(range(4))
    )
    stats = proto.transcript_stats(tree)
    print(json.dumps(stats, sort_keys=True))
    return 0


def cmd_proto_danger(args) -> int:
    spec = configs.toy_repetition_spec(n=args.n, s=args.s)
    insts = [
        instances.sample_instance(spec, _parse_fraction(args.p), args.seed + i)
        for i in range(args.trials)
    ]
    tree = proto.reveal_solution_tree(spec)
    out = proto.danger_track(tree, spec, insts)
    if args.out:
        rows = [("seed", "cost", "output", "correct")]
        for inst, ledger in zip(insts, out["ledgers"]):
            label = ledger.output
            correct = label is not proto.BOT and instances.verify(inst, label)
            rows.append(
                (
                    str(inst.seed),
                    str(len(ledger.transcript)),
                    "bot" if label is proto.BOT else str(label),
                    str(bool(correct)).lower(),
                )
            )
        with open(args.out, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
    print(
        json.dumps(
            {
                "runs": len(out["ledgers"]),
                "danger_events": out["danger_events"],
                "danger_to_solution_rate": out["danger_to_solution_rate"],
            },
            sort_keys=True,
        )
    )
    return 0


# -- hash subcommands ------------------------------------------------------------


def cmd_hash_check(args) -> int:
    family = hashing.HashFamily(
        key_field=FieldCtx(args.r),
        lam=args.lam,
        n=args.n,
        sigma_size=args.sigma,
    )
    pts = []
    j = 0
    while len(pts) < args.lam:
        pts.append((j % args.sigma, (j // args.sigma) % args.n + 1))
        j += 1
    ok = hashing.independence_check(family, pts)
    print("independent" if ok else "NOT independent")
    return 0 if ok else 1


def cmd_hash_attack(args) -> int:
    spec = configs.toy_repetition_spec(n=args.n, s=args.s)
    family = configs.toy_family(spec)
    failures = 0
    records = []
    for trial in range(args.trials):
        tb = tbnc.make_tbnc(spec, family, 1, args.seed + trial)
        key = hashing.attack_solve(family, spec, tb.copies[0])
        if key is None:
            failures += 1
            records.append({"trial": trial, "solved": False, "verified": False})
            continue
        word = codes.fold(spec, codes.codeword_matrix(spec)[1])
        ok = tbnc.tbnc_verify(tb, key, [word])
        failures += not ok
        records.append({"trial": trial, "solved": True, "verified": bool(ok)})
    _emit(records, args.out)
    print(f"attack: {args.trials - failures}/{args.trials} verified")
    return 1 if failures else 0


# -- tbnc subcommands ------------------------------------------------------------


def cmd_tbnc_gen(args) -> int:
    spec = configs.toy_repetition_spec(n=args.n, s=args.s)
    family = configs.toy_family(spec)
    tb = tbnc.make_tbnc(spec, family, args.t, args.seed)
    payload = {
        "t": tb.t,
        "family": family.to_json(),
        "code": spec.to_json(),
        "copies": [instances.instance_to_json(c) for c in tb.copies],
    }
    _write_or_print(args.out, payload)
    return 0


def _tbnc_from_json(payload) -> tbnc.TbncInstance:
    return tbnc.TbncInstance(
        t=payload["t"],
        spec=CodeSpec.from_json(payload["code"]),
        family=hashing.HashFamily.from_json(payload["family"]),
        copies=tuple(instances.instance_from_json(c) for c in payload["copies"]),
    )


def cmd_tbnc_verify(args) -> int:
    tb = _read_json(args.infile, _tbnc_from_json, "total-problem instance")
    try:
        key = hashing.HashKey(tuple(int(c) for c in args.key.split(",")))
    except ValueError:
        raise UsageError(f"--key {args.key!r} is not a list of integers") from None
    q = tb.family.key_field.q
    if len(key.coeffs) != tb.family.lam or any(not 0 <= c < q for c in key.coeffs):
        raise UsageError(f"--key {args.key!r} is not {tb.family.lam} coefficients in [0, {q})")
    sols = [_parse_word(tb.spec, chunk) for chunk in args.solutions.split(";")]
    ok = tbnc.tbnc_verify(tb, key, sols)
    print("valid" if ok else "invalid")
    return 0 if ok else 1


def cmd_tbnc_alg2(args) -> int:
    spec = configs.toy_selfdual_spec()
    family = configs.toy_family(spec)
    params = DecoderParams.for_spec(spec, Fraction(1, 64))
    records = []
    successes = 0
    for trial in range(args.trials):
        tb = tbnc.make_tbnc(spec, family, args.t, args.seed + trial)
        try:
            out = tbnc.run_keyed_smp(tb, params, seed=args.seed + trial)
        except (EmptySupport, RetriesExhausted) as exc:
            records.append(
                {"trial": trial, "skipped": str(exc), "success": False, "retries": None}
            )
            continue
        successes += out["success"]
        records.append(
            {
                "trial": trial,
                "skipped": None,
                "success": bool(out["success"]),
                "retries": out["retries"],
            }
        )
    _emit(records, args.out)
    print(f"alg2: {successes}/{args.trials} succeeded")
    return 0


def cmd_tbnc_totality(args) -> int:
    spec = configs.toy_repetition_spec(n=args.n, s=args.s)
    family = configs.toy_family(spec, lam=args.lam)
    out = tbnc.totality_scan(
        spec, family, args.t, args.samples, args.keys, args.seed
    )
    print(json.dumps(out, sort_keys=True))
    if args.out:
        _write_jsonl(args.out, [out])
    return 0


# -- report ---------------------------------------------------------------------


def cmd_report(args) -> int:
    paths = sorted(glob_mod.glob(args.glob))
    rows = []
    for path in paths:
        schema = None
        with open(path) as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    rec = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise ParseError(path, lineno, str(exc)) from exc
                if not isinstance(rec, dict):
                    raise ParseError(path, lineno, "record is not an object")
                if schema is None:
                    schema = set(rec)
                elif set(rec) != schema:
                    raise ParseError(path, lineno, "record schema changed mid-file")
                rows.append((path, rec))
    summary = {}
    for path, rec in rows:
        for key, val in rec.items():
            if isinstance(val, bool):
                val = float(val)
            if isinstance(val, (int, float)):
                summary.setdefault((path, key), []).append(float(val))
    lines = [("file", "field", "count", "mean", "std")]
    for (path, key), vals in sorted(summary.items()):
        arr = np.array(vals)
        lines.append(
            (path, key, str(len(vals)), f"{arr.mean():.6g}", f"{arr.std():.6g}")
        )
    if args.out:
        with open(args.out, "w", newline="") as fh:
            csv.writer(fh).writerows(lines)
        print(f"wrote {args.out}")
    else:
        for row in lines:
            print(",".join(row))
    return 0


# -- wiring ----------------------------------------------------------------------


def _add_code_source(p):
    """--t, --config and --toy: the code that _load_spec builds."""
    p.add_argument("--t", type=int)
    p.add_argument("--config")
    p.add_argument("--toy", action="store_true")


def _add_common(p, trials=100):
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=trials)
    p.add_argument("--out", default=None)


class _Parser(argparse.ArgumentParser):
    """Reads no flag abbreviations, and a subcommand reports a flag it does
    not know with its own usage line."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        if extras and self.get_default("fn") is not None:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return namespace, extras


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="nullcode")
    sub = ap.add_subparsers(dest="group", required=True)

    code = sub.add_parser("code").add_subparsers(dest="cmd", required=True)
    p = code.add_parser("preset")
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_code_preset)
    p = code.add_parser("dual")
    _add_code_source(p)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_code_dual)
    p = code.add_parser("decode")
    _add_code_source(p)
    p.add_argument("--p", default="1/64")
    _add_common(p)
    p.set_defaults(fn=cmd_code_decode)
    p = code.add_parser("listrec")
    _add_code_source(p)
    p.add_argument("--zeta", type=float, default=0.4)
    p.add_argument("--ell", type=int, default=1)
    _add_common(p, trials=10)
    p.set_defaults(fn=cmd_code_listrec)
    p = code.add_parser("lrcheck")
    for name, typ in (
        ("N", float), ("m", float), ("k", float), ("ell", float),
        ("s", float), ("r", float), ("zeta", float), ("q", float),
    ):
        p.add_argument(f"--{name}", type=typ, required=True)
    p.set_defaults(fn=cmd_code_lrcheck)

    inst = sub.add_parser("instance").add_subparsers(dest="cmd", required=True)
    p = inst.add_parser("gen")
    _add_code_source(p)
    p.add_argument("--p", default="1/64")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_instance_gen)
    p = inst.add_parser("verify")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--x", required=True, help="space-separated symbol ranks")
    p.set_defaults(fn=cmd_instance_verify)
    p = inst.add_parser("solve")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_instance_solve)

    qs = sub.add_parser("qsim").add_subparsers(dest="cmd", required=True)
    p = qs.add_parser("qft")
    p.add_argument("--s", type=int, default=2)
    p.set_defaults(fn=cmd_qsim_qft)
    p = qs.add_parser("lemma51")
    _add_code_source(p)
    p.add_argument("--p", default="1/16")
    _add_common(p)
    p.set_defaults(fn=cmd_qsim_lemma51)
    p = qs.add_parser("alg1")
    _add_code_source(p)
    p.add_argument("--p", default="1/16")
    _add_common(p)
    p.set_defaults(fn=cmd_qsim_alg1)
    p = qs.add_parser("claim66")
    p.add_argument("--sigma", type=int, default=4)
    p.add_argument("--p", default="1/4")
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_qsim_claim66)

    pr = sub.add_parser("proto").add_subparsers(dest="cmd", required=True)
    p = pr.add_parser("drp")
    p.add_argument("--n-bits", type=_n_bits, default=12)
    p.add_argument("--gamma", type=_gamma, default=0.8)
    _add_common(p, trials=50)
    p.set_defaults(fn=cmd_proto_drp)
    p = pr.add_parser("transform")
    p.add_argument("--n-bits", type=_n_bits, default=10)
    p.add_argument("--depth", type=int, default=6)
    p.add_argument("--gamma", type=_gamma, default=0.8)
    p.add_argument("--pairs", type=int, default=1000)
    _add_common(p, trials=20)
    p.set_defaults(fn=cmd_proto_transform)
    p = pr.add_parser("cleanup")
    p.add_argument("--n-bits", type=_n_bits, default=6)
    p.add_argument("--depth", type=int, default=4)
    _add_common(p, trials=20)
    p.set_defaults(fn=cmd_proto_cleanup)
    p = pr.add_parser("run")
    p.add_argument("--n-bits", type=_n_bits, default=8)
    p.add_argument("--depth", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_proto_run)
    p = pr.add_parser("danger")
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--s", type=int, default=2)
    p.add_argument("--p", default="1/4")
    _add_common(p, trials=50)
    p.set_defaults(fn=cmd_proto_danger)

    ha = sub.add_parser("hash").add_subparsers(dest="cmd", required=True)
    p = ha.add_parser("check")
    p.add_argument("--lam", type=int, default=2)
    p.add_argument("--r", type=int, default=4)
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--sigma", type=int, default=4)
    p.set_defaults(fn=cmd_hash_check)
    p = ha.add_parser("attack")
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--s", type=int, default=2)
    _add_common(p, trials=20)
    p.set_defaults(fn=cmd_hash_attack)

    tb = sub.add_parser("tbnc").add_subparsers(dest="cmd", required=True)
    p = tb.add_parser("gen")
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--s", type=int, default=2)
    p.add_argument("--t", type=int, default=4)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_tbnc_gen)
    p = tb.add_parser("verify")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--key", required=True, help="comma-separated coefficients")
    p.add_argument("--solutions", required=True, help="';'-separated rank words")
    p.set_defaults(fn=cmd_tbnc_verify)
    p = tb.add_parser("alg2")
    p.add_argument("--t", type=int, default=2)
    _add_common(p, trials=20)
    p.set_defaults(fn=cmd_tbnc_alg2)
    p = tb.add_parser("totality")
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--s", type=int, default=2)
    p.add_argument("--t", type=int, default=1)
    p.add_argument("--lam", type=int, default=4)
    p.add_argument("--samples", type=int, default=50)
    p.add_argument("--keys", type=int, default=16)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_tbnc_totality)

    p = sub.add_parser("report")
    p.add_argument("--glob", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_report)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
        return args.fn(args)
    except (UsageError, ValueError) as exc:
        # library functions raise ValueError for parameters out of range
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NullcodeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
