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
import re
import sys
from fractions import Fraction
from functools import partial

import numpy as np

from . import codes, configs, density, hashing, instances, proto, qsim, tbnc
from .budget import DEFAULT_ENUM_BUDGET
from .codes import CodeSpec, DecoderParams
from .errors import (
    BudgetExceeded,
    EmptySupport,
    LengthMismatch,
    NullcodeError,
    ParseError,
    RetriesExhausted,
    UsageError,
)
from .gf import FieldCtx, json_int


def _open(path, mode: str = "r"):
    """open(path, mode) with newlines untranslated, the one way the CLI
    opens a file; a path that cannot be opened is a usage error naming it."""
    try:
        return open(path, mode, newline="")
    except OSError as exc:
        verb = "write" if "w" in mode else "read"
        raise UsageError(f"{path}: cannot {verb} ({exc.strerror})") from None


def _read_json(path, parse, what: str):
    """parse(the JSON content of path); a file that cannot be read or
    parsed is a usage error naming the path."""
    # OSError: unreadable; ValueError: bad JSON or field values; ParseError:
    # a malformed code field; LengthMismatch: fields whose shapes disagree;
    # KeyError, TypeError, AttributeError: a missing field or a value of the
    # wrong type
    try:
        with _open(path) as fh:
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


def _repetition_spec(args) -> CodeSpec:
    return configs.toy_repetition_spec(n=args.n, s=args.s)


# The largest decimal exponent magnitude a --p, --zeta or --gamma value may carry:
# Fraction("1e<x>") builds 10^|x|, and CPython caps the digits of an
# integer read from a string at this count.
_MAX_EXPONENT = 4300
_EXPONENT = re.compile(r"e[-+]?([\d_]+)\s*\Z", re.IGNORECASE)


def _ascii(text: str, flag: str) -> str:
    """text, if ASCII: int(), float() and Fraction() also read digits like '\u0663'."""
    if not text.isascii():
        raise UsageError(f"{flag} {text!r} is not written in ASCII")
    return text


def _parse_fraction(text: str, flag: str) -> Fraction:
    """The value of flag (--p, --zeta or --gamma), a decimal or a/b: a fraction
    whose reduced denominator is at most 2^64 and whose decimal exponent, if
    any, is at most _MAX_EXPONENT in magnitude."""
    exponent = _EXPONENT.search(_ascii(text, flag))
    if exponent:
        digits = exponent[1].replace("_", "").lstrip("0")
        if len(digits) > len(str(_MAX_EXPONENT)) or int(digits or 0) > _MAX_EXPONENT:
            raise UsageError(f"{flag} {text} has a decimal exponent above {_MAX_EXPONENT} in magnitude")
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise UsageError(f"{text!r} is not a fraction") from None
    if value.denominator > 1 << 64:
        raise UsageError(f"{text!r} has a denominator above 2^64")
    return value


def _integer(text: str, flag: str, lo=-math.inf, hi=math.inf) -> int:
    """The value of flag: an integer in [lo, hi], in ASCII digits after an optional -."""
    if not _ascii(text, flag).removeprefix("-").isdigit() or not lo <= int(text) <= hi:
        raise UsageError(f"{flag} {text} is not an integer in [{lo}, {hi}]")
    return int(text)


def _integers(text: str, flag: str, count: int, bound: int) -> list[int]:
    """The value of flag: count integers in [0, bound), separated by commas or spaces."""
    values = [_integer(tok, flag, 0, bound - 1) for tok in _ascii(text, flag).replace(",", " ").split()]
    if len(values) != count:
        raise UsageError(f"{flag} {text!r} is not {count} integers in [0, {bound})")
    return values


def _real(text: str, flag: str) -> float:
    """The value of flag, a float in ASCII; nan and inf pass, for lr_param_check to reject."""
    try:
        return float(_ascii(text, flag))
    except ValueError:
        raise UsageError(f"{flag} {text!r} is not a real number") from None


def _int_in(flag: str, lo=-math.inf, hi=math.inf):
    """The argparse type of flag: an integer in [lo, hi], read by _integer."""
    return partial(_integer, flag=flag, lo=lo, hi=hi)


_p = partial(_parse_fraction, flag="--p")
_depth = _int_in("--depth", 0)
# every --n-bits run enumerates all 2^n_bits inputs of one side
_n_bits = _int_in("--n-bits", 1, DEFAULT_ENUM_BUDGET.bit_length() - 1)
# every copy of a total problem holds its own oracle instance
_copies = _int_in("--t", 1, DEFAULT_ENUM_BUDGET)


def _gamma(text: str) -> Fraction:
    """A --gamma value: a positive fraction read by _parse_fraction whose
    reduced denominator is at most `density.MAX_GAMMA_DEN`."""
    gamma = _parse_fraction(text, "--gamma")
    if gamma <= 0:
        raise UsageError(f"--gamma {text} is not a positive number")
    if gamma.denominator > density.MAX_GAMMA_DEN:
        raise UsageError(f"--gamma {text} has a reduced denominator above {density.MAX_GAMMA_DEN}")
    return gamma


def _emit(records, out, summary=None, echo=False) -> None:
    """Records as JSON lines, written to the file out if given and printed if
    not (or if echo), then the line summary, if any.  The file is written
    first, so a run whose out cannot be written prints nothing."""
    lines = "".join(json.dumps(rec, sort_keys=True) + "\n" for rec in records)
    if out:
        with _open(out, "w") as fh:
            fh.write(lines)
    if echo or not out:
        print(lines, end="")
    if summary is not None:
        print(summary)


# -- code subcommands ------------------------------------------------------------


def cmd_code_preset(args) -> int:
    spec = codes.preset(args.t)
    summary = f"n={spec.n} q={spec.field.q} N={spec.N} m={spec.m} k={spec.k} |C|={spec.size}"
    _emit([spec.to_json()] if args.out else [], args.out, summary)
    return 0


def cmd_code_dual(args) -> int:
    spec = _load_spec(args)
    _emit([codes.dual(spec).to_json()], args.out, echo=True)
    return 0


def cmd_code_decode(args) -> int:
    spec = _load_spec(args)
    params = DecoderParams.for_spec(spec, args.p)
    rng = np.random.default_rng(args.seed)
    dual_spec = codes.dual(spec)
    records = []
    failures = 0
    for trial in range(args.trials):
        msg = [int(rng.integers(spec.field.q)) for _ in range(dual_spec.dim)]
        xu = codes.encode_unfolded(dual_spec, msg)
        err = np.zeros(spec.N, dtype=np.int64)
        weight = int(rng.integers(params.radius_unfolded + 1))
        pos = rng.choice(spec.N, size=weight, replace=False)
        for pidx in pos:
            err[pidx] = int(rng.integers(1, spec.field.q))
        z = codes.fold(spec, (xu ^ err).tolist())
        got = codes.dual_decode(spec, params, z)
        ok = got == codes.fold(spec, xu)
        failures += not ok
        records.append({"trial": trial, "weight": weight, "decoded": bool(ok)})
    _emit(records, args.out, f"decode: {args.trials - failures}/{args.trials} ok")
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
    inst = instances.sample_instance(spec, args.p, args.seed)
    _emit([instances.instance_to_json(inst)], args.out, f"wrote {args.out}" if args.out else None)
    return 0


def cmd_instance_verify(args) -> int:
    inst = _read_json(args.infile, instances.instance_from_json, "instance")
    word = _parse_word(inst.spec, args.x, "--x")
    ok = instances.verify(inst, word)
    print("valid" if ok else "invalid")
    return 0 if ok else 1


def cmd_instance_solve(args) -> int:
    inst = _read_json(args.infile, instances.instance_from_json, "instance")
    sols = instances.brute_solve(inst)
    words = sols.reshape(-1, inst.n, inst.spec.m).tolist()
    records = [{"solution": word} for word in words]
    _emit(records, args.out, f"{len(sols)} solutions")
    return 0


def _parse_word(spec: CodeSpec, text: str, flag: str):
    """The word of the n symbol ranks that text, the value of flag, lists."""
    ranks = _integers(text, flag, spec.n, spec.sigma_size)
    return codes.fold(spec, codes.to_digits(ranks, spec.field.q, spec.m).reshape(-1))


# -- qsim subcommands ------------------------------------------------------------


def cmd_qsim_qft(args) -> int:
    ctx = FieldCtx(args.s)
    mat = qsim.qft_matrix(ctx)
    residual = float(np.abs(mat @ mat.T - ctx.q * np.eye(ctx.q)).max()) / ctx.q
    print(f"q={ctx.q} unitarity residual {residual:.2e}")
    return 0 if residual == 0 else 1


def _trial_records(args) -> list[dict]:
    """Sample instances from --seed on until --trials runs of
    qsim.run_smp_protocol complete, with one record per instance; an
    instance with an empty table support is recorded as skipped."""
    spec = _load_spec(args)
    params = DecoderParams.for_spec(spec, args.p)
    keys = ("epsilon", "delta", "l2_distance", "success_probability")
    records = []
    seed = args.seed
    produced = 0
    while produced < args.trials:
        inst = instances.sample_instance(spec, args.p, seed)
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
    done = sum(rec["skipped"] is None for rec in records)
    _emit(records, args.out, f"lemma51: {done}/{done} within bound")
    return 0


def cmd_qsim_alg1(args) -> int:
    _emit(_trial_records(args), args.out)
    return 0


def cmd_qsim_claim66(args) -> int:
    if args.sigma & (args.sigma - 1):
        raise UsageError("--sigma must be a power of two")
    m = args.sigma.bit_length() - 1
    stats = qsim.table_fourier_stats(FieldCtx(1), m, args.p)
    printable = {k: v for k, v in stats.items() if not k.endswith("_exact")}
    _emit([printable], args.out, echo=True)
    return 0


# -- proto subcommands -------------------------------------------------------------


def _random_tree(args, rng, labels) -> proto.ProtocolTree:
    """The random one-bit tree of --n-bits per side and --depth rounds; a
    --depth whose tree passes the node budget is a usage error."""
    try:
        return proto.random_onebit_tree(rng, args.n_bits, args.n_bits, args.depth, labels)
    except BudgetExceeded as exc:
        raise UsageError(f"--depth {args.depth}: {exc}") from None


def cmd_proto_drp(args) -> int:
    rng = np.random.default_rng(args.seed)
    records, coords = [], tuple(range(args.n_bits))
    for trial in range(args.trials):
        universe = 1 << args.n_bits
        size = int(rng.integers(2, universe + 1))
        X = rng.choice(universe, size=size, replace=False)
        parts = density.density_restoring_partition(X, args.gamma, coords)
        density.validate_partition(X, parts, args.gamma, coords)
        records.append(
            {
                "trial": trial,
                "set_size": size,
                "parts": len(parts),
                "expected_codim": density.expected_codimension(parts),
                "gap_reference": args.n_bits - density.min_entropy(X, coords),
            }
        )
    _emit(records, args.out)
    return 0


def cmd_proto_transform(args) -> int:
    rng = np.random.default_rng(args.seed)
    records = []
    failures = 0
    for trial in range(args.trials):
        tree = _random_tree(args, rng, labels=list(range(4)))
        out = proto.subcube_like_transform(tree, args.gamma)
        nodes = proto.validate_subcube_like(out, args.gamma)
        same = proto.trees_agree(tree, out)
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
        tree = _random_tree(args, rng, labels=list(range(3)))
        valid_a = lambda label, x: (x >> (label % args.n_bits)) & 1 == 0
        valid_b = lambda label, y: (y >> (label % args.n_bits)) & 1 == 0
        err = proto.measure_error(tree, valid_a, valid_b)
        cleaned = proto.cleanup(tree, err, valid_a, valid_b)
        ok = proto.never_wrong(cleaned, valid_a, valid_b)
        bot = proto.bottom_probability(cleaned)
        failures += not (ok and bot <= 2 * err)
        records.append({"trial": trial, "error": float(err), "bot": float(bot), "sound": bool(ok)})
    _emit(records, args.out)
    return 1 if failures else 0


def cmd_proto_run(args) -> int:
    rng = np.random.default_rng(args.seed)
    tree = _random_tree(args, rng, labels=list(range(4)))
    stats = proto.transcript_stats(tree)
    print(json.dumps(stats, sort_keys=True))
    return 0


def cmd_proto_danger(args) -> int:
    spec = _repetition_spec(args)
    tree = proto.reveal_solution_tree(spec)
    insts = [instances.sample_instance(spec, args.p, args.seed + i) for i in range(args.trials)]
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
        with _open(args.out, "w") as fh:
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
    """Certify lambda-wise independence at the first --lam domain points.
    The points are distinct, so the Vandermonde map of the key is
    invertible and the certificate always holds: the `NOT independent`
    branch (exit 1) reports the check's output and is never reached."""
    family = hashing.HashFamily(
        key_field=FieldCtx(args.r),
        lam=args.lam,
        n=args.n,
        sigma_size=args.sigma,
    )
    if args.lam > args.sigma * args.n:
        raise UsageError(f"--lam {args.lam} exceeds the {args.sigma * args.n} points of the domain")
    pts = [(j % args.sigma, j // args.sigma + 1) for j in range(args.lam)]
    ok = hashing.independence_check(family, pts)
    print("independent" if ok else "NOT independent")
    return 0 if ok else 1


def cmd_hash_attack(args) -> int:
    spec = _repetition_spec(args)
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
    _emit(records, args.out, f"attack: {args.trials - failures}/{args.trials} verified")
    return 1 if failures else 0


# -- tbnc subcommands ------------------------------------------------------------


def cmd_tbnc_gen(args) -> int:
    spec = _repetition_spec(args)
    family = configs.toy_family(spec)
    tb = tbnc.make_tbnc(spec, family, args.t, args.seed)
    payload = {
        "t": tb.t,
        "family": family.to_json(),
        "code": spec.to_json(),
        "copies": [instances.instance_to_json(c) for c in tb.copies],
    }
    _emit([payload], args.out, f"wrote {args.out}" if args.out else None)
    return 0


def _tbnc_from_json(payload) -> tbnc.TbncInstance:
    return tbnc.TbncInstance(
        t=json_int(payload["t"], "t"),
        spec=CodeSpec.from_json(payload["code"]),
        family=hashing.HashFamily.from_json(payload["family"]),
        copies=tuple(instances.instance_from_json(c) for c in payload["copies"]),
    )


def cmd_tbnc_verify(args) -> int:
    tb = _read_json(args.infile, _tbnc_from_json, "total-problem instance")
    key = hashing.HashKey(tuple(_integers(args.key, "--key", tb.family.lam, tb.family.key_field.q)))
    sols = [_parse_word(tb.spec, chunk, "--solutions") for chunk in args.solutions.split(";")]
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
    _emit(records, args.out, f"alg2: {successes}/{args.trials} succeeded")
    return 0


def cmd_tbnc_totality(args) -> int:
    spec = _repetition_spec(args)
    points = spec.n * spec.sigma_size
    if args.lam > points:
        raise UsageError(f"--lam {args.lam} exceeds the {points} points of the domain")
    family = configs.toy_family(spec, lam=args.lam)
    out = tbnc.totality_scan(
        spec, family, args.t, args.samples, args.keys, args.seed
    )
    _emit([out], args.out, echo=True)
    return 0


# -- report ---------------------------------------------------------------------


def cmd_report(args) -> int:
    paths = sorted(glob_mod.glob(args.glob))
    rows = []
    for path in paths:
        schema = None
        with _open(path) as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    rec = json.loads(line)
                except ValueError as exc:  # bad JSON, or an int past int()'s digit limit
                    raise ParseError(path, lineno, str(exc)) from exc
                if not isinstance(rec, dict):
                    raise ParseError(path, lineno, "record is not an object")
                if schema is None:
                    schema = set(rec)
                elif set(rec) != schema:
                    raise ParseError(path, lineno, "record schema changed mid-file")
                rows.append((path, lineno, rec))
    summary = {}
    for path, lineno, rec in rows:
        for key, val in rec.items():
            if isinstance(val, (int, float)):  # bool included
                try:
                    val = float(val)
                except OverflowError:
                    message = f"field {key!r} is past the float range"
                    raise ParseError(path, lineno, message) from None
                summary.setdefault((path, key), []).append(val)
    lines = [("file", "field", "count", "mean", "std")]
    for (path, key), vals in sorted(summary.items()):
        arr = np.array(vals)
        # over a power of two near the largest magnitude, so no sum or
        # square overflows; the scaling itself is exact short of underflow
        top = np.abs(arr).max()
        scale = math.ldexp(1.0, math.frexp(top)[1] - 1) if 0 < top < math.inf else 1.0
        arr /= scale
        mean, std = arr.mean() * scale, arr.std() * scale
        lines.append((path, key, str(len(vals)), f"{mean:.6g}", f"{std:.6g}"))
    if args.out:
        with _open(args.out, "w") as fh:
            csv.writer(fh).writerows(lines)
        print(f"wrote {args.out}")
    else:
        for row in lines:
            print(",".join(row))
    return 0


# -- wiring ----------------------------------------------------------------------


def _add_code_source(p):
    """--t, --config and --toy: the code that _load_spec builds."""
    p.add_argument("--t", type=_int_in("--t"))
    p.add_argument("--config")
    p.add_argument("--toy", action="store_true")


def _add_repetition(p):
    """--n and --s: the toy repetition code that _repetition_spec builds,
    bounded before its row of n ones is built: toy_family's widest key
    field, GF(2^12), encodes at most 2^11 coordinates over GF(2), and a
    field has at most 2^16 elements (FieldCtx reports an s below 1)."""
    p.add_argument("--n", type=_int_in("--n", 1, 1 << 11), default=2)
    p.add_argument("--s", type=_int_in("--s", hi=16), default=2)


def _add_common(p, trials=100):
    p.add_argument("--seed", type=_int_in("--seed"), default=0)
    p.add_argument("--trials", type=_int_in("--trials", 0), default=trials)
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
    p.add_argument("--t", type=_int_in("--t"), required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_code_preset)
    p = code.add_parser("dual")
    _add_code_source(p)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_code_dual)
    p = code.add_parser("decode")
    _add_code_source(p)
    p.add_argument("--p", type=_p, default="1/64")
    _add_common(p)
    p.set_defaults(fn=cmd_code_decode)
    p = code.add_parser("listrec")
    _add_code_source(p)
    p.add_argument("--zeta", type=partial(_parse_fraction, flag="--zeta"), default="0.4")
    p.add_argument("--ell", type=_int_in("--ell"), default=1)
    _add_common(p, trials=10)
    p.set_defaults(fn=cmd_code_listrec)
    p = code.add_parser("lrcheck")
    for name in ("N", "m", "k", "ell", "s", "r", "zeta", "q"):
        p.add_argument(f"--{name}", type=partial(_real, flag=f"--{name}"), required=True)
    p.set_defaults(fn=cmd_code_lrcheck)

    inst = sub.add_parser("instance").add_subparsers(dest="cmd", required=True)
    p = inst.add_parser("gen")
    _add_code_source(p)
    p.add_argument("--p", type=_p, default="1/64")
    p.add_argument("--seed", type=_int_in("--seed"), default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_instance_gen)
    p = inst.add_parser("verify")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--x", required=True, help="space-separated symbol ranks")
    p.set_defaults(fn=cmd_instance_verify)
    p = inst.add_parser("solve")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_instance_solve)

    qs = sub.add_parser("qsim").add_subparsers(dest="cmd", required=True)
    p = qs.add_parser("qft")
    p.add_argument("--s", type=_int_in("--s"), default=2)
    p.set_defaults(fn=cmd_qsim_qft)
    p = qs.add_parser("lemma51")
    _add_code_source(p)
    p.add_argument("--p", type=_p, default="1/16")
    _add_common(p)
    p.set_defaults(fn=cmd_qsim_lemma51)
    p = qs.add_parser("alg1")
    _add_code_source(p)
    p.add_argument("--p", type=_p, default="1/16")
    _add_common(p)
    p.set_defaults(fn=cmd_qsim_alg1)
    p = qs.add_parser("claim66")
    p.add_argument("--sigma", type=_int_in("--sigma", 1, DEFAULT_ENUM_BUDGET), default=4)
    p.add_argument("--p", type=_p, default="1/4")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_qsim_claim66)

    pr = sub.add_parser("proto").add_subparsers(dest="cmd", required=True)
    p = pr.add_parser("drp")
    p.add_argument("--n-bits", type=_n_bits, default=12)
    p.add_argument("--gamma", type=_gamma, default="0.8")
    _add_common(p, trials=50)
    p.set_defaults(fn=cmd_proto_drp)
    p = pr.add_parser("transform")
    p.add_argument("--n-bits", type=_n_bits, default=10)
    p.add_argument("--depth", type=_depth, default=6)
    p.add_argument("--gamma", type=_gamma, default="0.8")
    _add_common(p, trials=20)
    p.set_defaults(fn=cmd_proto_transform)
    p = pr.add_parser("cleanup")
    p.add_argument("--n-bits", type=_n_bits, default=6)
    p.add_argument("--depth", type=_depth, default=4)
    _add_common(p, trials=20)
    p.set_defaults(fn=cmd_proto_cleanup)
    p = pr.add_parser("run")
    p.add_argument("--n-bits", type=_n_bits, default=8)
    p.add_argument("--depth", type=_depth, default=5)
    p.add_argument("--seed", type=_int_in("--seed"), default=0)
    p.set_defaults(fn=cmd_proto_run)
    p = pr.add_parser("danger")
    _add_repetition(p)
    p.add_argument("--p", type=_p, default="1/4")
    _add_common(p, trials=50)
    p.set_defaults(fn=cmd_proto_danger)

    ha = sub.add_parser("hash").add_subparsers(dest="cmd", required=True)
    p = ha.add_parser("check")
    p.add_argument("--lam", type=_int_in("--lam"), default=2)
    p.add_argument("--r", type=_int_in("--r"), default=4)
    p.add_argument("--n", type=_int_in("--n"), default=2)
    p.add_argument("--sigma", type=_int_in("--sigma"), default=4)
    p.set_defaults(fn=cmd_hash_check)
    p = ha.add_parser("attack")
    _add_repetition(p)
    _add_common(p, trials=20)
    p.set_defaults(fn=cmd_hash_attack)

    tb = sub.add_parser("tbnc").add_subparsers(dest="cmd", required=True)
    p = tb.add_parser("gen")
    _add_repetition(p)
    p.add_argument("--t", type=_copies, default=4)
    p.add_argument("--seed", type=_int_in("--seed"), default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_tbnc_gen)
    p = tb.add_parser("verify")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--key", required=True, help="comma- or space-separated coefficients")
    p.add_argument("--solutions", required=True, help="';'-separated rank words")
    p.set_defaults(fn=cmd_tbnc_verify)
    p = tb.add_parser("alg2")
    p.add_argument("--t", type=_copies, default=2)
    _add_common(p, trials=20)
    p.set_defaults(fn=cmd_tbnc_alg2)
    p = tb.add_parser("totality")
    _add_repetition(p)
    p.add_argument("--t", type=_copies, default=1)
    p.add_argument("--lam", type=_int_in("--lam"), default=4)
    p.add_argument("--samples", type=_int_in("--samples"), default=50)
    p.add_argument("--keys", type=_int_in("--keys", 1, DEFAULT_ENUM_BUDGET), default=16)
    p.add_argument("--seed", type=_int_in("--seed"), default=0)
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
