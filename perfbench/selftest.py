"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py

Checks that a perturbed output counts as a failure, that a seed regenerates
byte-identical inputs, that tracing leaves nullcode's functions as they
were, that the printed metric and workload names match BENCHMARK.json, and
that the benchmark refuses to run without the nullcode sources.  Takes
about a minute.
"""

from __future__ import annotations

import dataclasses
import json
import os
import pickle
import shutil
import subprocess
import sys

from tracing import Tracer
from worker import HERE, ROOT, WORKLOADS, Checker, load_refs

import nullcode
from nullcode import density, proto

DEFAULT_SEED = 0


def _checker(name: str) -> tuple:
    w = WORKLOADS[name]()
    refs = load_refs(name, DEFAULT_SEED)
    assert refs, f"no references for {name} at seed {DEFAULT_SEED}"
    return w, Checker(w, refs)


def test_perturbed_outputs_fail():
    w, checker = _checker("partition")
    index = next(
        i for i in range(len(checker.refs)) if checker.refs[i]["exact"]["parts"][0] > 1
    )
    partitions = w.op(w.make_input(DEFAULT_SEED, index))
    assert checker.check(index, partitions) and checker.failed == 0
    p = partitions[0][0]
    flipped = (1 - p.fixed_bits[0],) + p.fixed_bits[1:]
    bad = [[dataclasses.replace(p, fixed_bits=flipped)] + partitions[0][1:]] + partitions[1:]
    assert not checker.check(index, bad) and checker.failed == 1

    w, checker = _checker("referee")
    index = next(i for i in range(len(checker.refs)) if not checker.refs[i]["exact"]["empty"])
    out = w.op(w.make_input(DEFAULT_SEED, index))
    assert checker.check(index, out) and checker.failed == 0
    assert not checker.check(index, {**out, "epsilon": out["epsilon"] + 1e-6})
    assert checker.failed == 1

    # a raised library check is counted, not propagated
    _, caught = checker.run_op(None)
    assert isinstance(caught, Exception)
    assert not checker.check(index, caught) and checker.failed == 2


def test_inputs_are_a_function_of_the_seed():
    for name, cls in WORKLOADS.items():
        w = cls()
        for index in (0, 1, 5):
            a = pickle.dumps(w.make_input(7, index), protocol=4)
            b = pickle.dumps(w.make_input(7, index), protocol=4)
            assert a == b, f"{name} input {index} is not reproducible"
        assert pickle.dumps(w.make_input(7, 1)) != pickle.dumps(w.make_input(8, 1))


def _bindings() -> dict:
    return {
        (name, attr): value
        for name, mod in sys.modules.items()
        if name == "nullcode" or name.startswith("nullcode.")
        for attr, value in vars(mod).items()
    }


def test_tracing_restores_functions():
    before = _bindings()
    w = WORKLOADS["partition"]()
    tracer = Tracer()
    tracer.install()
    try:
        assert density.is_dense is not before[("nullcode.density", "is_dense")]
        assert proto.is_dense is density.is_dense  # the from-import binding too
        w.op(w.make_input(DEFAULT_SEED, 1))
    finally:
        tracer.remove()
    after = _bindings()
    changed = [k for k in before if after.get(k) is not before[k]]
    assert not changed, f"not restored: {changed}"
    assert tracer.per_op_metrics(1)["density.density_restoring_partition.calls"] == len(w.alphas)


def _run(args: list[str], cwd: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=170,
    )


def test_printed_names_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    for trace, key, workload in ((0, "end_to_end", "partition"), (1, "per_layer", "referee")):
        proc = _run(
            ["--workload", workload, "--seed", "0", "--seconds", "1", "--trace", str(trace)],
            ROOT,
        )
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        want = {m["name"]: m["unit"] for m in bench[key]}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        assert got == want, f"trace {trace}: {sorted(set(got) ^ set(want))}"
        assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def test_refuses_without_sources():
    bare = os.path.join(HERE, "out", "bare-checkout")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    try:
        proc = _run(["--workload", "referee", "--seed", "0", "--seconds", "1"], bare)
        assert proc.returncode != 0
        assert '"correct"' not in proc.stdout
    finally:
        shutil.rmtree(bare)


def main() -> int:
    print(f"nullcode from {os.path.dirname(nullcode.__file__)}")
    failed = 0
    for name, fn in list(globals().items()):
        if name.startswith("test_") and callable(fn):
            try:
                fn()
            except Exception as exc:
                failed += 1
                print(f"FAIL {name}: {type(exc).__name__}: {exc}")
            else:
                print(f"ok   {name}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
