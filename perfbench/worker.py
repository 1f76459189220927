"""One workload in one fresh process; prints one JSON line.

Started by ``run.py`` with BLAS/OpenMP threads pinned to 1 and the
checkout's ``src`` first on the path.  Modes:

- ``setup``: import nullcode, build the workload, run the first op
  (untimed, on input ``WARMUP``), report the wall time from before the
  import to its end.
- ``run``: the same set-up on input 0, then a closed loop of timed ops: the next op
  starts only after the previous one returned and was checked.  One pass of
  the machine-speed yardstick (``yardstick.py``) follows each op.
- ``trace``: the same set-up on input 0, then ``TRACE_OPS`` inputs, each run once
  untraced and once traced (alternating which goes first), for per-layer
  spans and the tracing overhead.

Usage: python3 perfbench/worker.py MODE WORKLOAD SEED SECONDS OUT_DIR WARMUP
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import gc  # noqa: E402
import gzip  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import nullcode  # noqa: E402

import numpy as np  # noqa: E402

import yardstick  # noqa: E402
from tracing import TRACED, Tracer  # noqa: E402
from workloads import WORKLOADS, compare, normalize  # noqa: E402

# Fewest timed ops per run: op_p90_ms needs at least ten samples above it.
# Transform's op time follows its tree's size (CV about 0.35) and algebra's
# p90 follows short host stalls, so both take more ops for their p90 to
# repeat across seeds; more would push a run of all workloads past its
# time budget on a slow host.
MIN_OPS = {"referee": 100, "partition": 100, "transform": 120, "algebra": 150}
HARD_LIMIT_S = 120.0  # a run stops here even below MIN_OPS
TRACE_OPS = {"referee": 40, "partition": 30, "transform": 24, "algebra": 40}
JOBS_REPEATS = 7


def ref_path(workload: str, seed: int) -> str:
    return os.path.join(HERE, "refs", f"{workload}-seed{seed}.jsonl.gz")


def load_refs(workload: str, seed: int) -> list:
    path = ref_path(workload, seed)
    if not os.path.exists(path):
        return []
    with gzip.open(path, "rt") as fh:
        return [json.loads(line) for line in fh]


class Checker:
    """Runs ops, catching library-check failures and comparing outputs with
    the stored reference where one exists for (seed, index)."""

    def __init__(self, workload, refs: list):
        self.w = workload
        self.refs = refs
        self.attempted = 0
        self.failed = 0
        self.ref_checked = 0
        self.errors: list[str] = []

    def run_op(self, inp):
        """Run one op; returns (seconds, outputs or the exception it raised)."""
        start = time.perf_counter()
        try:
            out = self.w.op(inp)
        except Exception as exc:  # a failed library check is a result, not a crash
            elapsed = time.perf_counter() - start
            return elapsed, exc
        return time.perf_counter() - start, out

    def check(self, index: int, out) -> bool:
        self.attempted += 1
        if isinstance(out, Exception):
            reason = f"{type(out).__name__}: {out}"
        else:
            reason = None
            if index < len(self.refs):
                self.ref_checked += 1
                reason = compare(normalize(self.w.summary(out)), self.refs[index])
        if reason is not None:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(f"op {index}: {reason}")
        return reason is None

    def counts(self) -> dict:
        return {
            "attempted": self.attempted,
            "failed": self.failed,
            "ref_checked": self.ref_checked,
            "errors": self.errors,
        }


def set_up(name: str, seed: int, warmup: int = 0):
    """Build the workload and run op ``warmup``; returns (workload, checker,
    seconds since before ``import nullcode``)."""
    w = WORKLOADS[name]()
    checker = Checker(w, load_refs(name, seed))
    _, out = checker.run_op(w.make_input(seed, warmup))
    checker.check(warmup, out)
    setup_s = time.perf_counter() - _T0
    # keep the set-up's and the references' objects out of the garbage
    # collections that run during the ops that follow
    gc.collect()
    gc.freeze()
    return w, checker, setup_s


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def setup_scale(name: str) -> float:
    """Yardstick scale factor for the set-up time, measured right after it."""
    passes = [yardstick.one_pass() for _ in range(2 * yardstick.WINDOW + 1)]
    return statistics.median(yardstick.scale_factors(passes, name))


def mode_setup(name: str, seed: int, warmup: int) -> dict:
    _, checker, setup_s = set_up(name, seed, warmup)
    return {
        "setup_s": setup_s,
        "setup_scaled_s": setup_s * setup_scale(name),
        **checker.counts(),
    }


def mode_run(name: str, seed: int, seconds: float) -> dict:
    w, checker, setup_s = set_up(name, seed)
    setup_scaled_s = setup_s * setup_scale(name)
    latencies, passes = [], []
    loop_start = time.perf_counter()
    index = 1
    while True:
        elapsed = time.perf_counter() - loop_start
        if elapsed >= HARD_LIMIT_S or (elapsed >= seconds and len(latencies) >= MIN_OPS[name]):
            break
        inp = w.make_input(seed, index)
        dt, out = checker.run_op(inp)
        latencies.append(dt)
        checker.check(index, out)
        passes.append(yardstick.one_pass())
        index += 1
    scales = yardstick.scale_factors(passes, name)
    return {
        "setup_s": setup_s,
        "setup_scaled_s": setup_scaled_s,
        "latencies_s": latencies,
        "scaled_latencies_s": [t * f for t, f in zip(latencies, scales)],
        "yardstick_ms": yardstick.mix_ms(passes, name),
        "loop_s": time.perf_counter() - loop_start,
        "peak_rss_mb": peak_rss_mb(),
        **checker.counts(),
    }


def jobs_speedups(w, seed: int) -> tuple[int, dict]:
    """nproc, and the median time at jobs=1 over the median time at
    jobs=nproc on the algebra inputs, for the two functions that take
    ``jobs``."""
    from nullcode import codes, instances

    nproc = len(os.sched_getaffinity(0))
    times = {("brute", 1): [], ("brute", nproc): [], ("lr", 1): [], ("lr", nproc): []}
    for r in range(JOBS_REPEATS):
        inp = w.make_input(seed, 1 + r)
        order = (1, nproc) if r % 2 == 0 else (nproc, 1)
        for jobs in order:
            t = time.perf_counter()
            instances.brute_solve(inp.grs_inst, jobs=jobs)
            times[("brute", jobs)].append(time.perf_counter() - t)
            t = time.perf_counter()
            codes.list_recover_count(w.grs_spec, inp.lr_sets, w.lr_zeta, jobs=jobs)
            times[("lr", jobs)].append(time.perf_counter() - t)
    med = {k: float(np.median(v)) for k, v in times.items()}
    return nproc, {
        "instances.brute_solve.jobs_speedup": med[("brute", 1)] / med[("brute", nproc)],
        "codes.list_recover_count.jobs_speedup": med[("lr", 1)] / med[("lr", nproc)],
    }


def mode_trace(name: str, seed: int, out_dir: str) -> dict:
    w, checker, _ = set_up(name, seed)
    tracer = Tracer()
    untraced = traced = 0.0
    n_ops = TRACE_OPS[name]
    for index in range(1, n_ops + 1):
        order = (False, True) if index % 2 else (True, False)
        for with_trace in order:
            inp = w.make_input(seed, index)  # fresh: ops may cache inside inputs
            if with_trace:
                tracer.op_id = index
                tracer.install()
            try:
                dt, out = checker.run_op(inp)
            finally:
                if with_trace:
                    tracer.remove()
            checker.check(index, out)
            if with_trace:
                traced += dt
            else:
                untraced += dt
    for mod_name, attr, original in tracer.bindings():
        if getattr(sys.modules[mod_name], attr) is not original:
            raise RuntimeError(f"{mod_name}.{attr} was not restored")
    metrics = tracer.per_op_metrics(n_ops)
    missing = [
        fn for fn, where in TRACED.items()
        if name in where and metrics[f"{fn}.calls"] == 0
    ]
    if missing:
        raise RuntimeError(f"no calls recorded on {name} for: {', '.join(missing)}")
    # (traced - untraced ops_per_s) / untraced, over the same inputs
    metrics["trace_overhead_frac"] = untraced / traced - 1.0
    jobs_nproc = None
    if name == "algebra":
        jobs_nproc, speedups = jobs_speedups(w, seed)
        metrics.update(speedups)
    spans_file = os.path.join(out_dir, f"spans-{name}-seed{seed}.jsonl.gz")
    tracer.write_spans(spans_file)
    return {
        "metrics": metrics,
        "trace_ops": n_ops,
        "jobs_nproc": jobs_nproc,
        "spans": len(tracer.spans),
        "spans_file": os.path.relpath(spans_file, ROOT),
        **checker.counts(),
    }


def environment() -> dict:
    keys = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "nullcode": nullcode.__version__,
        "blas_threads": {k: os.environ.get(k) for k in keys},
        "nproc": len(os.sched_getaffinity(0)),
    }


def main(argv: list[str]) -> int:
    mode, name, seed, seconds, out_dir, warmup = argv
    seed = int(seed)
    if mode == "setup":
        result = mode_setup(name, seed, int(warmup))
    elif mode == "run":
        result = mode_run(name, seed, float(seconds))
    elif mode == "trace":
        result = mode_trace(name, seed, out_dir)
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    result["env"] = environment()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
