"""nullcode benchmark: four closed-loop workloads, end-to-end or traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; nullcode is imported from ``src/`` there.
Each workload runs in its own fresh single process with BLAS/OpenMP
threads pinned to 1 (``worker.py``).

``--trace 0`` reports the end-to-end metrics.  The four timings are wall
clock times scaled by the machine-speed yardstick run between ops
(``yardstick.py``) to a host of fixed speed; the raw wall-clock values are
recorded next to them.

- ``ops_per_s``: checked ops per second of timed op time (the sum of the
  op latencies; input generation, the reference comparison and the
  yardstick are not timed);
- ``op_p50_ms`` and ``op_p90_ms``: op latency percentiles over at least
  100 timed ops (more on transform and algebra, ``worker.MIN_OPS``);
- ``setup_s``: median over ``SETUP_SAMPLES`` fresh processes, each with
  another first input, of the wall time from before ``import nullcode``
  to the end of the first, untimed op;
- ``peak_rss_mb``: peak resident memory of the timed process;
- ``ok_frac``: ops that passed every check over ops attempted, i.e.
  1 - fail_frac (reported this way because end-to-end metrics must never
  read 0).

``--trace 1`` reports per-layer metrics from spans recorded around calls
into nullcode's public functions (``tracing.py``), as per-op averages over
a fixed number of ops, so counts repeat exactly for a seed.

Every op is checked: the library's own checks run inside the op, and the
outputs are compared with the references in ``refs/`` when the seed has
them (the default seed 0 and the held-out seed 1000).  The last line of
standard output is the JSON result; the environment is recorded in the
line before it and in ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

from tracing import TRACED

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")
WORKER = os.path.join(HERE, "worker.py")

WORKLOADS = ("referee", "partition", "transform", "algebra")
SETUP_SAMPLES = 5  # the timed process plus four set-up-only processes
RUN_LIMIT_S = 170  # every worker must have ended by then
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
    # glibc's dynamic mmap threshold makes peak RSS depend on allocation
    # history (65-75 MB between seeds for partition at the same live peak);
    # a fixed threshold and no trimming make it the heap's high-water mark.
    "MALLOC_MMAP_THRESHOLD_": str(32 << 20),
    "MALLOC_TRIM_THRESHOLD_": str(1 << 30),
}

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
}


def per_layer_units() -> dict:
    """Unit of every per-layer metric, in BENCHMARK.json order."""
    units = {}
    for fn in TRACED:
        units[f"{fn}.calls"] = "count"
        units[f"{fn}.self_ms"] = "ms"
        units[f"{fn}.total_ms"] = "ms"
    units.update({
        "codes.dual_decode.unique_frac": "ratio",
        "density.density_cut.distinct_frac": "ratio",
        "density.density_restoring_partition.parts": "count",
        "instances.brute_solve.jobs_speedup": "x",
        "codes.list_recover_count.jobs_speedup": "x",
        "trace_overhead_frac": "ratio",
    })
    return units


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "NULLCODE_BUDGET"}
    env.update(PINNED_ENV)
    return env


def run_worker(
    mode: str, workload: str, seed: int, seconds: int, deadline: float, warmup: int = 0
) -> dict:
    cmd = [sys.executable, WORKER, mode, workload, str(seed), str(seconds), OUT_DIR, str(warmup)]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped it
        raise BenchError(f"{mode} worker timed out after {exc.timeout} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"{mode} worker failed:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def commit_of(root: str) -> str | None:
    if not os.path.isdir(os.path.join(root, ".git")):
        return None
    proc = subprocess.run(
        ["git", "-C", root, "rev-parse", "HEAD"], capture_output=True, text=True
    )
    return proc.stdout.strip() or None


def src_digest(root: str) -> str:
    h = hashlib.sha256()
    src = os.path.join(root, "src")
    for dirpath, dirnames, filenames in sorted(os.walk(src)):
        dirnames.sort()
        for fn in sorted(filenames):
            if fn.endswith(".py"):
                path = os.path.join(dirpath, fn)
                h.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()[:16]


def end_to_end(workload: str, seed: int, seconds: int, deadline: float) -> tuple[dict, dict, dict]:
    # Set-up-only processes before and after the timed one, against drift.
    # Each warms up on another input (the timed one on input 0), so that
    # the median does not follow the size of one input (transform's trees).
    warmups = range(1, SETUP_SAMPLES)
    half = len(warmups) // 2
    setup = [run_worker("setup", workload, seed, seconds, deadline, k) for k in warmups[:half]]
    main = run_worker("run", workload, seed, seconds, deadline)
    setup += [run_worker("setup", workload, seed, seconds, deadline, k) for k in warmups[half:]]
    runs = [main] + setup
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)

    def timings(lat_s: list, setups: list) -> dict:
        lat_ms = [1e3 * t for t in lat_s]
        return {
            "ops_per_s": len(lat_ms) / (sum(lat_ms) / 1e3),
            "op_p50_ms": statistics.median(lat_ms),
            "op_p90_ms": statistics.quantiles(lat_ms, n=10, method="inclusive")[8],
            "setup_s": statistics.median(setups),
        }

    values = {
        **timings(main["scaled_latencies_s"], [r["setup_scaled_s"] for r in runs]),
        "peak_rss_mb": main["peak_rss_mb"],
        "ok_frac": (attempted - failed) / attempted,
    }
    metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    info = {
        "ops_timed": len(main["latencies_s"]),
        "loop_s": main["loop_s"],
        "fail_frac": failed / attempted,
        "ref_checked": sum(r["ref_checked"] for r in runs),
        "errors": [e for r in runs for e in r["errors"]],
        "raw": timings(main["latencies_s"], [r["setup_s"] for r in runs]),
        "yardstick_ms": main["yardstick_ms"],
        "env": main["env"],
    }
    return metrics, {"attempted": attempted, "failed": failed}, info


def per_layer(workload: str, seed: int, seconds: int, deadline: float) -> tuple[dict, dict, dict]:
    res = run_worker("trace", workload, seed, seconds, deadline)
    units = per_layer_units()
    got = res["metrics"]
    metrics = {k: {"value": got.get(k, 0.0), "unit": u} for k, u in units.items()}
    info = {
        "trace_ops": res["trace_ops"],
        "spans": res["spans"],
        "spans_file": res["spans_file"],
        "jobs_nproc": res.get("jobs_nproc"),
        "fail_frac": res["failed"] / res["attempted"],
        "ref_checked": res["ref_checked"],
        "errors": res["errors"],
        "env": res["env"],
    }
    return metrics, {"attempted": res["attempted"], "failed": res["failed"]}, info


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(ROOT, "src", "nullcode", "__init__.py")):
        print(f"error: no nullcode sources under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    load_start = os.getloadavg()
    started = time.time()
    deadline = time.monotonic() + RUN_LIMIT_S
    measure = per_layer if args.trace else end_to_end
    try:
        metrics, counts, info = measure(args.workload, args.seed, args.seconds, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": commit_of(ROOT),
        "src_sha256": src_digest(ROOT),
        "loadavg_start": load_start,
        "loadavg_end": os.getloadavg(),
        "wall_s": time.time() - started,
        **info,
        "metrics": metrics,
        **counts,
    }
    out_file = os.path.join(
        OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    )
    with open(out_file, "w") as fh:
        json.dump(record, fh, indent=1)
    for name, m in metrics.items():
        print(f"{args.workload:10s} {name:48s} {m['value']:14.6g} {m['unit']}")
    print(json.dumps({k: v for k, v in record.items() if k != "metrics"}))
    print(json.dumps({
        "correct": counts["failed"] == 0,
        "attempted": counts["attempted"],
        "failed": counts["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
