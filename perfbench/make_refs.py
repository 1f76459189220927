"""Regenerate the reference outputs in ``perfbench/refs/``.

    python3 perfbench/make_refs.py [WORKLOAD ...]

Writes, for the default seed and the held-out seed, one summary per op
index (index 0 is the set-up op) as gzipped JSON lines.  References pin the
outputs of the commit they were made from; regenerate them only when a
change is meant to alter outputs, and say so where the change is recorded.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import gzip  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402

from worker import WORKLOADS, normalize, ref_path  # noqa: E402

REF_SEEDS = (0, 1000)  # the default seed and the held-out one

# ops per seed: a few times what one 15 s run checks at this commit
REF_OPS = {"referee": 1500, "partition": 300, "transform": 300, "algebra": 600}


def make(name: str, seed: int) -> None:
    w = WORKLOADS[name]()
    path = ref_path(name, seed)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    # mtime=0 keeps the file bytes a function of its content
    with open(path, "wb") as raw, gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as fh:
        for index in range(REF_OPS[name]):
            summary = normalize(w.summary(w.op(w.make_input(seed, index))))
            fh.write((json.dumps(summary, sort_keys=True) + "\n").encode())
    print(f"wrote {REF_OPS[name]} references to {os.path.relpath(path)}")


def main(argv: list[str]) -> int:
    for name in argv or list(WORKLOADS):
        for seed in REF_SEEDS:
            make(name, seed)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
