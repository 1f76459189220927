"""Spans around calls into nullcode's public functions, recorded from outside.

``Tracer.install`` replaces every binding of each traced function in every
loaded ``nullcode`` module (so ``proto.is_dense``, bound by a from-import,
is wrapped as well as ``density.is_dense``); ``Tracer.remove`` puts the
original objects back.  Spans (name, start, end, parent, op id) are kept in
memory; ``per_op_metrics`` derives per-op averages from them and
``write_spans`` writes them out when the run ends.

``gf`` is not wrapped: its scalar ``FieldCtx`` methods run tens of
thousands of times per op and a Python wrapper would outweigh them.  Its
cost shows in the self time of its callers.

Tracing assumes the traced calls run on one thread.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from collections import defaultdict

# Traced functions, as "<module>.<name>" in nullcode, with the workloads on
# which each must record at least one call.
TRACED = {
    "qsim.add_decode_pipeline": ("referee",),
    "qsim.decode_rank_table": ("referee",),
    "qsim.default_goodbad": ("referee",),
    "qsim.prepare_psi": ("referee",),
    "qsim.apply_qft_vec": ("referee",),
    "codes.dual_decode": ("referee", "algebra"),
    "codes.list_decode": ("referee",),
    "codes.list_recover_count": ("algebra",),
    "linalg.rank": ("referee",),
    "linalg.solve": ("algebra",),
    "linalg.mul_arrays": ("algebra",),
    "instances.verify": ("referee",),
    "instances.brute_solve": ("algebra",),
    "density.find_violation": ("partition", "transform"),
    "density.is_dense": ("partition", "transform"),
    "density.density_cut": ("transform",),
    "density.density_restoring_partition": ("partition", "transform"),
    "density.validate_partition": ("partition",),
    "huffman.huffman": ("transform",),
    "proto.subcube_like_transform": ("transform",),
    "proto.validate_subcube_like": ("transform",),
    "proto.outputs_agree": ("transform",),
    "hashing.attack_solve": ("algebra",),
    "hashing.hash_bias_tables": ("algebra",),
    "tbnc.solution_set_empty": ("algebra",),
}


def _observe_dual_decode(args, kwargs, result):
    return result is not None


def _observe_density_cut(args, kwargs, result):
    return args


def _observe_partition(args, kwargs, result):
    return len(result)


# Per-call observations kept next to the span: (args, kwargs, result) -> value.
OBSERVERS = {
    "codes.dual_decode": _observe_dual_decode,
    "density.density_cut": _observe_density_cut,
    "density.density_restoring_partition": _observe_partition,
}


def _resolve(qualname: str):
    mod, attr = qualname.split(".")
    return getattr(sys.modules[f"nullcode.{mod}"], attr)


class Tracer:
    def __init__(self):
        self.names = list(TRACED)
        self.spans: list = []  # (name index, start, end, parent, op id)
        self.observed: dict = defaultdict(list)  # name index -> [(op id, value)]
        self._stack: list[int] = []
        self.op_id = -1
        self.originals = {name: _resolve(name) for name in self.names}
        by_id = {
            id(fn): (fn, self._wrap(i, name, fn))
            for i, (name, fn) in enumerate(self.originals.items())
        }
        # every (namespace, attribute) that binds a traced function
        self._patches = []
        for mod_name, mod in sorted(sys.modules.items()):
            if mod_name != "nullcode" and not mod_name.startswith("nullcode."):
                continue
            for attr, value in vars(mod).items():
                hit = by_id.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((mod, attr, value, hit[1]))

    def _wrap(self, index: int, name: str, fn):
        spans, stack = self.spans, self._stack
        observer = OBSERVERS.get(name)
        observed = self.observed[index]
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (index, start, end, parent, self.op_id)
            if observer is not None:
                observed.append((self.op_id, observer(args, kwargs, result)))
            return result

        return wrapper

    def install(self) -> None:
        for mod, attr, _, wrapper in self._patches:
            setattr(mod, attr, wrapper)

    def remove(self) -> None:
        for mod, attr, original, _ in self._patches:
            setattr(mod, attr, original)

    def bindings(self) -> list[tuple[str, str, object]]:
        """(module, attribute, original object) for every patched binding."""
        return [(mod.__name__, attr, orig) for mod, attr, orig, _ in self._patches]

    # -- derived metrics ------------------------------------------------------

    def per_op_metrics(self, n_ops: int) -> dict:
        """Per-op averages over ``n_ops`` traced ops, by metric name."""
        n = len(self.names)
        calls = [0] * n
        total = [0.0] * n
        child = [0.0] * len(self.spans)
        for index, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_time = [0.0] * n
        for sid, (index, start, end, _, _) in enumerate(self.spans):
            calls[index] += 1
            total[index] += end - start
            self_time[index] += end - start - child[sid]
        out = {}
        for i, name in enumerate(self.names):
            out[f"{name}.calls"] = calls[i] / n_ops
            out[f"{name}.total_ms"] = 1e3 * total[i] / n_ops
            out[f"{name}.self_ms"] = 1e3 * self_time[i] / n_ops
        idx = {name: i for i, name in enumerate(self.names)}
        seen = self.observed[idx["codes.dual_decode"]]
        out["codes.dual_decode.unique_frac"] = (
            sum(v for _, v in seen) / len(seen) if seen else 0.0
        )
        by_op = defaultdict(list)
        for op, key in self.observed[idx["density.density_cut"]]:
            by_op[op].append(key)
        out["density.density_cut.distinct_frac"] = (
            sum(len(set(keys)) / len(keys) for keys in by_op.values()) / n_ops
        )
        seen = self.observed[idx["density.density_restoring_partition"]]
        out["density.density_restoring_partition.parts"] = sum(v for _, v in seen) / n_ops
        return out

    def write_spans(self, path) -> None:
        """Gzipped JSON lines, one span each, times in seconds from the first."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with gzip.open(path, "wt") as fh:
            for sid, (index, start, end, parent, op) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": sid, "name": self.names[index],
                    "start": round(start - t0, 9), "end": round(end - t0, 9),
                    "parent": parent, "op": op,
                }) + "\n")
