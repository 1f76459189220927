"""The four benchmark workloads: input generation, the measured op, and the
summary that is compared with the stored reference outputs.

Each workload is a class with:

- ``__init__``: builds the per-process context (specs, duals, decoder
  parameters).  Runs inside the measured set-up time.
- ``make_input(seed, index)``: a pure function of (seed, index).  It runs
  outside the timed op, so the op receives only generated inputs.
- ``op(inp)``: the timed op.  It keeps the library's own checks (they raise
  ``AssertionError``) and returns the op's outputs.
- ``summary(out)``: a JSON-able record of the outputs.  Keys under
  ``"exact"`` must equal the reference; keys under ``"close"`` are floats
  that must match within ``FLOAT_TOL``.

Why these four (each stresses layers the others leave alone):

- referee: the exact one-round protocol; nearly all time in ``qsim`` and in
  ``codes.dual_decode`` through the per-op ``decode_rank_table``.
- partition: few, large sets; ``density`` per-size pattern scans with only
  a few dozen ``density_cut`` calls per op.
- transform: thousands of tiny sets per op; ``density`` dominated by
  ``density_cut``, plus ``huffman`` and ``proto``.
- algebra: Berlekamp-Welch decoding (``linalg.solve``, ``gf``), hashing key
  recovery, brute-force solving and list-recovery counting; no ``qsim`` or
  ``density`` work.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from nullcode import codes, configs, density, hashing, instances, proto, qsim, tbnc
from nullcode.codes import CodeSpec, DecoderParams
from nullcode.errors import EmptySupport

FLOAT_TOL = 1e-9


def _rng(seed: int, tag: int, index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, tag, index]))


def _digest(*chunks) -> str:
    h = hashlib.sha256()
    for c in chunks:
        h.update(c if isinstance(c, bytes) else repr(c).encode())
    return h.hexdigest()[:32]


def _words_digest(words) -> str:
    return _digest(np.asarray(words, dtype=np.int64).tobytes(), len(words))


# -- referee ----------------------------------------------------------------------


@dataclass
class RefereeInput:
    inst: instances.OracleInstance
    meas_seed: int


class Referee:
    """Criterion 7's op: the full SMP protocol on a fresh toy instance at
    p = 1/16, one sampled measurement, and the verifier on it."""

    name = "referee"
    tag = 0x5EF

    def __init__(self):
        self.spec = configs.toy_selfdual_spec()
        self.p = Fraction(1, 16)
        self.params = DecoderParams.for_spec(self.spec, self.p)

    def make_input(self, seed: int, index: int) -> RefereeInput:
        rng = _rng(seed, self.tag, index)
        inst_seed, meas_seed = (int(v) for v in rng.integers(0, 1 << 62, size=2))
        return RefereeInput(
            instances.sample_instance(self.spec, self.p, inst_seed), meas_seed
        )

    def op(self, inp: RefereeInput) -> dict:
        try:
            rep = qsim.run_smp_protocol(self.spec, inp.inst, self.params)
        except EmptySupport:
            return {"empty": True}
        z = qsim.sample_measurement(rep, np.random.default_rng(inp.meas_seed))
        word = qsim.flat_to_word(self.spec, z)
        verified = instances.verify(inp.inst, word)
        if verified != bool(rep["solution_mask"][z]):
            raise AssertionError("verifier disagrees with the solution mask")
        if abs(rep["verified_mass"] - rep["success_probability"]) > 1e-12:
            raise AssertionError("verified mass differs from success mass")
        return {
            "empty": False,
            "z": z,
            "verified": verified,
            "epsilon": rep["epsilon"],
            "delta": rep["delta"],
            "l2_distance": rep["l2_distance"],
            "success_probability": rep["success_probability"],
        }

    def summary(self, out: dict) -> dict:
        if out["empty"]:
            return {"exact": {"empty": True}, "close": {}}
        return {
            "exact": {"empty": False, "z": out["z"], "verified": out["verified"]},
            "close": {
                k: out[k]
                for k in ("epsilon", "delta", "l2_distance", "success_probability")
            },
        }


# -- partition --------------------------------------------------------------------


class Partition:
    """Criterion 9's op, on four random 12-bit sets, one at each alpha:
    density-restoring partitions and their exact validation.

    One set per op would put the median latency in the gap between the
    slow sparse sets (alpha 0.3, 0.5) and the fast dense ones (0.7, 0.9),
    where it jumps between runs; four sets per op give every op the same
    mix."""

    name = "partition"
    tag = 0x9A7
    gamma = 0.8
    coords = tuple(range(12))
    alphas = (0.3, 0.5, 0.7, 0.9)

    def make_input(self, seed: int, index: int) -> list:
        rng = _rng(seed, self.tag, index)
        sets = []
        for alpha in self.alphas:
            mask = rng.random(1 << len(self.coords)) < alpha
            if not mask.any():
                mask[0] = True
            sets.append(np.nonzero(mask)[0].astype(np.int64))
        return sets

    def op(self, sets: list) -> list:
        out = []
        for X in sets:
            parts = density.density_restoring_partition(X, self.gamma, self.coords)
            density.validate_partition(X, parts, self.gamma, self.coords)
            out.append(parts)
        return out

    def summary(self, partitions: list) -> dict:
        chunks = []
        for parts in partitions:
            chunks.append(len(parts))
            for p in parts:
                chunks += [p.fixed_coords, p.fixed_bits, np.asarray(p.elems).tobytes()]
        return {
            "exact": {"parts": [len(parts) for parts in partitions], "digest": _digest(*chunks)},
            "close": {},
        }


# -- transform --------------------------------------------------------------------


@dataclass
class TransformInput:
    tree: proto.ProtocolTree
    pairs: list


def _tree_digest(tree: proto.ProtocolTree) -> str:
    """Digest of everything ``proto.tree_to_json`` writes, in its order."""
    chunks = [tree.n_bits_a, tree.n_bits_b]

    def walk(node):
        if isinstance(node, proto.Leaf):
            chunks.append(("label", None if node.label is proto.BOT else node.label))
            return
        chunks.append(("owner", node.owner, len(node.parts)))
        for msg, subset, child in node.parts:
            chunks.append(msg)
            chunks.append(np.asarray(subset, dtype=np.int64).tobytes())
            walk(child)

    walk(tree.root)
    return _digest(*chunks)


class Transform:
    """Criterion 10's op: the subcube-like transform of a random one-bit
    tree on 10 + 10 bits, its validation, the Huffman bound at every node
    and output agreement on 500 sampled input pairs."""

    name = "transform"
    tag = 0x7F0
    gamma = 0.8
    n_bits = 10
    depth = 6
    labels = (0, 1, 2, 3)
    n_pairs = 500

    def make_input(self, seed: int, index: int) -> TransformInput:
        rng = _rng(seed, self.tag, index)
        tree = proto.random_onebit_tree(
            rng, self.n_bits, self.n_bits, self.depth, labels=list(self.labels)
        )
        draws = rng.integers(0, 1 << self.n_bits, size=(self.n_pairs, 2))
        return TransformInput(tree, [(int(x), int(y)) for x, y in draws])

    def op(self, inp: TransformInput) -> dict:
        stats = []
        out = proto.subcube_like_transform(inp.tree, self.gamma, code_stats=stats)
        nodes = proto.validate_subcube_like(out, self.gamma)
        for h, elen in stats:
            if elen > h + 1 + 1e-9:
                raise AssertionError(f"Huffman bound violated: {elen} > {h} + 1")
        if not proto.outputs_agree(inp.tree, out, inp.pairs):
            raise AssertionError("transformed tree changes an output")
        return {"tree": out, "nodes": nodes, "codes": len(stats)}

    def summary(self, out: dict) -> dict:
        return {
            "exact": {
                "nodes": out["nodes"],
                "codes": out["codes"],
                "digest": _tree_digest(out["tree"]),
            },
            "close": {},
        }


# -- algebra ----------------------------------------------------------------------


@dataclass
class AlgebraInput:
    decode_words: list  # [(folded received word, unfolded dual codeword)]
    attack_tb: tbnc.TbncInstance
    grs_inst: instances.OracleInstance
    lr_sets: list
    zero_key_copy: instances.OracleInstance


class Algebra:
    """Criterion 3's decoder, criterion 13's key recovery, and the
    |C| = 65536 enumerations, plus one zero-key emptiness check."""

    name = "algebra"
    tag = 0xA16
    n_decodes = 10
    lr_zeta = 2 / 3
    lr_planted = 16
    lr_noise = 240

    def __init__(self):
        self.dec_spec = codes.preset(3)
        self.dec_params = DecoderParams.for_spec(self.dec_spec, Fraction(1, 64))
        self.dec_dual = codes.dual(self.dec_spec)
        self.rep_spec = configs.toy_repetition_spec(n=2, s=2)
        self.rep_family = configs.toy_family(self.rep_spec)
        self.attack_word = codes.fold(
            self.rep_spec, codes.codeword_matrix(self.rep_spec)[1]
        )
        base = codes.preset(2)
        self.grs_spec = CodeSpec(
            kind="grs-folded", field=base.field, m=base.m, k=3,
            gamma=base.gamma, v=base.v,
        )
        self.grs_ranks = codes.codeword_rank_matrix(self.grs_spec)

    def make_input(self, seed: int, index: int) -> AlgebraInput:
        rng = _rng(seed, self.tag, index)
        spec, dual_spec = self.dec_spec, self.dec_dual
        q = spec.field.q
        radius = self.dec_params.radius_unfolded
        words = []
        for _ in range(self.n_decodes):
            msg = rng.integers(0, q, size=dual_spec.dim)
            x = codes.encode_unfolded(dual_spec, msg.tolist())
            err = np.zeros(spec.N, dtype=np.int64)
            weight = int(rng.integers(0, radius + 1))
            if weight:
                for pos in rng.choice(spec.N, size=weight, replace=False):
                    err[pos] = int(rng.integers(1, q))
            words.append((codes.fold(spec, (x ^ err).tolist()), x))
        seeds = [int(v) for v in rng.integers(0, 1 << 31, size=3)]
        attack_tb = tbnc.make_tbnc(self.rep_spec, self.rep_family, 1, seeds[0])
        grs_inst = instances.sample_instance(self.grs_spec, Fraction(1, 2), seeds[1])
        planted = rng.choice(self.grs_ranks.shape[0], size=self.lr_planted, replace=False)
        sigma = self.grs_spec.sigma_size
        lr_sets = [
            sorted(
                set(self.grs_ranks[planted, i].tolist())
                | set(rng.integers(0, sigma, size=self.lr_noise).tolist())
            )
            for i in range(self.grs_spec.n)
        ]
        zero_tb = tbnc.make_tbnc(self.rep_spec, self.rep_family, 1, seeds[2], b=2)
        return AlgebraInput(words, attack_tb, grs_inst, lr_sets, zero_tb.copies[0])

    def op(self, inp: AlgebraInput) -> dict:
        decoded = []
        for z, x in inp.decode_words:
            got = codes.dual_decode(self.dec_spec, self.dec_params, z)
            if got is None or not np.array_equal(codes.unfold(self.dec_spec, got), x):
                raise AssertionError("dual decode missed a word inside the radius")
            decoded.append(got)
        key = hashing.attack_solve(self.rep_family, self.rep_spec, inp.attack_tb.copies[0])
        if key is None or not tbnc.tbnc_verify(inp.attack_tb, key, [self.attack_word]):
            raise AssertionError("recovered key fails the verifier")
        solutions = instances.brute_solve(inp.grs_inst)
        lr_count = codes.list_recover_count(self.grs_spec, inp.lr_sets, self.lr_zeta)
        if lr_count < self.lr_planted:
            raise AssertionError("list recovery missed a planted codeword")
        g = tbnc.xored_bias_tables(
            inp.zero_key_copy, self.rep_family, hashing.zero_key(self.rep_family)
        )
        empty = tbnc.solution_set_empty(self.rep_spec, g)
        return {
            "decoded": decoded,
            "key": key.coeffs,
            "solutions": solutions,
            "lr_count": lr_count,
            "empty": empty,
        }

    def summary(self, out: dict) -> dict:
        return {
            "exact": {
                "decoded": _words_digest(out["decoded"]),
                "key": list(out["key"]),
                "solutions": len(out["solutions"]),
                "solutions_digest": _words_digest(out["solutions"]),
                "lr_count": out["lr_count"],
                "empty": out["empty"],
            },
            "close": {},
        }


WORKLOADS = {w.name: w for w in (Referee, Partition, Transform, Algebra)}


def compare(summary: dict, ref: dict) -> str | None:
    """None when the summary matches the reference record, else the reason."""
    if summary["exact"] != ref["exact"]:
        diff = sorted(
            k for k in set(summary["exact"]) | set(ref["exact"])
            if summary["exact"].get(k) != ref["exact"].get(k)
        )
        return f"exact outputs differ: {', '.join(diff)}"
    if set(summary["close"]) != set(ref["close"]):
        return "float outputs differ in their keys"
    for k, v in summary["close"].items():
        if not math.isclose(v, ref["close"][k], rel_tol=0.0, abs_tol=FLOAT_TOL):
            return f"{k} = {v!r} differs from reference {ref['close'][k]!r}"
    return None


def normalize(summary: dict) -> dict:
    """Round-trip through JSON (tuples become lists, numpy scalars Python
    numbers) so a fresh summary compares equal to a stored one."""
    return json.loads(json.dumps(summary, default=lambda o: o.item()))
