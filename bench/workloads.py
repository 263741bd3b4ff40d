"""One benchmark run of one workload, in a fresh process.

``run.py`` starts this script with ``PYTHONPATH`` pointing at the checkout's
``src`` and the BLAS thread cap set; it is not meant to be run by hand.  The
process repeats whole passes over the workload's input until ``--seconds``
is used up (at least ``MIN_PASSES``), checks every output against
``reference``, and prints one JSON object as its last line of stdout.

Untraced runs time passes and single queries from outside.  Traced runs
first time fixed-shape kernel probes, then alternate untraced and traced
passes so that the trace overhead is measured within one process.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time

import numpy as np

import reference
import tracing
from secantdim import bounds, certificates, field, prover, scan, strassen

clock = time.perf_counter

MIN_PASSES = 3
TRIALS = 3
PROOF_CHECK_STRIDE = 11
# Largest stacked matrix each workload hands to the rank kernel: the s = 25
# stack of the (8, 8) scan cell, and the R_over(9, 9) certificate (360
# window rows plus 43 tangent spaces of 20 rows, over 10 * C(11, 2) columns).
PROBE_SCAN_SHAPE = (450, 405)
PROBE_CERTIFY_SHAPE = (1220, 550)
PROBE_PFAFFIAN_ORDERS = (30, 66)


@dataclasses.dataclass
class Pass:
    """Timed outputs of one pass over a workload's input."""

    wall: float
    items: list[float]
    outputs: object


@dataclasses.dataclass
class Checked:
    """Result of checking one pass: counts, failure notes, layer facts."""

    attempted: int
    failures: list[str] = dataclasses.field(default_factory=list)
    info: dict = dataclasses.field(default_factory=dict)

    def fail(self, note: str) -> None:
        self.failures.append(note)


# -- scan ---------------------------------------------------------------------

class ScanWorkload:
    """``run_scan`` over the 8 x 8 grid with a fresh cache file per pass."""

    def __init__(self, seed: int, workdir: str) -> None:
        self.seed = seed
        self.cache_path = os.path.join(workdir, "scan_cache.jsonl")
        self.cells = reference.scan_cells()

    def run(self) -> Pass:
        if os.path.exists(self.cache_path):
            os.remove(self.cache_path)
        start = clock()
        try:
            out = scan.run_scan(reference.GRID, reference.GRID, seed=self.seed,
                                trials=TRIALS, jobs=1, cache_path=self.cache_path)
        except Exception as exc:
            out = exc
        wall = clock() - start
        # One scan is the query a scan user waits for.
        return Pass(wall, [wall], out)

    def check(self, done: Pass) -> Checked:
        res = Checked(len(self.cells))
        records = done.outputs
        if isinstance(records, Exception):
            res.failures = [f"run_scan raised {records!r}"] * len(self.cells)
            return res
        by_cell = {(r["m"], r["n"], r["s"]): r for r in records}
        if len(by_cell) != len(records) or set(by_cell) != set(self.cells):
            res.fail(f"scan returned {len(records)} records for "
                     f"{len(self.cells)} cells")
        mismatches = []
        for cell in self.cells:
            rec = by_cell.get(cell)
            if rec is None:
                res.fail(f"no record for {cell}")
                continue
            want_rank = reference.true_rank(*cell)
            want_expected = reference.expected(*cell)
            if (rec["rank"], rec["expected"], rec["defect"]) != \
                    (want_rank, want_expected, want_expected - want_rank):
                res.fail(f"{cell}: rank {rec['rank']}/{rec['expected']}, "
                         f"want {want_rank}/{want_expected}")
            elif rec["agree"] != ((rec["defect"] > 0)
                                  == rec["conjecture"].startswith("defective")):
                res.fail(f"{cell}: agree {rec['agree']} contradicts the record")
            elif rec["conjecture"] != reference.conjecture(*cell):
                if cell in reference.KNOWN_LABEL_DEFECTS:
                    mismatches.append(cell)
                else:
                    res.fail(f"{cell}: labelled {rec['conjecture']}, want "
                             f"{reference.conjecture(*cell)}")
        try:
            with open(self.cache_path, encoding="ascii") as fh:
                cached = [json.loads(line) for line in fh if line.strip()]
            if sorted((r["m"], r["n"], r["s"]) for r in cached) != sorted(self.cells):
                res.fail(f"cache holds {len(cached)} records, want one per cell")
        except (OSError, ValueError, KeyError) as exc:
            res.fail(f"cache unreadable: {exc!r}")
        res.info = {"cells": len(records), "label_mismatches": mismatches,
                    "cache_bytes": (os.path.getsize(self.cache_path)
                                    if os.path.exists(self.cache_path) else 0)}
        return res


# -- prove --------------------------------------------------------------------

class ProveWorkload:
    """One prover with one shared store, queried once per grid statement."""

    def __init__(self, seed: int, workdir: str) -> None:
        self.seed = seed
        self.queries = [bounds.Statement(m, n, 2, s, 0)
                        for m, n, s in reference.prove_queries()]

    def run(self) -> Pass:
        prv = prover.Prover(store=prover.StatementStore(), seed=self.seed,
                            trials=TRIALS)
        items, nodes = [], []
        start = clock()
        for st in self.queries:
            t0 = clock()
            try:
                node = prv.prove(st)
            except Exception as exc:
                node = exc
            items.append(clock() - t0)
            nodes.append(node)
        wall = clock() - start
        return Pass(wall, items, (nodes, len(prv.store)))

    def check(self, done: Pass) -> Checked:
        nodes, store_entries = done.outputs
        res = Checked(len(self.queries))
        leaves = rank_leaves = 0
        for st, node in zip(self.queries, nodes):
            if isinstance(node, Exception):
                res.fail(f"prove{st.key} raised {node!r}")
            elif not reference.provable(st.m, st.n, st.s):
                if node is not None:
                    res.fail(f"prove{st.key} proved a defective statement")
            elif node is None:
                res.fail(f"prove{st.key} came back unknown")
            elif node.statement != st:
                res.fail(f"prove{st.key} returned a proof of {node.statement}")
            else:
                for leaf in node.leaves():
                    leaves += 1
                    rank_leaves += leaf.rule == "base_rank_certificate"
        res.info = {"store_entries": store_entries,
                    "rank_leaf_share": rank_leaves / leaves if leaves else 0.0}
        return res

    def check_proofs(self, done: Pass) -> Checked:
        """Re-validate a fixed sample of proof trees with ``check_proof``."""
        nodes, _ = done.outputs
        sample = [node for node in nodes[::PROOF_CHECK_STRIDE]
                  if isinstance(node, prover.ProofNode)]
        res = Checked(len(sample))
        for node in sample:
            try:
                prover.check_proof(node, seed=self.seed, trials=TRIALS)
            except Exception as exc:
                res.fail(f"check_proof{node.statement.key}: {exc!r}")
        return res


# -- certify ------------------------------------------------------------------

class CertifyWorkload:
    """Window certificates up to m, n = 9 and Strassen Pfaffians for k <= 7."""

    def __init__(self, seed: int, workdir: str) -> None:
        self.seed = seed
        self.field = field.PrimeField(field.PRIMARY_PRIME)
        # Inputs are drawn before any timing: for each (k, j) the points of
        # a sum of 3k + 2 decomposables and one generic tensor.
        self.strassen_inputs = []
        for k in reference.STRASSEN_K:
            for j in range(reference.STRASSEN_SEEDS):
                rng = field.SeededRng(field.derive_seed(seed, "bench-sum", k, j),
                                      self.field)
                gen = field.SeededRng(field.derive_seed(seed, "bench-gen", k, j),
                                      self.field)
                self.strassen_inputs.append(
                    (k, strassen.random_points(rng, 3 * k + 2, k),
                     strassen.random_tensor(gen, k)))

    def _certificate(self, name: str, args: tuple):
        fn = getattr(certificates, name)
        if name == "witness_Rmm":
            return fn(*args, field=self.field)
        return fn(*args, seed=self.seed, trials=TRIALS, field=self.field).outcome

    def _strassen(self, k: int, points, tensor) -> tuple[int, int]:
        """The Pfaffian certificate: Pf vanishes on the (3k+2)-term sum and
        the generic skew matrix has full rank."""
        return (strassen.pfaffian_certificate(points, k, self.field),
                field.rank(strassen.strassen_matrix(tensor)))

    def run(self) -> Pass:
        items, outs = [], []

        def timed(call, *args):
            t0 = clock()
            try:
                out = call(*args)
            except Exception as exc:
                out = exc
            items.append(clock() - t0)
            outs.append(out)

        start = clock()
        for name, args in reference.CERTIFICATES:
            timed(self._certificate, name, args)
        for k, points, tensor in self.strassen_inputs:
            timed(self._strassen, k, points, tensor)
        wall = clock() - start
        return Pass(wall, items, outs)

    def check(self, done: Pass) -> Checked:
        wants = [(f"{name}{args}", "true" if name != "witness_Rmm" else True)
                 for name, args in reference.CERTIFICATES]
        wants += [(f"(Pfaffian of a {3 * k + 2}-term sum, generic rank), k={k}",
                   (0, 6 * k + 6)) for k, _points, _tensor in self.strassen_inputs]
        res = Checked(len(wants))
        if len(done.outputs) != len(wants):
            res.fail(f"{len(done.outputs)} outputs for {len(wants)} items")
        for (label, want), got in zip(wants, done.outputs):
            if isinstance(got, Exception) or got != want:
                res.fail(f"{label}: got {got!r}, want {want!r}")
        return res


WORKLOADS = {"scan": ScanWorkload, "prove": ProveWorkload,
             "certify": CertifyWorkload}


# -- traced-run extras ----------------------------------------------------------

def kernel_probes(seed: int) -> tuple[dict, list[str]]:
    """Median times of the rank kernel and the Pfaffian at fixed shapes."""
    fld = field.PrimeField(field.PRIMARY_PRIME)
    rng = field.SeededRng(field.derive_seed(seed, "bench-probe"), fld)
    out, failures = {}, []

    def median_time(call, repeats):
        times = []
        for _ in range(repeats):
            t0 = clock()
            call()
            times.append(clock() - t0)
        return statistics.median(times)

    for metric, (rows, cols), repeats in (
            ("field.rank.probe_scan_s", PROBE_SCAN_SHAPE, 5),
            ("field.rank.probe_certify_s", PROBE_CERTIFY_SHAPE, 3)):
        mat = field.DenseMatrix(rng.elements(rows * cols).reshape(rows, cols), fld)
        if field.rank(mat) != min(rows, cols):
            failures.append(f"random {rows}x{cols} matrix is not of full rank")
        out[metric] = median_time(lambda: field.rank(mat), repeats)
    for order in PROBE_PFAFFIAN_ORDERS:
        upper = np.triu(rng.elements(order * order).reshape(order, order), 1)
        mat = field.DenseMatrix((upper - upper.T) % fld.p, fld)
        name = "field.pfaffian.probe_s" if order == max(PROBE_PFAFFIAN_ORDERS) \
            else f"field.pfaffian.probe{order}_s"
        out[name] = median_time(lambda: field.pfaffian(mat), 11)
    return out, failures


def layer_metrics(tracer: tracing.Tracer, checked: Checked) -> dict:
    calls, total, self_s = tracer.totals()
    shapes = tracer.rank_shapes
    gops = sum(r * c * min(r, c) for r, c in shapes) / 1e9
    trials = tracer.verdict_trials
    cross = sum(n // 2 for n in tracer.children_per_span(
        "certificates.eval_statement_checked", "certificates.eval_statement"))
    info = checked.info
    return {
        "field.rank.calls": calls["field.rank"],
        "field.rank.s": total["field.rank"],
        "field.rank.nominal_gops": gops,
        "field.rank.gops_per_s": gops / total["field.rank"] if shapes else 0.0,
        "field.rank.max_entries": max((r * c for r, c in shapes), default=0),
        "field.pfaffian.calls": calls["field.pfaffian"],
        "field.pfaffian.s": total["field.pfaffian"],
        "tensorspace.tangent_rows.calls": calls["tensorspace.tangent_rows"],
        "tensorspace.tangent_rows.s": total["tensorspace.tangent_rows"],
        "tensorspace.sample_point.calls": calls["tensorspace.sample_point"],
        "tensorspace.subspace_rows.s": total["tensorspace.subspace_rows"],
        "certificates.eval_statement.calls": calls["certificates.eval_statement"],
        "certificates.eval_statement.self_s": self_s.get("certificates.eval_statement", 0.0),
        "certificates.trials_used": sum(trials),
        "certificates.first_trial_ratio": len(trials) / sum(trials) if trials else 0.0,
        "certificates.cross_prime_calls": cross,
        "certificates.certify.calls": calls["certificates.certify"],
        "certificates.certify.s": total["certificates.certify"],
        "prover.prove.calls": calls["prover.prove"],
        "prover.self_s": self_s.get("prover.prove", 0.0),
        "prover.store_entries": info.get("store_entries", 0),
        "prover.classify_calls": tracer.counts["prover.classify"],
        "prover.rank_leaf_share": info.get("rank_leaf_share", 0.0),
        "scan.cells": info.get("cells", 0),
        "scan.self_s": self_s.get("scan.run_scan", 0.0),
        "scan.cache_bytes": info.get("cache_bytes", 0),
        "scan.label_mismatches": len(info.get("label_mismatches", ())),
        "strassen.build_s": total["strassen.build"],
    }


# -- pass loop --------------------------------------------------------------

def run(args) -> dict:
    src = os.path.realpath(os.path.join(args.root, "src"))
    if not os.path.realpath(certificates.__file__).startswith(src + os.sep):
        raise RuntimeError(f"secantdim imported from {certificates.__file__}, "
                           f"not from {src}")
    out: dict = {"attempted": 0, "failures": [], "untraced_walls": [],
                 "traced_walls": [], "items_s": []}
    mismatches: set = set()

    def account(checked: Checked) -> None:
        out["attempted"] += checked.attempted
        out["failures"].extend(checked.failures)

    scratch_root = os.path.join(args.root, ".bench_tmp")
    os.makedirs(scratch_root, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=scratch_root)
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        start = clock()
        if args.trace:
            probes, failures = kernel_probes(args.seed)
            out["failures"].extend(failures)
        layer_runs = []
        passes = 0
        last = None
        while True:
            traced = bool(args.trace) and passes % 2 == 1
            t0 = clock()
            if traced:
                with tracing.Tracer() as tracer:
                    tracing.install(tracer)
                    done = workload.run()
            else:
                done = workload.run()
            checked = workload.check(done)
            account(checked)
            mismatches.update(checked.info.get("label_mismatches", ()))
            if traced:
                out["traced_walls"].append(done.wall)
                layer_runs.append(layer_metrics(tracer, checked))
            else:
                out["untraced_walls"].append(done.wall)
                out["items_s"].extend(done.items)
                last = done
            passes += 1
            took = clock() - t0
            if passes >= MIN_PASSES and clock() + took > start + args.seconds:
                break
        if isinstance(workload, ProveWorkload):
            account(workload.check_proofs(last))
        if args.trace:
            layers = {name: statistics.median(lr[name] for lr in layer_runs)
                      for name in layer_runs[0]}
            layers.update(probes)
            layers["trace.overhead_ratio"] = (statistics.median(out["traced_walls"])
                                              / statistics.median(out["untraced_walls"]))
            out["layers"] = layers
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(scratch_root)
        except OSError:
            pass
    out["label_mismatches"] = sorted(mismatches)
    out["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    out["numpy"] = np.__version__
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--root", required=True)
    args = parser.parse_args(argv)
    print(json.dumps(run(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
