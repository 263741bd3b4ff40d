#!/usr/bin/env python3
"""Benchmark for secantdim: three closed-loop workloads, checked outputs.

Run from the root of a checkout:

    python3 bench/run.py --workload scan --seed 1 --seconds 35 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics (see bench/README.md).  The script times set-up in fresh
interpreters, runs the workload in one more fresh interpreter
(``workloads.py``), and prints a report line followed by the result line:
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  It needs nothing beyond the standard library; the child
processes need numpy.  It exits 2 when the checkout has no package source.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_REPEATS = 9
SETUP_CODE = "import secantdim\nsecantdim.PrimeField()\n"
CHILD_TIMEOUT_S = 170
BLAS_THREADS = 1


def quantile(values, q: float) -> float:
    """Linear interpolation between closest ranks (inclusive method)."""
    data = sorted(values)
    pos = q * (len(data) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def summary(values, scale: float = 1.0) -> dict:
    vals = [v * scale for v in values]
    return {"median": statistics.median(vals), "q1": quantile(vals, 0.25),
            "q3": quantile(vals, 0.75), "n": len(vals)}


def declared_units(kind: str) -> dict:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="ascii") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def with_units(values: dict, kind: str) -> dict:
    units = declared_units(kind)
    if set(values) != set(units):
        raise ValueError(f"{kind} metrics differ from BENCHMARK.json: "
                         f"{sorted(set(values) ^ set(units))}")
    return {name: {"value": values[name], "unit": units[name]} for name in units}


def child_env() -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def time_setup(env: dict) -> float:
    """Fresh interpreter to ``import secantdim`` plus a PrimeField, and exit."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT,
                   check=True, timeout=60)
    return time.perf_counter() - start


def git_commit() -> str | None:
    """HEAD's commit read from .git, or None (the checkout may not be a
    git repository)."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="ascii") as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:]), encoding="ascii") as fh:
                ref = fh.read().strip()
    except OSError:
        return None
    return ref


def machine() -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": cpu or platform.processor(),
            "python": platform.python_version(), "git_commit": git_commit(),
            "blas_threads": BLAS_THREADS}


def run_child(args, env: dict) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "workloads.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--root", ROOT]
    proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                          timeout=CHILD_TIMEOUT_S, check=True, text=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("scan", "prove", "certify"),
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out", help="also write report and result to this file")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "secantdim", "__init__.py")):
        print(f"error: no package source under {ROOT}/src", file=sys.stderr)
        return 2
    env = child_env()
    load_start = os.getloadavg()
    try:
        setup = [time_setup(env) for _ in range(SETUP_REPEATS)]
        child = run_child(args, env)
    except (subprocess.SubprocessError, OSError, ValueError) as exc:
        print(f"error: benchmark process failed: {exc}", file=sys.stderr)
        return 1
    load_end = os.getloadavg()

    failed = min(len(child["failures"]), child["attempted"])
    correct = failed == 0
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, **machine(), "numpy": child["numpy"],
        "loadavg_start": load_start, "loadavg_end": load_end,
        "untraced_passes": len(child["untraced_walls"]),
        "traced_passes": len(child["traced_walls"]),
        "failures": child["failures"][:20],
        "known_label_defects": child["label_mismatches"],
    }
    metrics: dict = {}
    if args.trace:
        report["layers"] = child["layers"]
        if correct:
            metrics = with_units(child["layers"], "per_layer")
    else:
        stats = {
            "wall_s": summary(child["untraced_walls"]),
            "item_p50_ms": summary(child["items_s"], 1e3),
            "setup_s": summary(setup),
        }
        items_ms = [v * 1e3 for v in child["items_s"]]
        stats["item_p95_ms"] = {"value": quantile(items_ms, 0.95), "n": len(items_ms)}
        peak = child["peak_rss_kb"] / 1024
        report["end_to_end"] = {**stats, "peak_rss_mb": {"value": peak, "n": 1}}
        if correct:
            metrics = {
                "wall_s": stats["wall_s"]["median"],
                "item_p50_ms": stats["item_p50_ms"]["median"],
                "item_p95_ms": stats["item_p95_ms"]["value"],
                "peak_rss_mb": peak,
                "setup_s": stats["setup_s"]["median"],
            }
            metrics = with_units(metrics, "end_to_end")
    result = {"correct": correct, "attempted": child["attempted"],
              "failed": failed, "metrics": metrics}
    if args.out:
        with open(args.out, "w", encoding="ascii") as fh:
            json.dump({"report": report, "result": result}, fh, indent=1)
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
