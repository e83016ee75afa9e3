"""Closed-loop benchmark of diraclab: four workloads, one caller, one process.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: bracket, dual-route, spectrum-wide, geometry (see
``workloads.py``).  Every measurement runs in a fresh interpreter started
by this script with the BLAS thread count and DIRAC_LAB_THREADS pinned to 1,
so each process has one caller and no extra threads.

``--trace 0`` reports the end-to-end metrics, untraced: throughput, latency,
set-up time and peak memory.  Times are CPU seconds of the worker scaled to
a nominal host speed by a reference loop sampled while they run (see
``speed.py``); the summary line also gives the raw CPU and wall-clock
figures.  ``--trace 1`` wraps diraclab's public functions from outside the
package and reports per-layer counts and times per operation, the
import-time breakdown, and the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give the machine and a summary.  The full record, with the result
digest, is written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_SAMPLES = 3         # fresh interpreters timed for setup_s, main run included
CHILD_TIMEOUT_S = 170.0
TAIL_BEYOND = 10          # samples required beyond the reported tail percentile
IMPORTS = {"setup.import_s": "diraclab.cli", "setup.import_sympy_s": "sympy",
           "setup.import_scipy_interpolate_s": "scipy.interpolate",
           "setup.import_jsonschema_s": "jsonschema"}


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "DIRAC_LAB_THREADS"):
        env[var] = "1"
    return env


def spawn(args, mode: str) -> dict:
    """Run one worker process; returns its document with ``setup_wall_s`` added."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--mode", mode]
    launch = perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"benchmark worker ({mode}) exited with {proc.returncode}")
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    doc["setup_wall_s"] = doc["ready"] - launch
    return doc


def import_times() -> dict:
    """Cumulative import times of the CLI and its heavy dependencies."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import diraclab.cli"],
                          cwd=ROOT, env=child_env(), capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit("importing diraclab.cli failed")
    cumulative = {}
    for line in proc.stderr.splitlines():
        match = re.match(r"import time:\s+\d+ \|\s+(\d+) \|\s+(\S+)$", line)
        if match:
            cumulative.setdefault(match.group(2), int(match.group(1)) * 1e-6)
    return {metric: cumulative.get(module, 0.0) for metric, module in IMPORTS.items()}


def tail(times):
    """Highest percentile with TAIL_BEYOND samples above it, or None."""
    n = len(times)
    if n < 2 * TAIL_BEYOND:
        return None
    return {"value": sorted(times)[n - TAIL_BEYOND - 1],
            "percentile": 100.0 * (n - TAIL_BEYOND) / n, "samples": n}


def end_to_end(main_doc, setups) -> dict:
    times = main_doc["op_times"]
    return {
        "ops_per_s": (len(times) / sum(times), "1/s"),
        "op_p50_s": (statistics.median(times), "s"),
        "setup_s": (statistics.median(s["setup_scaled_s"] for s in setups), "s"),
        "peak_rss_mb": (main_doc["peak_rss_mb"], "MB"),
    }


def summary(doc) -> dict:
    """Tail latency, the cold first operation, failures, and raw timings.

    ``op_tail_s`` needs 20 operations and the first operation is a single
    sample, so neither is gated; the raw CPU and wall figures show what the
    scaling to the nominal host speed did.
    """
    times = doc["op_times"]
    return {"ops": len(times), "op_tail_s": tail(times),
            "first_op_s": doc["first_op_s"],
            "fail_frac": doc["failed"] / doc["attempted"],
            "cpu_ops_per_s": len(times) / sum(doc["op_cpu_s"]),
            "wall_ops_per_s": len(times) / sum(doc["op_wall_s"]),
            "failures": doc["failures"]}


def per_layer(doc, imports) -> dict:
    layers = doc["layers"]
    ops = len(doc["traced_times"])
    traced_cpu_s = sum(doc["traced_cpu_s"])
    out = {}

    def put(name, value, unit):
        out[name] = (value, unit)

    def per_op(layer, keys):
        units = {"calls": "calls/op", "busy_s": "s/op", "self_s": "s/op",
                 "rows": "rows/op", "computed_bytes": "B/op"}
        for key in keys:
            put(f"{layer}.{key}", layers[layer].get(key, 0.0) / ops, units[key])

    tri = layers["sturm.tridiagonal_lowest"]
    per_op("sturm.tridiagonal_lowest", ("calls", "busy_s", "rows"))
    put("sturm.tridiagonal_lowest.s_per_row",
        tri["busy_s"] / tri["rows"] if tri.get("rows") else 0.0, "s")
    put("sturm.tridiagonal_lowest.share", tri["busy_s"] / traced_cpu_s, "frac")
    per_op("sturm.solve_transformed", ("calls", "busy_s", "self_s"))
    per_op("sturm.solve_direct", ("calls", "busy_s", "self_s", "computed_bytes"))
    put("sturm.err_est_max", doc["readings"]["sturm.err_est_max"], "1")
    put("sturm.route_defect_ratio_max",
        doc["readings"]["sturm.route_defect_ratio_max"], "1")
    asm = layers["assemble.assemble_spectrum"]
    per_op("assemble.assemble_spectrum", ("calls", "busy_s", "self_s"))
    put("assemble.branches_solved", asm.get("branches_solved", 0.0) / ops, "branches/op")
    put("assemble.branches_skipped", asm.get("branches_skipped", 0.0) / ops, "branches/op")
    put("assemble.useful_solve_ratio",
        asm["useful_branches"] / asm["branches_solved"]
        if asm.get("branches_solved") else 0.0, "frac")
    per_op("profiles.rho", ("calls", "busy_s"))
    per_op("profiles.mollified_step", ("calls", "busy_s"))
    for name in ("hk_norm_sq", "piece_volumes", "normalized_unit_volume",
                 "build_neck_family"):
        per_op(f"metrics.{name}", ("busy_s",))
    per_op("stretch.run_stretch_sweep", ("busy_s", "self_s"))
    per_op("stretch.sobolev_growth_fit", ("busy_s", "self_s"))
    per_op("bracketing.bracketing_check", ("calls", "busy_s", "self_s"))
    put("bracketing.piece_solves",
        layers["bracketing.bracketing_check"].get("piece_solves", 0.0) / ops, "solves/op")
    put("bracketing.min_margin", doc["readings"]["bracketing.min_margin"], "1")
    for name in ("transverse.circle_spectrum", "transverse.discrete_circle_oracle",
                 "circle.bg_first_variation", "circle.annihilation_flow",
                 "circle.circle_eigenpairs", "catalog.existence_certificate"):
        per_op(name, ("busy_s",))
    for name, value in imports.items():
        put(name, value, "s")
    put("schemas.validate_config_s", doc["validate_s"], "s")
    put("trace.overhead_frac",
        sum(doc["traced_times"]) / sum(doc["op_times"]) - 1.0, "frac")
    put("trace.ops", float(ops), "ops")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "diraclab").is_dir():
        raise SystemExit("no diraclab sources next to perfbench/; run from a checkout")
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    if args.trace:
        imports = import_times()
        doc = spawn(args, "trace")
        metrics = per_layer(doc, imports)
    else:
        setups = [spawn(args, "setup") for _ in range(SETUP_SAMPLES - 1)]
        doc = spawn(args, "run")
        setups.append(doc)
        metrics = end_to_end(doc, setups)
        doc["setup_samples"] = [{k: s[k] for k in ("setup_scaled_s", "setup_cpu_s",
                                                   "setup_wall_s")} for s in setups]

    info = summary(doc)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": doc["machine"],
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
              "summary": info,
              **{k: doc[k] for k in ("op_times", "op_cpu_s", "op_wall_s",
                                     "reference_rounds", "digest", "readings", "setup_samples",
                                     "traced_times", "traced_cpu_s", "layers")
                 if k in doc}}
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print(json.dumps({"machine": doc["machine"]}))
    print(json.dumps({"workload": args.workload, **info}))
    print(json.dumps({"correct": doc["failed"] == 0, "attempted": doc["attempted"],
                      "failed": doc["failed"], "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
