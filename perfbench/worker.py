"""One benchmark process: set-up, the first (cold) operation, the timed loop.

Started by ``run.py`` in a fresh interpreter with the BLAS and diraclab
thread counts pinned.  Modes:

* ``setup``: stop once the first operation is ready.
* ``run``: time the first (cold) operation, then loop untraced for
  ``--seconds``.
* ``trace``: loop untraced for half the time, then repeat the same
  operations with the tracer installed.

Times are CPU seconds of the process's one thread, which leave out the time
it waits for a CPU, scaled to a nominal host speed by ``speed.Sampler`` (raw
CPU and wall-clock times are kept beside them).  A loop ends at a whole number of its
workload's input cycles, so every run holds the same mix of inputs.

Prints one JSON document as the last line of standard output.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter

import speed

SAMPLER = speed.Sampler(speed.float_round)  # started first: set-up is scaled too

import diraclab.cli  # noqa: E402,F401  (set-up pays for the CLI's import chain)
import numpy as np  # noqa: E402
import scipy  # noqa: E402
from diraclab import schemas  # noqa: E402

import tracer  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
DIGEST_OPS = 3            # leading operations whose eigenvalues are digested
MIN_LOOP_OPS = 2          # timed operations even when one outlasts the run


def _setup(name: str, seed: int):
    """Validate the sample config and draw the first inputs."""
    if name not in workloads.WORKLOADS:
        raise SystemExit(f"unknown workload {name!r}; choose from "
                         f"{', '.join(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[name]
    config = json.loads((ROOT / "configs" / wl.config).read_text(encoding="utf-8"))
    t0 = SAMPLER.cpu()
    schemas.validate_config(config, getattr(schemas, wl.schema), wl.name)
    validate_s = SAMPLER.cpu() - t0
    rng = np.random.default_rng(seed)
    inputs = [wl.draw(rng, i) for i in range(DIGEST_OPS)]
    return wl, rng, inputs, validate_s


class Stream:
    """The seeded sequence of operation inputs, drawn on demand in order."""

    def __init__(self, wl, rng, inputs):
        self.wl, self.rng, self.inputs = wl, rng, inputs

    def __getitem__(self, i):
        while len(self.inputs) <= i:
            self.inputs.append(self.wl.draw(self.rng, len(self.inputs)))
        return self.inputs[i]


class Clock:
    """Times operations in nominal seconds, CPU seconds and wall seconds."""

    def __init__(self):
        self.scaled, self.cpu, self.wall = [], [], []

    def attempt(self, wl, x, failures):
        """Run one operation; returns its outputs, or None when it raised."""
        w0, c0 = perf_counter(), SAMPLER.mark()
        try:
            out = wl.run(x)
        except Exception:  # an operation that raises counts as failed
            out = None
            failures.append(traceback.format_exc(limit=3))
        c1, w1 = SAMPLER.mark(), perf_counter()
        scaled, cpu = SAMPLER.scale(c0, c1)
        self.scaled.append(scaled)
        self.cpu.append(cpu)
        self.wall.append(w1 - w0)
        if out is not None:
            problems = wl.check(x, out)
            if problems:
                failures.append("; ".join(problems))
        return out


def _loop(wl, stream, clock, start, seconds, failures, digest):
    """Operations start, start+1, ... for ``seconds`` of wall time, then on
    to the end of the current input cycle; returns how many ran."""
    t_end = perf_counter() + seconds
    i = start
    while (perf_counter() < t_end or i - start < MIN_LOOP_OPS
           or (i - start) % wl.cycle):
        x = stream[i]
        out = clock.attempt(wl, x, failures)
        if i < DIGEST_OPS and out is not None:
            digest.append((i, x, out))
        i += 1
    return i - start


def _machine() -> dict:
    blas = "unknown"
    try:
        info = np.show_config(mode="dicts")
        blas = info["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        pass
    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numba_present": importlib.util.find_spec("numba") is not None,
        "blas": blas,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "process_threads": len(os.listdir("/proc/self/task")),
        "DIRAC_LAB_THREADS": os.environ.get("DIRAC_LAB_THREADS"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    args = parser.parse_args(argv)

    wl, rng, inputs, validate_s = _setup(args.workload, args.seed)
    ready = perf_counter()
    setup_scaled_s, setup_cpu_s = SAMPLER.scale((0.0, 0), SAMPLER.mark())
    SAMPLER.reference = speed.array_round
    doc = {"ready": ready, "setup_scaled_s": setup_scaled_s,
           "setup_cpu_s": setup_cpu_s, "validate_s": validate_s}
    if args.mode == "setup":
        SAMPLER.stop()
        print(json.dumps(doc))
        return 0

    stream = Stream(wl, rng, inputs)
    failures, digest = [], []
    clock = Clock()
    out = clock.attempt(wl, stream[0], failures)
    if out is not None:
        digest.append((0, stream[0], out))

    seconds = args.seconds if args.mode == "run" else args.seconds / 2.0
    ops = _loop(wl, stream, clock, 1, seconds, failures, digest)
    doc.update(first_op_s=clock.scaled[0], op_times=clock.scaled[1:],
               op_cpu_s=clock.cpu[1:], op_wall_s=clock.wall[1:])

    if args.mode == "trace":
        recorder = tracer.Tracer(SAMPLER.cpu)
        uninstall = tracer.install(recorder)
        traced = Clock()
        try:
            for i in range(1, 1 + ops):
                traced.attempt(wl, stream[i], failures)
        finally:
            uninstall()
        doc.update(traced_times=traced.scaled, traced_cpu_s=traced.cpu,
                   layers=recorder.stats)

    doc.update(attempted=1 + ops + len(doc.get("traced_times", [])),
               failed=len(failures), failures=failures[:5],
               digest=[{"op": i, "values": wl.digest(x, out)} for i, x, out in digest],
               readings=workloads.readings(wl.name, [o for _, _, o in digest]),
               peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
               machine=_machine())
    SAMPLER.stop()
    doc["reference_rounds"] = len(SAMPLER.speedups)
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
