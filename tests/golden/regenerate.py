"""Rewrite the golden result documents of the sample configs.

    PYTHONPATH=src python3 tests/golden/regenerate.py

Runs every config in ``configs/`` through the command-line driver at seed 7
and writes the ``result`` document of its output to
``tests/golden/<config>.json``, which ``tests/test_golden.py`` compares fresh
runs against with :func:`mismatches`.  Before it rewrites a file it prints
every field that moves, one line each as ``<config>: <path>: old -> new``,
with the size of the move and, for an eigenvalue, its old error estimate; a
change that reruns this copies those lines into CHANGES.md.
"""

import io
import json
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

from diraclab.cli import main

GOLDEN = Path(__file__).resolve().parent
CONFIGS = GOLDEN.parents[1] / "configs"
SEED = 7
RELATIVE = 1e-12    # every float without an estimate
ROUNDING = 1e-12    # the relative floor digest.py adds to an estimate
# an eigenvalue field and the sibling field holding its error estimate
ESTIMATES = {"value": "error_estimate", "lambda0": "lambda0_error"}


def sample_configs() -> list:
    return sorted(p.stem for p in CONFIGS.glob("*.json"))


def sample_result(config: str) -> dict:
    """The result document of one sample config, run at the golden seed."""
    command = config.split("_")[0]
    with tempfile.TemporaryDirectory() as out, redirect_stdout(io.StringIO()):
        code = main([command, "--config", str(CONFIGS / f"{config}.json"),
                     "--out", out, "--seed", str(SEED)])
        if code != 0:
            raise RuntimeError(f"sample config {config} exited with {code}")
        text = (Path(out) / f"{command}.json").read_text(encoding="utf-8")
    return json.loads(text)["result"]


def mismatches(golden, fresh, path="result", exact=False) -> list:
    """Every place where ``fresh`` departs from ``golden``, one line each.

    Keys, ints, bools and strings must match exactly.  An eigenvalue that
    carries an error estimate may move within the golden document's
    estimate, plus a rounding floor of 1e-12 relative; every other float
    may move by 1e-12 relative.  With ``exact`` every float that moves at
    all is listed.
    """
    if isinstance(golden, dict) and isinstance(fresh, dict):
        if set(golden) != set(fresh):
            return [f"{path}: keys {sorted(golden)} -> {sorted(fresh)}"]
        found = []
        for key in sorted(golden):
            g, f, where = golden[key], fresh[key], f"{path}.{key}"
            estimate = golden.get(ESTIMATES.get(key))
            if type(estimate) is float and type(g) is float and type(f) is float:
                allowed = 0.0 if exact else estimate + ROUNDING * max(1.0, abs(g))
                if abs(f - g) > allowed:
                    found.append(f"{where}: {g!r} -> {f!r}, moved "
                                 f"{abs(f - g):.3g} against its estimate "
                                 f"{estimate!r}")
            else:
                found += mismatches(g, f, where, exact)
        return found
    if isinstance(golden, list) and isinstance(fresh, list):
        if len(golden) != len(fresh):
            return [f"{path}: length {len(golden)} -> {len(fresh)}"]
        return [line for i, (g, f) in enumerate(zip(golden, fresh))
                for line in mismatches(g, f, f"{path}[{i}]", exact)]
    if type(golden) is float and type(fresh) is float:
        if abs(fresh - golden) <= (0.0 if exact else RELATIVE * abs(golden)):
            return []
        return [f"{path}: {golden!r} -> {fresh!r}, moved {abs(fresh - golden):.3g}"]
    if type(golden) is type(fresh) and golden == fresh:
        return []
    return [f"{path}: {golden!r} -> {fresh!r}"]


def write_golden() -> None:
    """Rewrite every golden file, printing first each field that moves."""
    for config in sample_configs():
        path = GOLDEN / f"{config}.json"
        fresh = sample_result(config)
        if path.exists():
            old = json.loads(path.read_text(encoding="utf-8"))
            for line in mismatches(old, fresh, exact=True):
                print(f"{config}: {line}")
        path.write_text(json.dumps(fresh, indent=1, sort_keys=True) + "\n",
                        encoding="utf-8")


if __name__ == "__main__":
    write_golden()
