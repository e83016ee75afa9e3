"""Rewrite the golden result documents of the sample configs.

    PYTHONPATH=src python3 tests/golden/regenerate.py

Runs every config in ``configs/`` through the command-line driver at seed 7
and writes the ``result`` document of its output to
``tests/golden/<config>.json``, which ``tests/test_golden.py`` compares fresh
runs against.  A change that reruns this lists every moved field in
CHANGES.md, with its move against its old error estimate.
"""

import json
import tempfile
from pathlib import Path

from diraclab.cli import main

GOLDEN = Path(__file__).resolve().parent
CONFIGS = GOLDEN.parents[1] / "configs"
SEED = 7


def sample_configs() -> list:
    return sorted(p.stem for p in CONFIGS.glob("*.json"))


def sample_result(config: str) -> dict:
    """The result document of one sample config, run at the golden seed."""
    command = config.split("_")[0]
    with tempfile.TemporaryDirectory() as out:
        code = main([command, "--config", str(CONFIGS / f"{config}.json"),
                     "--out", out, "--seed", str(SEED)])
        if code != 0:
            raise RuntimeError(f"sample config {config} exited with {code}")
        text = (Path(out) / f"{command}.json").read_text(encoding="utf-8")
    return json.loads(text)["result"]


def write_golden() -> None:
    for config in sample_configs():
        path = GOLDEN / f"{config}.json"
        path.write_text(json.dumps(sample_result(config), indent=1,
                                   sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    write_golden()
