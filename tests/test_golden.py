"""Golden results: every sample config, run at seed 7, against its committed
result document in ``tests/golden/`` (rewritten by
``tests/golden/regenerate.py``).

Keys, ints, bools, strings and verdicts must match exactly.  An eigenvalue
that carries an error estimate may move within the golden file's estimate,
the rule of ``perfbench/digest.py``; every other float must match to 1e-12
relative.
"""

import json

import pytest

from golden.regenerate import GOLDEN, sample_configs, sample_result

RELATIVE = 1e-12    # every float without an estimate
ROUNDING = 1e-12    # the relative floor digest.py adds to an estimate
# an eigenvalue field and the sibling field holding its error estimate
ESTIMATES = {"value": "error_estimate", "lambda0": "lambda0_error"}


def mismatches(golden, fresh, path="result") -> list:
    """Every place where ``fresh`` departs from ``golden``, one line each."""
    if isinstance(golden, dict) and isinstance(fresh, dict):
        if set(golden) != set(fresh):
            return [f"{path}: keys {sorted(golden)} -> {sorted(fresh)}"]
        found = []
        for key in sorted(golden):
            g, f, where = golden[key], fresh[key], f"{path}.{key}"
            estimate = golden.get(ESTIMATES.get(key))
            if type(estimate) is float and type(g) is float and type(f) is float:
                if abs(f - g) > estimate + ROUNDING * max(1.0, abs(g)):
                    found.append(f"{where}: {g!r} -> {f!r} moved beyond its "
                                 f"estimate {estimate!r}")
            else:
                found += mismatches(g, f, where)
        return found
    if isinstance(golden, list) and isinstance(fresh, list):
        if len(golden) != len(fresh):
            return [f"{path}: length {len(golden)} -> {len(fresh)}"]
        return [line for i, (g, f) in enumerate(zip(golden, fresh))
                for line in mismatches(g, f, f"{path}[{i}]")]
    if type(golden) is float and type(fresh) is float:
        if abs(fresh - golden) <= RELATIVE * abs(golden):
            return []
    elif type(golden) is type(fresh) and golden == fresh:
        return []
    return [f"{path}: {golden!r} -> {fresh!r}"]


@pytest.mark.parametrize("config", sample_configs())
def test_sample_result_matches_golden(config):
    golden = json.loads((GOLDEN / f"{config}.json").read_text(encoding="utf-8"))
    found = mismatches(golden, sample_result(config))
    assert not found, "\n".join(found[:20])


def test_mismatch_rule():
    golden = {"value": 2.0, "error_estimate": 1e-6, "lambda0": 1.0,
              "lambda0_error": 1e-3, "count": 3, "passed": True,
              "norms": [1.0, 0.0], "kind": "circle"}
    assert mismatches(golden, dict(golden)) == []
    moved = {**golden, "value": 2.0 + 5e-7, "lambda0": 1.0 - 9e-4,
             "norms": [1.0 + 1e-13, 0.0]}
    assert mismatches(golden, moved) == []
    for key, value in [("value", 2.0 + 2e-6), ("lambda0", 1.002),
                       ("error_estimate", 1.1e-6), ("count", 3.0),
                       ("count", 4), ("passed", False), ("passed", 1),
                       ("norms", [1.0, 1e-300]), ("norms", [1.0]),
                       ("kind", "sphere")]:
        assert len(mismatches(golden, {**golden, key: value})) == 1, key
    assert mismatches(golden, {**golden, "extra": 1})
