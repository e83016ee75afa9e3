"""Golden results: every sample config, run at seed 7, against its committed
result document in ``tests/golden/`` (rewritten by
``tests/golden/regenerate.py``).

Keys, ints, bools, strings and verdicts must match exactly.  An eigenvalue
that carries an error estimate may move within the golden file's estimate,
the rule of ``perfbench/digest.py``; every other float must match to 1e-12
relative.  The rule, :func:`golden.regenerate.mismatches`, is the one the
regeneration script lists moved fields with.
"""

import json

import pytest

from golden.regenerate import GOLDEN, mismatches, sample_configs, sample_result


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


def test_exact_listing_names_every_move_with_its_estimate():
    golden = {"value": 2.0, "error_estimate": 1e-6, "norms": [1.0, 0.0],
              "count": 3}
    moved = {**golden, "value": 2.0 + 5e-7, "error_estimate": 1.0000000000001e-6,
             "norms": [1.0 + 1e-13, 0.0]}
    # within the gate, and every move listed by the regeneration script
    assert mismatches(golden, moved) == []
    assert mismatches(golden, moved, exact=True) == [
        "result.error_estimate: 1e-06 -> 1.0000000000001e-06, moved 9.99e-20",
        "result.norms[0]: 1.0 -> 1.0000000000001, moved 9.99e-14",
        "result.value: 2.0 -> 2.0000005, moved 5e-07 against its estimate 1e-06"]
    assert mismatches(golden, dict(golden), exact=True) == []
