"""The benchmark's contract with the package, in tier 1.

perfbench runs each workload in a worker process.  An operation that raises
only counts as failed, but the worker itself exits 1 when its set-up fails
(the imports, or validating the workload's sample config against its
schema) or when ``check``, ``digest`` or ``readings`` raise, since those run
outside the operation's ``try``.  This test takes every workload through
those same steps on its first two operations, untraced and then with
``perfbench/tracer.py`` installed over the package, as ``--trace`` runs
them.  It loads ``perfbench/workloads.py`` and ``tracer.py`` by path and
leaves ``worker.py`` alone, since importing that starts the speed sampler.
"""

import importlib.util
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from diraclab import profiles, schemas

ROOT = Path(__file__).resolve().parents[1]
SEED = 7            # ops 0 and 1 of the seeded stream


def _load(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


WORKLOADS = _load("workloads")
TRACER = _load("tracer")
# layers that only the workload's own code reaches, so a wrapper that does
# not take shows up as zero calls
OWN_LAYERS = {
    "bracket": ["bracketing.bracketing_check"],
    "dual-route": ["profiles.rho", "sturm.solve_direct"],
    "geometry": ["profiles.mollified_step", "metrics.build_neck_family",
                 "circle.bg_first_variation", "catalog.existence_certificate"],
    "spectrum-wide": ["assemble.assemble_spectrum", "transverse.circle_spectrum"],
}


def _digests(wl):
    rng = np.random.default_rng(SEED)
    return [wl.digest(x, wl.run(x)) for x in (wl.draw(rng, i) for i in range(2))]


@pytest.mark.parametrize("name", sorted(WORKLOADS.WORKLOADS))
def test_a_workload_sets_up_runs_checks_and_digests(name):
    wl = WORKLOADS.WORKLOADS[name]
    config = json.loads((ROOT / "configs" / wl.config).read_text(encoding="utf-8"))
    assert schemas.validate_config(config, getattr(schemas, wl.schema),
                                   wl.name) is config
    rng = np.random.default_rng(SEED)
    outputs, digests = [], []
    for index in range(2):
        x = wl.draw(rng, index)
        out = wl.run(x)
        assert wl.check(x, out) == []
        digests.append(wl.digest(x, out))
        assert digests[-1] and all(
            isinstance(label, str) and math.isfinite(value) and math.isfinite(error)
            for label, value, error in digests[-1])
        outputs.append(out)
    readings = WORKLOADS.readings(name, outputs)
    assert all(math.isfinite(value) for value in readings.values())
    # the worker prints both in its one JSON document
    json.dumps({"digest": digests, "readings": readings}, allow_nan=False)


@pytest.mark.parametrize("name", sorted(WORKLOADS.WORKLOADS))
def test_a_traced_workload_counts_its_layers_and_keeps_its_digests(name):
    wl = WORKLOADS.WORKLOADS[name]
    untraced = _digests(wl)
    recorder = TRACER.Tracer()
    uninstall = TRACER.install(recorder)
    try:
        traced = _digests(wl)
    finally:
        uninstall()
    assert not hasattr(profiles.WarpingProfile.rho, "__wrapped__")
    assert traced == untraced
    calls = {layer: recorder.stats[layer]["calls"] for layer in OWN_LAYERS[name]}
    assert all(count >= 1 for count in calls.values()), calls
