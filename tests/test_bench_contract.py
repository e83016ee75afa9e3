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
It also runs the first three operations of each workload with the kernel's
certificate forced to fail, so that every fine mesh is bisected, and checks
that perfbench counts the same kernel calls and rows either way.
"""

import importlib.util
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from diraclab import profiles, schemas, sturm

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


def _kernel_calls(wl, monkeypatch, kernel):
    """Ops 0-2 traced, with every kernel call recorded: the tracer's kernel
    counters, and (diag, off, K, values) of each call."""
    calls = []

    def recorded(diag, off, K, hint=None):
        values = kernel(diag, off, K, hint)
        calls.append((diag, off, K, values))
        return values

    monkeypatch.setattr(sturm, "tridiagonal_lowest", recorded)
    recorder = TRACER.Tracer()
    uninstall = TRACER.install(recorder)
    try:
        rng = np.random.default_rng(SEED)
        for index in range(3):
            wl.run(wl.draw(rng, index))
    finally:
        uninstall()
    stats = recorder.stats["sturm.tridiagonal_lowest"]
    return {key: stats[key] for key in ("calls", "rows")}, calls


@pytest.mark.parametrize("name", sorted(WORKLOADS.WORKLOADS))
def test_a_failed_certificate_keeps_the_kernel_calls(name, monkeypatch):
    # the certified fine values replace bisected ones within the kernel
    # tolerance on each side plus the slack of bisection's Sturm counts, and
    # nothing the benchmark counts moves with them
    wl = WORKLOADS.WORKLOADS[name]
    kernel = sturm.tridiagonal_lowest
    counted, polished = _kernel_calls(wl, monkeypatch, kernel)
    monkeypatch.setattr(sturm, "_polish", lambda *args: None)
    counted_bisected, bisected = _kernel_calls(wl, monkeypatch, kernel)
    assert counted == counted_bisected and counted["calls"] == len(polished)
    assert len(polished) == len(bisected)
    # the fine meshes of the normal run were polished, not bisected
    assert any(a.tobytes() != b.tobytes()
               for (*_, a), (*_, b) in zip(polished, bisected))
    for (d, e, K, a), (d_b, e_b, K_b, b) in zip(polished, bisected):
        assert (K, d.tobytes(), e.tobytes()) == (K_b, d_b.tobytes(), e_b.tobytes())
        spread = np.abs(np.append(0.0, e)) + np.abs(np.append(e, 0.0))
        slack = sturm._STURM_SLACK * sturm._EPS * float(np.max(np.abs(d) + spread))
        assert np.all(np.abs(a - b) <= 2.0 * sturm._KERNEL_TOL + slack)
