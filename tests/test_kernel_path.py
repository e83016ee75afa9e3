"""Which path the kernel takes on the benchmark's workloads, in tier 1.

A branch solve makes two kernel calls, and each is polished from the solve's
Ritz hint unless the certificate refuses it, when it falls back to
bisection in the same call.  Either way the values agree within the
kernel's tolerance, so a change that silently sends the calls back to
bisection passes every value test and shows only as lost speed.  This test
runs the first three operations of each perfbench workload with
``sturm._polish`` spied on, loading ``perfbench/workloads.py`` by path as
``test_bench_contract.py`` does, and pins how many calls certify.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from diraclab import sturm

ROOT = Path(__file__).resolve().parents[1]
SEED = 7


def _load_workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads_path", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


WORKLOADS = _load_workloads()
# the least share of hinted calls that certify on ops 0-2.  All of them do
# today; bracket's floor leaves room for its short pieces at K = 8, whose
# values reach 3e4, where the rounding of a quotient alone can exceed half
# the kernel tolerance (14 of 14 certify at this seed, and 97 % over 40 ops
# of another)
FLOOR = {"bracket": 0.85, "dual-route": 1.0, "spectrum-wide": 1.0,
         "geometry": 1.0}


@pytest.mark.parametrize("name", sorted(WORKLOADS.WORKLOADS))
def test_the_kernel_certifies_the_workloads_calls(name, monkeypatch):
    wl = WORKLOADS.WORKLOADS[name]
    polish, certified = sturm._polish, []

    def spy(*args):
        out = polish(*args)
        certified.append(out is not None)
        return out

    monkeypatch.setattr(sturm, "_polish", spy)
    rng = np.random.default_rng(SEED)
    for index in range(3):
        wl.run(wl.draw(rng, index))
    assert certified
    assert sum(certified) >= FLOOR[name] * len(certified), (
        f"{sum(certified)} of {len(certified)} calls certified")
