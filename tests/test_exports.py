"""Every exported name resolves, in the package and in each of its modules,
the benchmark tracer's names resolve, and the README's library example runs
against the public API."""

import contextlib
import importlib
import importlib.util
import io
import pkgutil
import re
from pathlib import Path

import pytest

import diraclab

MODULES = ["diraclab"] + [f"diraclab.{info.name}"
                          for info in pkgutil.iter_modules(diraclab.__path__)]
ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"
TRACER = ROOT / "perfbench" / "tracer.py"


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", [])
               if not hasattr(module, attr)]
    assert missing == []


@pytest.mark.parametrize("owner,name", [
    ("diraclab", "cylinder_metric"),
    ("diraclab.metrics", "cylinder_metric"),
    ("diraclab.circle", "CircleDiracModel.perturbed"),
    ("diraclab", "smooth_step"),
    ("diraclab.profiles", "smooth_step"),
    ("diraclab", "scale_to_slice"),
    ("diraclab.transverse", "scale_to_slice"),
    ("diraclab.profiles", "const_jet"),
])
def test_retired_names_are_gone(owner, name):
    # cylinder_metric, smooth_step and scale_to_slice had no caller outside
    # the tests (the step is step_jet); perturbed built a whole model only
    # for its length, now perturbed_length; const_jet is exp_jet at rate 0
    obj = importlib.import_module(owner)
    for part in name.split("."):
        obj = getattr(obj, part, None)
    assert obj is None


def test_traced_names_resolve():
    # perfbench/run.py --trace wraps these functions and methods by name, so
    # a rename in the package must not leave one of them dangling
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.TRACED
    missing = []
    for _, module, attr, _ in tracer.TRACED:
        owner = importlib.import_module(f"diraclab.{module}")
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{module}.{attr}")
    assert missing == []


def test_readme_library_example_prints_the_harmonic_spectrum():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"),
                        flags=re.S)
    assert len(blocks) == 1
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        exec(compile(blocks[0], str(README), "exec"), {})
    values = [float(x) for x in re.findall(r"[-+]?\d+(?:\.\d*)?(?:e[-+]?\d+)?",
                                           printed.getvalue())]
    assert values == pytest.approx([1, 4, 9, 16, 25], rel=1e-6)
