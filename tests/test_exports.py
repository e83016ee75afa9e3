"""Every exported name resolves, in the package and in each of its modules,
and the README's library example runs against the public API."""

import contextlib
import importlib
import io
import pkgutil
import re
from pathlib import Path

import pytest

import diraclab

MODULES = ["diraclab"] + [f"diraclab.{info.name}"
                          for info in pkgutil.iter_modules(diraclab.__path__)]
README = Path(__file__).resolve().parents[1] / "README.md"


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", [])
               if not hasattr(module, attr)]
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
