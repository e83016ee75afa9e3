"""The LAPACK module loader: one module object whichever of diraclab and
``scipy.linalg`` is imported first, the bytes of scipy's own wrappers from
both kernel callers, and an ImportError naming the path when the file is
missing."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import diraclab
from diraclab import _lapack

# the inputs: random tridiagonals for tridiagonal_lowest, and oracle sizes
CASES = """
import sys
import numpy as np
rng = np.random.default_rng(5)
MATRICES = [(rng.normal(size=n), rng.normal(size=n - 1)) for n in (2, 17, 700)]
ORACLES = [(n, delta) for n in (16, 128, 2048) for delta in (0.0, 0.5)]
LENGTH = 2.5
"""

DIRACLAB = """
from diraclab import _lapack
from diraclab.sturm import tridiagonal_lowest
from diraclab.transverse import discrete_circle_oracle
ours = [tridiagonal_lowest(d, e, min(5, d.size)) for d, e in MATRICES]
ours += [discrete_circle_oracle(LENGTH, delta, n) for n, delta in ORACLES]
mine = _lapack.flapack()
"""

SCIPY = """
import scipy.linalg
import scipy.linalg.lapack
"""

# scipy's wrappers as the kernel callers used them: stebz by index for
# tridiagonal_lowest, and scipy's default routine on the two halves for the
# oracle
REFERENCE = """
from scipy.linalg import eigvalsh_tridiagonal
from diraclab.sturm import _KERNEL_TOL

def halves(length, delta, n):
    off = np.full(n // 2 - 1, -n / (2.0 * length))
    d = np.zeros(n // 2)
    d[0] = off[0] * (-1) ** (n // 2) * (1 if delta == 0.0 else -1)
    d[-1] = off[0]
    return np.sort(np.concatenate([eigvalsh_tridiagonal(d, off),
                                   eigvalsh_tridiagonal(-d, off)]))

ref = [eigvalsh_tridiagonal(d, e, select="i",
                            select_range=(0, min(5, d.size) - 1),
                            lapack_driver="stebz", tol=_KERNEL_TOL)
       for d, e in MATRICES]
ref += [halves(LENGTH, delta, n) for n, delta in ORACLES]
assert scipy.linalg.lapack._flapack is mine is _lapack.flapack()
assert len(ours) == len(ref) == 9
for a, b in zip(ours, ref):
    assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), (a, b)
print("ok")
"""

ORDERS = {
    # the loader reads the file, and scipy.linalg then takes its module
    "diraclab-first": CASES + DIRACLAB
    + "assert 'scipy.linalg' not in sys.modules\n" + SCIPY + REFERENCE,
    # the loader returns the module scipy.linalg has loaded
    "scipy-linalg-first": CASES + SCIPY + DIRACLAB + REFERENCE,
}


@pytest.mark.parametrize("order", sorted(ORDERS))
def test_one_module_and_scipys_bytes_in_either_import_order(order):
    src = Path(diraclab.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-c", ORDERS[order]], env=env,
                         check=True, capture_output=True, text=True).stdout
    assert out.splitlines()[-1] == "ok"


def test_a_missing_file_raises_import_error_naming_the_path(tmp_path,
                                                            monkeypatch):
    monkeypatch.setattr(_lapack, "_FOLDER", tmp_path)
    monkeypatch.delitem(sys.modules, "scipy.linalg._flapack", raising=False)
    with pytest.raises(ImportError,
                       match=re.escape(str(tmp_path / "_flapack"))):
        _lapack.flapack()
    assert "scipy.linalg._flapack" not in sys.modules
