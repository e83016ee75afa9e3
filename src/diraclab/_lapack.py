"""scipy's LAPACK extension module, loaded without running ``scipy.linalg``.

Reaching a LAPACK routine through ``scipy.linalg.lapack`` runs the whole
``scipy.linalg`` package init, most of a CLI run's start-up, to get at one
compiled module.  :func:`flapack` loads that module, ``_flapack`` in scipy's
``linalg`` folder, straight from its file and registers it in ``sys.modules``
under its own name, so a later ``import scipy.linalg`` reuses the same
object.  The file name is private to scipy; the tests pin it, and the
module's identity with ``scipy.linalg.lapack._flapack``.  Every caller
reads the ``info`` a routine returns by :func:`check_info`, except the
Ritz hint and the certificate of ``sturm`` (``_ritz_hint`` and
``_polish``), which fall back to bisection on any nonzero ``info``.
"""

import importlib.machinery
import importlib.util
import sys
from pathlib import Path

import scipy

_NAME = "scipy.linalg._flapack"
_FOLDER = Path(scipy.__file__).parent / "linalg"


def flapack():
    """The module ``scipy.linalg._flapack``: the one ``scipy.linalg`` has
    loaded, or else loaded from its file.  ImportError names the path
    searched when the file is missing."""
    module = sys.modules.get(_NAME)
    if module is not None:
        return module
    suffixes = importlib.machinery.EXTENSION_SUFFIXES
    path = next((p for p in (_FOLDER / f"_flapack{s}" for s in suffixes)
                 if p.is_file()), None)
    if path is None:
        raise ImportError(f"scipy's LAPACK module is not at "
                          f"{_FOLDER / '_flapack'}{{{','.join(suffixes)}}}",
                          name=_NAME)
    spec = importlib.util.spec_from_file_location(_NAME, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules[_NAME] = module
    return module


def check_info(info: int, routine: str) -> None:
    """Raise ``ValueError`` naming ``routine`` unless its ``info`` is 0."""
    if info != 0:
        raise ValueError(f"LAPACK {routine} failed with info={info}")
