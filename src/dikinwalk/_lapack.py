"""scipy's compiled LAPACK wrappers, loaded without importing scipy.linalg.

`scipy.linalg.lapack` re-exports these routines from the f2py extension
`scipy.linalg._flapack`, so they are the very same objects. Importing
scipy.linalg, though, runs its package __init__, which builds an array-API
namespace over numpy and imports numpy.f2py, numpy.testing, numpy.ma and
more: ~0.25 s and ~23 MB in every process, and every command factors a
matrix. So the extension is loaded straight from its file and registered
under its own name, where a later `import scipy.linalg` finds and reuses it.
Every Cholesky factorization in the package is this dpotrf, and the Lewis
weights' QRs dgeqrf and dgeqp3; numpy's linalg serves only eigvalsh, norms,
_nearest_point's lstsq and lewis_fixed_point_residual's QR and solve.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys

_NAME = "scipy.linalg._flapack"


def _extension_path() -> str | None:
    """Path of scipy/linalg/_flapack<suffix>; find_spec imports nothing."""
    spec = importlib.util.find_spec("scipy")
    for directory in (spec and spec.submodule_search_locations) or ():
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = os.path.join(directory, "linalg", "_flapack" + suffix)
            if os.path.isfile(path):
                return path
    return None


def _load_flapack():
    if _NAME in sys.modules:
        return sys.modules[_NAME]
    path = _extension_path()
    if path is None:
        from scipy.linalg import _flapack

        return _flapack
    spec = importlib.util.spec_from_file_location(_NAME, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[_NAME] = module
    spec.loader.exec_module(module)
    return module


_flapack = _load_flapack()
dgeqp3 = _flapack.dgeqp3
dgeqrf = _flapack.dgeqrf
dpotrf = _flapack.dpotrf
dpotrs = _flapack.dpotrs
dtrtri = _flapack.dtrtri
dtrtrs = _flapack.dtrtrs
