import importlib.machinery
import sys

from dikinwalk import _lapack

NAMES = ("dpotrf", "dpotrs", "dtrtri", "dtrtrs")


def test_scipy_linalg_reuses_the_loaded_extension():
    # imported after dikinwalk._lapack: scipy.linalg finds the extension in
    # sys.modules instead of loading it a second time
    import scipy.linalg.lapack

    assert scipy.linalg.lapack._flapack is _lapack._flapack
    for name in NAMES:
        assert getattr(_lapack, name) is getattr(scipy.linalg.lapack, name)


def test_falls_back_to_scipy_linalg_without_the_extension_file(monkeypatch):
    import scipy.linalg.lapack

    monkeypatch.setattr(importlib.machinery, "EXTENSION_SUFFIXES", [])
    monkeypatch.delitem(sys.modules, "scipy.linalg._flapack")
    assert _lapack._extension_path() is None
    flapack = _lapack._load_flapack()
    for name in NAMES:
        assert getattr(flapack, name) is getattr(scipy.linalg.lapack, name)
