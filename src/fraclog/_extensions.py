"""Load one of scipy's compiled extension modules without its package's __init__.

fraclog calls scipy through three compiled modules only, and imports no scipy
package: the special-function ufuncs (scipy.special._ufuncs), QUADPACK
(scipy.integrate._quadpack) and the bracketing root finders
(scipy.optimize._zeros). Importing them through their packages runs
scipy/special/__init__.py, whose array-API layer loads numpy.f2py, and
scipy/integrate/__init__.py or scipy/optimize/__init__.py, which load
scipy.sparse.linalg, scipy.linalg and scipy.spatial: together most of a cold
`python -m fraclog.cli`. The extension objects are the ones the
packages re-export, so a later `import scipy.special` finds the loaded module
in sys.modules and hands out the same ufuncs.
"""

from __future__ import annotations

import importlib
import importlib.util
import sys
import types


def load_extension(package: str, name: str) -> types.ModuleType:
    """The module `package.name`, imported without running `package`'s __init__.

    While the extension loads, a bare module with the package's search path
    stands in for `package` in sys.modules (so that the extension's own
    relative imports resolve); it is removed afterwards. Where `package` is
    already imported, this is a plain import.
    """
    fullname = f"{package}.{name}"
    if package in sys.modules:
        return importlib.import_module(fullname)
    spec = importlib.util.find_spec(package)  # imports the parent, not `package`
    stub = types.ModuleType(package)
    stub.__path__ = list(spec.submodule_search_locations)
    sys.modules[package] = stub
    try:
        return importlib.import_module(fullname)
    finally:
        if sys.modules.get(package) is stub:
            del sys.modules[package]
