"""numpy, executed on the first attribute a command reads from it.

Executing numpy takes about 100 ms, and the closed-form ``field`` and
``thermal`` commands never use it.  ``from ._numpy import np`` binds the module
that ``sys.modules`` holds: numpy itself once something has imported it, else
a module registered through ``importlib.util.LazyLoader``.  A plain
``import numpy`` would read the lazy module's ``__spec__`` and so execute it.
Without numpy the import fails as ``import numpy`` fails.
"""

import importlib.util
import sys

__all__ = ["np"]


def _lazy_numpy():
    np = sys.modules.get("numpy")
    if np is not None:
        return np
    spec = importlib.util.find_spec("numpy")
    if spec is None:  # not installed, or blocked by None in sys.modules
        import numpy  # raises ModuleNotFoundError naming numpy
        return numpy
    loader = importlib.util.LazyLoader(spec.loader)
    spec.loader = loader
    np = importlib.util.module_from_spec(spec)
    sys.modules["numpy"] = np
    loader.exec_module(np)
    return np


np = _lazy_numpy()
