"""Finite groupoids, labelled-graph bundles, and the transport dictionary.

The package realises, at exhaustively checkable size, the equivalence between
principal bundles over finite connected graphs and transitive groupoids: both
directions of the construction, the chart and fiber identifications, the
induced groupoid dynamics on arrow fibers, and the invariant-section test
that characterises when every such dynamical system has a fixed point.

Each module's ``__all__`` decides which of its names are public; the package
republishes every one of them, modules in dependency order.

The package never calls BLAS, so it loads numpy with a one-thread OpenBLAS
pool: otherwise OpenBLAS starts a worker per core, and each one spins for
a while before it sleeps, which costs every process CPU time for no work.
A caller's own ``OPENBLAS_NUM_THREADS`` wins (an empty one counts as
unset, as OpenBLAS reads it), numpy imported before the package is left as
it is, and the environment is left as it was found.
"""
import os as _os
import sys as _sys

_blas = _os.environ.get("OPENBLAS_NUM_THREADS")
if "numpy" not in _sys.modules and not _blas:
    _os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        __import__("numpy")
    finally:
        if _blas is None:
            del _os.environ["OPENBLAS_NUM_THREADS"]
        else:
            _os.environ["OPENBLAS_NUM_THREADS"] = _blas
del _os, _sys, _blas

from . import (algebra, amenability, bundle, diagnostics, dynamics, ehresmann,
               fixtures, groupoid, serialize)
from .diagnostics import *
from .algebra import *
from .groupoid import *
from .bundle import *
from .ehresmann import *
from .dynamics import *
from .amenability import *
from .fixtures import *
from .serialize import *

__all__ = [name for module in (diagnostics, algebra, groupoid, bundle,
                               ehresmann, dynamics, amenability, fixtures,
                               serialize)
           for name in module.__all__]

__version__ = "0.1.0"
