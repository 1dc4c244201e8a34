"""Desk-scale lab for selective-parameter tuning of visual-prefix transformers.

Importing the package exports NORMADAPT_THREADS, when set, as every BLAS and
OpenMP thread-count variable, so the cap holds for the CLI, a script or a
test alike.  Submodules load lazily, so nothing here loads numpy; the cap
reaches BLAS only when numpy loads after this package.
"""

import importlib
import os
import sys
import warnings

__version__ = "0.1.0"

_SUBMODULES = ("analysis", "autograd", "budget", "cli", "data",
               "model", "normmath", "strategies", "training")

_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def _cap_threads():
    """Export NORMADAPT_THREADS as each of `_THREAD_VARS`, refusing a value
    BLAS would quietly replace by its default; warn when numpy, and so its
    BLAS with the thread count it started with, is already loaded."""
    cap = os.environ.get("NORMADAPT_THREADS")
    if cap and not (cap.isascii() and cap.isdecimal() and int(cap) > 0):
        raise ValueError("NORMADAPT_THREADS must be a positive decimal integer, "
                         f"got {cap!r}")
    if not cap or all(os.environ.get(var) == cap for var in _THREAD_VARS):
        return
    for var in _THREAD_VARS:
        os.environ[var] = cap
    if "numpy" in sys.modules:
        warnings.warn(f"NORMADAPT_THREADS={cap} cannot reach BLAS: numpy was "
                      "imported before normadapt", RuntimeWarning, stacklevel=2)


_cap_threads()


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(_SUBMODULES))
