"""Desk-scale lab for selective-parameter tuning of visual-prefix transformers.

Submodules load lazily so the CLI can cap kernel threading (NORMADAPT_THREADS)
before numpy initializes its BLAS backend.
"""

import importlib

__version__ = "0.1.0"

_SUBMODULES = ("analysis", "autograd", "budget", "cli", "data",
               "model", "normmath", "strategies", "training")


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(_SUBMODULES))
