"""Loaded by pytest before any test module: importing normadapt here exports
NORMADAPT_THREADS, when set, as the BLAS thread variables before a test
module loads numpy, so `NORMADAPT_THREADS=1 python -m pytest` runs BLAS on
one thread.  With the variable unset the import changes nothing."""

import normadapt  # noqa: F401
