"""Set-up that must run before any test module imports numpy.

OpenBLAS reads OPENBLAS_NUM_THREADS once, when numpy loads. At the sizes the
suite runs, a second BLAS thread buys no wall time and spins on a core, so
the suite runs on one, as the command line does; a value already set in the
environment wins. ``test_package`` strips the variable from the interpreters
it starts, so its thread checks still see OpenBLAS's default."""
import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
