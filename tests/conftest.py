"""Test-session settings.

BLAS and OpenMP are pinned to one thread before numpy loads, as in
``benchmarks/``: reductions such as ``np.vdot`` round differently with more
threads, and criterion 2's Lippmann-Schwinger iteration counts follow that
rounding.  A value already set in the environment is kept.
"""

import os

import pytest

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ.setdefault(_var, "1")


@pytest.fixture
def multigrid_path(monkeypatch):
    """Solves every grid with multigrid-preconditioned Bi-CGSTAB, for tests
    of multigrid behaviour on grids small enough for the direct LU path."""
    from helmscat import forward
    monkeypatch.setattr(forward, "_DIRECT_MAX_UNKNOWNS", 0)
