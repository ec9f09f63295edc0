"""Entry point: ``python -m benchmarks.e2e`` or ``python3 benchmarks/e2e/__main__.py``."""

import os
import sys
from pathlib import Path

# One BLAS/OpenMP thread for the whole process tree, set before NumPy
# loads: one load-generating process runs at a time, on one core.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

if not __package__:
    # Run as a file: import the package from the checkout root instead
    # of this directory, whose module names would shadow the stdlib's.
    sys.path[0] = str(Path(__file__).resolve().parents[2])

from benchmarks.e2e.cli import main  # noqa: E402

sys.exit(main())
