"""Process environment for the benchmark: one single-threaded process.

``prepare`` must run before numpy is imported: it pins the BLAS thread pools
to one thread, unsets ``GSDOF_THREADS`` (the package's sweep thread pool then
runs serially), and puts the package source tree first on ``sys.path``.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

BLAS_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


def source_present() -> bool:
    return (SRC / "gsdof" / "__init__.py").is_file()


def prepare() -> str | None:
    """Pin the environment; return the ``GSDOF_THREADS`` value found, if any."""
    os.environ.update(BLAS_ENV)
    found = os.environ.pop("GSDOF_THREADS", None)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    return found
