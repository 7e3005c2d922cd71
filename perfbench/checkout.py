"""Locate the checkout and import conserva from its own ``src`` tree.

The benchmark measures the code of the checkout it sits in, never an
installed copy, so a directory without ``src/conserva`` is an error.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

WORKLOADS = ("rd-sod", "af-shock", "af-smooth", "verify")

# single-threaded BLAS; these only take effect before numpy is first imported
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class CheckoutError(RuntimeError):
    """The checkout holds no conserva sources to measure."""


def has_sources():
    return (SRC / "conserva" / "__init__.py").is_file()


def use_checkout_sources():
    """Put ``src`` first on sys.path and check conserva really comes from it."""
    if not has_sources():
        raise CheckoutError(f"no conserva sources under {SRC}")
    for key, value in THREAD_ENV.items():
        os.environ.setdefault(key, value)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import conserva

    origin = Path(conserva.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise CheckoutError(f"conserva imported from {origin}, not from {SRC}")
    return conserva
