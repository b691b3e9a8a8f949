"""Process set-up shared by the benchmark's entry scripts.

The benchmark runs from the root of a source checkout: the program is
imported from ``<root>/src`` and nowhere else, with numeric-library
threads pinned to one so that the benchmark measures one core.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def prepare() -> None:
    """Pin numeric threads and import the program from this checkout.

    Exits with status 1 (and prints no result) when the checkout holds
    no program sources, or when ``repro`` would be imported from
    anywhere other than ``<root>/src``.
    """
    for var in THREAD_VARS:
        os.environ[var] = "1"
    package = SRC / "repro"
    if not (package / "__init__.py").is_file():
        sys.exit(f"perfbench: no program sources at {package}")
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != package.resolve():
        sys.exit(f"perfbench: repro imported from {repro.__file__}, not {package}")
