"""Import spdt from the checkout's ``src`` directory and nowhere else.

The benchmark measures the source tree it sits in, never an installed copy,
so a checkout without ``src/spdt`` stops here with a non-zero exit. The
checkout's ``benchmarks/`` directory goes on the path too, so the kernel
micro-benchmark there (``bench_exposure.py``) is imported, not copied.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

if not (SRC / "spdt" / "__init__.py").is_file():
    sys.exit(f"perfbench: no spdt source under {SRC}; run from a full checkout")
sys.path.insert(0, str(SRC))
sys.path.insert(0, str(ROOT / "benchmarks"))
