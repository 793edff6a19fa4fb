"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a netwave source tree; the package is imported from
``src/``.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
"""

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

if __name__ == "__main__":
    if not (ROOT / "src" / "netwave" / "cli.py").is_file():
        sys.exit(f"error: no netwave sources under {ROOT / 'src'}")
    # set before numpy loads: one BLAS thread keeps a single client steady
    os.environ.update({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                       "MKL_NUM_THREADS": "1"})
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.harness import main

    sys.exit(main())
