"""Time, in a fresh interpreter, importing sobocurve and building a workload's inputs.

Usage: python3 bench/setup_probe.py WORKLOAD SEED SCRATCH_DIR
Prints the elapsed seconds, counted from before `import sobocurve`.
"""

import time

t0 = time.perf_counter()

import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import sobocurve  # noqa: E402,F401
import workloads  # noqa: E402

work = Path(tempfile.mkdtemp(dir=sys.argv[3]))
try:
    workloads.build(sys.argv[1], int(sys.argv[2]), work, workloads.CliRunner(BENCH.parent / "src", work))
    elapsed = time.perf_counter() - t0
finally:
    shutil.rmtree(work)
print(repr(elapsed))
