"""Run the sobocurve CLI under the span tracer (traced runs only).

Usage: SOBOBENCH_TRACE=FILE python3 bench/cli_shim.py ARGS...
Behaves as `python3 -m sobocurve.cli ARGS...`, exit code and tracebacks
included, and writes the spans plus the time spent in `cli.main` to FILE.
"""

import os
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

from spans import Tracer  # noqa: E402

import sobocurve.cli  # noqa: E402

tracer = Tracer()
tracer.install()
t0 = time.perf_counter()
try:
    code = sobocurve.cli.main(sys.argv[1:])
finally:
    tracer.dump(os.environ["SOBOBENCH_TRACE"], main_s=time.perf_counter() - t0)
sys.exit(code)
