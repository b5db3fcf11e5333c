"""Time `import sobocurve.cli` in a fresh interpreter.

Run as `python3 -X importtime bench/import_probe.py`: stdout is the wall
time of the whole import in seconds, and stderr carries the per-module
import times from which `run.py` reads `sobocurve.curves`.
"""

import time

t0 = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import sobocurve.cli  # noqa: E402,F401

print(repr(time.perf_counter() - t0))
