"""Time one workload's set-up in a fresh interpreter.

Usage (from the repository root): python3 perfbench/setup_probe.py <workload>
Prints the seconds from before `import relmeta` to a ready context, and
the host-speed scale factor from reference runs on each side of it in
this same process.
"""

import importlib
import os
import sys
from time import perf_counter

from hostspeed import median_reference, scale

REF_RUNS = 5

before = median_reference(REF_RUNS)
t0 = perf_counter()
sys.path.insert(0, os.path.join(os.getcwd(), "src"))
import relmeta  # noqa: E402,F401  (timed: the package import)

wl = importlib.import_module(f"wl_{sys.argv[1]}")
wl.setup()
dt = perf_counter() - t0
print(f"{dt:.9f} {scale(before, median_reference(REF_RUNS)):.9f}")
