"""Time one workload's set-up in a fresh process and print the seconds.

    python3 bench/setup_probe.py <workload> <seed> [--tiny]

Set-up is importing vouchnet, loading and overriding the scenario and
building the first Simulation (or the forged delivery of mc_verify).
``run.py`` starts this script several times for ``setup_s``.
"""

import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

start = time.perf_counter()
import workloads  # noqa: E402  (imports vouchnet, which is part of what is timed)

workloads.make_workloads(tiny="--tiny" in sys.argv[3:])[sys.argv[1]].setup(int(sys.argv[2]))
print(time.perf_counter() - start)
