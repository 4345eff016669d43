"""Set-up probe: a fresh interpreter imports spinpulse and builds a workload's inputs.

    python3 bench/probe.py <workload> <seed>

Prints the seconds from before ``import spinpulse`` until the inputs are
built: the workload's slots and its first pass.  Nothing beyond ``os``,
``sys`` and ``time`` (already loaded at interpreter start) is imported before
the clock starts.
"""

import os
import sys
import time

start = time.perf_counter()
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import spinpulse  # noqa: E402,F401

import workloads  # noqa: E402

workloads.WORKLOADS[sys.argv[1]](int(sys.argv[2])).ops(0)
print(time.perf_counter() - start)
