"""Time one cold set-up of a workload: import plus frame, objective and bank.

Run in a fresh interpreter by ``run.py`` (several times per run)::

    PYTHONPATH=src:perfbench python3 perfbench/setup_probe.py WORKLOAD SEED

Prints the seconds from before the first import to the built workload, and
the time of the reference kernel run right after it.
"""

import sys
import time

start = time.perf_counter()

import workloads  # noqa: E402  (the import is what is being timed)

workloads.WORKLOADS[sys.argv[1]](int(sys.argv[2]))
setup = time.perf_counter() - start

import reference  # noqa: E402

print(repr(setup), repr(reference.kernel()))
