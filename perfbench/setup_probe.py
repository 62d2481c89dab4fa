"""Set-up of one workload in a fresh process, timed from outside by run.py.

    python3 perfbench/setup_probe.py <workload> <seed>

Imports cfris, builds and validates the workload's ExperimentSpec, then
prints ``ready``. run.py starts it with BLAS already pinned in the
environment and times it from process start until that line arrives.
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from cfris import ExperimentSpec  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

workload = WORKLOADS[sys.argv[1]]
ExperimentSpec(cfg=workload.config(int(sys.argv[2])), scenarios=workload.scenarios).validate()
print("ready", flush=True)
