"""One cold operation in a fresh process, for the benchmark's set-up time.

    python3 perfbench/cold.py <workload> <work directory>

Imports hhfrac (from PYTHONPATH), runs the workload's first operation on the
inputs set-up already wrote, and exits 0 when its output checks pass.
"""

import sys

from workloads import WORKLOADS

if __name__ == "__main__":
    defect = WORKLOADS[sys.argv[1]].cold(sys.argv[2])
    if defect is not None:
        print(defect, file=sys.stderr)
    sys.exit(0 if defect is None else 1)
