"""Time one fresh-process set-up of a workload and print it as JSON.

Set-up is ``import fgdyn`` plus construction and verification of the
workload's catalog pairs.  ``run.py`` starts this script several times
and reports the median as ``setup_s``.

Usage: python3 perfbench/setup_probe.py <workload>
"""

import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from workloads import WORKLOADS  # noqa: E402  (imports nothing from fgdyn)


def main() -> None:
    workload = WORKLOADS[sys.argv[1]]
    t0 = time.perf_counter()
    import fgdyn

    t1 = time.perf_counter()
    workload.catalog(fgdyn)
    t2 = time.perf_counter()
    print(json.dumps({"import_s": t1 - t0, "setup_s": t2 - t0}))


if __name__ == "__main__":
    main()
