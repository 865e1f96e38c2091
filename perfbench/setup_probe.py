"""One set-up measurement in a fresh interpreter (started by ``bench.py``).

Imports the tuner, builds one workload and runs it to its first proposal,
then prints the host seconds that took, counted from this script's first
statement, as the last line of standard output.  A fresh interpreter is
needed because imports run only once per process.

    python3 perfbench/setup_probe.py WORKLOAD SEED UNITS WORKDIR
"""

import time

_PROCESS_START = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from bench import time_setup  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def main(argv) -> int:
    name, seed, units, workdir = argv
    time_setup(WORKLOADS[name], int(seed), int(units), workdir)
    print(time.perf_counter() - _PROCESS_START)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
