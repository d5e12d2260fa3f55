"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Pins the BLAS, OpenMP and FFT thread pools to one thread, starts one
child process (bench.py) that does the whole run, and exits with its
status.  The child measures setup_s from the moment it is started, so
interpreter start-up and imports are counted.
"""

import os
import subprocess
import sys
import time

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
TIMEOUT_S = 175


def main():
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    child = [sys.executable, "-B",
             os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          "bench.py")] + sys.argv[1:]
    env["PERFBENCH_T0"] = repr(time.monotonic())
    try:
        return subprocess.run(child, env=env, timeout=TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run killed after %d s" % TIMEOUT_S, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
