"""Run one benchmark workload in a fresh single-threaded process.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout.  The worker process gets the
environment of this one without ``AMEN_THREADS`` (so the library's
default single-worker path is measured), with one BLAS thread and a
fixed string-hash seed.  Its last line of output is the result: one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import os
import subprocess
import sys
import time

WORKER = os.path.join(os.path.dirname(os.path.abspath(__file__)), "worker.py")
TIMEOUT_S = 170


def main() -> int:
    t0_ns = time.monotonic_ns()
    env = {k: v for k, v in os.environ.items() if k != "AMEN_THREADS"}
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1", PYTHONHASHSEED="0")
    cmd = [sys.executable, WORKER, *sys.argv[1:], "--t0-ns", str(t0_ns)]
    try:
        return subprocess.run(cmd, env=env, timeout=TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"the worker did not finish within {TIMEOUT_S} s and was stopped", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
