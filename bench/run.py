"""Benchmark entry point.

    python3 bench/run.py --workload train|infer|sequential --seed N \\
        --seconds S --trace 0|1

Run from anywhere inside a checkout.  Starts bench/harness.py in a child
Python whose environment pins OPENBLAS_NUM_THREADS=1 (the BLAS pool otherwise
spins idle threads that double the CPU-seconds for the same wall time) and
PYTHONHASHSEED=0, with this checkout's src/ first on PYTHONPATH, waits for it
and exits with its code.  The harness records both settings with the result.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# The harness finishes in about a minute; a run that outlives this is broken.
CHILD_TIMEOUT_S = 170


def main(argv):
    if not (ROOT / "src" / "lrmt" / "__init__.py").is_file():
        print("bench: %s has no src/lrmt to measure" % ROOT, file=sys.stderr)
        return 2
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    command = [sys.executable, str(ROOT / "bench" / "harness.py"), *argv]
    try:
        return subprocess.run(command, env=env, cwd=ROOT,
                              timeout=CHILD_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("bench: harness ran longer than %d s and was stopped"
              % CHILD_TIMEOUT_S, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
