"""Entry point of the MCFI benchmark suite; see ``cli.py`` and README.md.

    python3 benchmarks/suite/run.py one --workload fixed12-cold --seed 1 \\
        --seconds 10 --trace 0
"""

import time

#: set-up time is measured from here, before the program is imported
STARTED = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
# Import the suite as a package and the program from this checkout's src.
sys.path[:] = [p for p in sys.path if Path(p or ".").resolve() != HERE]
sys.path[0:0] = [str(ROOT), str(ROOT / "src")]

from benchmarks.suite.cli import main  # noqa: E402

if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:], STARTED))
