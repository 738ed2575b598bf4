"""``python -m benchmarks.suite <command> ...`` from the repository root."""

import time

STARTED = time.perf_counter()

import sys  # noqa: E402

from .cli import ROOT, main  # noqa: E402

if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    raise SystemExit(main(sys.argv[1:], STARTED))
