"""Shared benchmark infrastructure.

Every benchmark regenerates one table or figure of the paper and writes
the formatted result to ``<artifact>.txt``, in addition to the
pytest-benchmark timing output.  The checked-in tables under
``benchmarks/results/`` (the numbers quoted in EXPERIMENTS.md) are only
rewritten when ``REPRO_WRITE_RESULTS=1`` is set; otherwise results go
to a fresh temporary directory, so a plain test run leaves the tree
untouched.

Set ``REPRO_FULL=1`` to run the execution-heavy artifacts (Figs. 5-6,
gadget scans) over all twelve benchmarks; the default subset keeps the
suite under a few minutes while preserving every comparison the paper
makes (call-heavy vs loop-heavy benchmarks, integer vs floating point).
"""

import functools
import os
import tempfile
from pathlib import Path

import pytest

RESULTS_DIR = Path(__file__).parent / "results"

FULL = os.environ.get("REPRO_FULL", "") == "1"

#: Opt-in to rewriting the tracked tables in :data:`RESULTS_DIR`.
WRITE_RESULTS = os.environ.get("REPRO_WRITE_RESULTS", "") == "1"

#: Execution-heavy subset: the two call-heaviest (largest overhead),
#: one mid, one near-zero, one floating-point benchmark.
SUBSET = ("perlbench", "gcc", "sjeng", "libquantum", "lbm")


def selected_benchmarks():
    from repro.workloads.spec import BENCHMARKS
    return BENCHMARKS if FULL else SUBSET


@functools.lru_cache(maxsize=None)
def results_dir() -> Path:
    """Where :func:`write_result` writes (see the module docstring)."""
    if WRITE_RESULTS:
        RESULTS_DIR.mkdir(exist_ok=True)
        return RESULTS_DIR
    return Path(tempfile.mkdtemp(prefix="repro-results-"))


def write_result(artifact: str, text: str) -> None:
    path = results_dir() / f"{artifact}.txt"
    path.write_text(text + "\n")


@pytest.fixture(scope="session")
def benchmarks_list():
    return selected_benchmarks()
