"""Fig. 6 — MCFI overhead with periodic update transactions.

Paper: a separate thread refreshes all ID versions at 50 Hz (the
measured V8 code-installation rate); "the average overhead is 6-7%,
which demonstrates MCFI's transactions scale well with frequent code
updates."  Here the updater fires every 60k model cycles (the default
interval of ``fig6_update_overhead``); check transactions that land
mid-update retry, so the Fig. 6 numbers sit above Fig. 5's.
"""

import pytest

from benchmarks.conftest import (FULL, compute_artifact,
                                 selected_benchmarks, write_artifact)
from repro.experiments import fig6_update_overhead


def test_fig6_table(benchmark):
    names = selected_benchmarks()
    rows = benchmark.pedantic(compute_artifact, args=("fig6", names),
                              rounds=1, iterations=1)
    write_artifact("fig6", rows, pinned=not FULL)
    fig6 = {name: updated for name, (_, updated) in rows.items()}
    deltas = [updated.overhead_pct - base.overhead_pct
              for base, updated in rows.values()]

    # Updates may only add overhead, and at least one benchmark must
    # observe several update transactions.
    assert all(delta >= -0.2 for delta in deltas)
    assert any(fig6[name].updates >= 3 for name in names)
    assert sum(deltas) > 0


@pytest.mark.parametrize("name", ["gcc"])
def test_fig6_execution_time(benchmark, name):
    def run():
        return fig6_update_overhead([name])[name]

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    benchmark.extra_info["updates"] = result.updates
    benchmark.extra_info["overhead_pct"] = round(result.overhead_pct, 2)
