"""Sec. 8.3 — ROP gadget elimination.

Paper: "MCFI can eliminate 96.93%/95.75% of ROP gadgets on
x86-32/64" (counted with rp++).  Here a gadget survives only if its
start address is a permitted indirect-branch target under the installed
policy; the elimination rate lands in the same >90% band.
"""

from benchmarks.conftest import (FULL, compute_artifact,
                                 selected_benchmarks, write_artifact)


def test_gadget_table(benchmark):
    names = selected_benchmarks()
    reports = benchmark.pedantic(compute_artifact, args=("gadgets", names),
                                 rounds=1, iterations=1)
    write_artifact("gadgets", reports, pinned=not FULL)
    mean = sum(r["elimination_pct"] for r in reports.values()) / len(reports)

    assert mean > 90.0
    for row in reports.values():
        assert row["native_unique"] > 0


def test_gadget_scan_speed(benchmark):
    from repro.attacks.gadgets import find_gadgets
    from repro.experiments import compiled
    module = compiled("libquantum", "x64", False).module
    code = module.code[:8192]
    gadgets = benchmark.pedantic(
        lambda: find_gadgets(code, base=module.base, depth=4),
        rounds=2, iterations=1)
    benchmark.extra_info["gadgets_found"] = len(gadgets)
