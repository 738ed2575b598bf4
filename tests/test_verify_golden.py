"""Golden pins for the binary verifier's reports.

``tests/golden/verify_reports.json`` holds the sha256 digest of
:meth:`VerifyReport.to_dict` (serialized with sorted keys) for:

* each fixed12 program's linked image, for x64 and x32;
* each mutated image of the quick evasion subset (the workloads of
  ``repro verify evasion --quick``, every miscompile injector, its
  seeds), built exactly as :func:`repro.faults.miscompile.evasion_campaign`
  builds them; an injector that finds no site pins ``null``.

Every verdict, diagnostic, statistic, check span and per-branch verdict
feeds the digest, so a change to the decoder, the sweep, CFG
reconstruction or the abstract interpreter that moves one byte of a
report fails here.  A change that *means* to move the verifier's output
regenerates the file with::

    PYTHONPATH=src python -m tests.test_verify_golden
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import random
from pathlib import Path

import pytest

from repro.analysis.binverify import analyze_module
from repro.experiments import compiled
from repro.faults.miscompile import MISCOMPILE_INJECTORS, MutationContext
from repro.tools.verify import QUICK_SEEDS, QUICK_WORKLOADS
from repro.workloads.spec import BENCHMARKS

GOLDEN = Path(__file__).parent / "golden" / "verify_reports.json"
ARCHS = ("x64", "x32")
#: the arch ``repro verify evasion`` mutates by default
MUTATION_ARCH = "x64"


def report_digest(module) -> str:
    record = json.dumps(analyze_module(module).to_dict(), sort_keys=True)
    return hashlib.sha256(record.encode()).hexdigest()


def compute_fixed12(arch: str) -> dict:
    return {name: report_digest(compiled(name, arch, True).module)
            for name in BENCHMARKS}


def compute_mutations(name: str) -> dict:
    """``{"injector:seed": digest or None}`` for one workload."""
    module = compiled(name, MUTATION_ARCH, True).module
    ctx = MutationContext.of(module)
    out = {}
    for injector, fn in MISCOMPILE_INJECTORS.items():
        for seed in QUICK_SEEDS:
            mutation = fn(ctx, random.Random(f"{name}:{injector}:{seed}"))
            out[f"{injector}:{seed}"] = None if mutation is None else \
                report_digest(dataclasses.replace(module, code=mutation[0]))
    return out


def compute_all() -> dict:
    return {"fixed12": {arch: compute_fixed12(arch) for arch in ARCHS},
            "mutations": {name: compute_mutations(name)
                          for name in QUICK_WORKLOADS}}


@functools.lru_cache(maxsize=None)
def golden_pins() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("arch", ARCHS)
def test_fixed12_reports(arch):
    assert compute_fixed12(arch) == golden_pins()["fixed12"][arch]


@pytest.mark.parametrize("name", QUICK_WORKLOADS)
def test_mutated_reports(name):
    pinned = golden_pins()["mutations"][name]
    assert len(pinned) == len(MISCOMPILE_INJECTORS) * len(QUICK_SEEDS)
    assert compute_mutations(name) == pinned


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(compute_all(), indent=1, sort_keys=True)
                      + "\n")
    print(f"wrote {GOLDEN}")
