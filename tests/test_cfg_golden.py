"""Golden pins for the CFG policy.

``tests/golden/cfg_policy.json`` holds sha256 digests of:

* each fixed12 program's :func:`generate_cfg` result, for x64 and x32:
  its ``tary_ecns`` and ``bary_ecns``, sorted by key;
* the first 100 events of the dlopen-churn sequence at seed 1, after
  every event: the Tary and Bary bytes, each loaded library's code and
  the program's GOT slots.

The churn sequence is the benchmark suite's ``dlopen-churn`` workload
driven without the suite: a loaded ``gcc`` image, one fresh
:func:`repro.service.tenancy.tenant_source` library per event through
``compile_object`` -> ``register`` -> ``dlopen`` -> ``dlsym``, and once
four libraries are resident, a seeded ``dlclose``.  Any change to type
matching, call-graph construction, equivalence classes or the dynamic
linker that moves one table byte fails here.  A change that *means* to
move the policy regenerates the file with::

    PYTHONPATH=src python -m tests.test_cfg_golden
"""

from __future__ import annotations

import functools
import hashlib
import json
import random
from pathlib import Path

import pytest

from repro.build import BuildSession, compile_object
from repro.cfg.generator import generate_cfg
from repro.linker.dynamic_linker import DynamicLinker
from repro.runtime.runtime import Runtime
from repro.service.tenancy import tenant_source
from repro.workloads.spec import BENCHMARKS, workload

GOLDEN = Path(__file__).parent / "golden" / "cfg_policy.json"
ARCHS = ("x64", "x32")

CHURN_SEED = 1
CHURN_EVENTS = 100
CHURN_HOST = "gcc"
#: libraries kept loaded; once a fifth arrives a seeded victim closes
CHURN_RESIDENT = 4
#: events per host runtime: the loader never reuses the code pages of
#: an unloaded library, so the host is loaded afresh before they run out
CHURN_EPOCH = 256


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def policy_digest(cfg) -> str:
    record = {"tary": sorted(cfg.tary_ecns.items()),
              "bary": sorted(cfg.bary_ecns.items())}
    return _sha(json.dumps(record).encode())


def compute_static(arch: str) -> dict:
    return {name: policy_digest(generate_cfg(BuildSession(arch=arch).build(
        {name: workload(name).source}).program.module.aux))
        for name in BENCHMARKS}


def event_digest(runtime, linker) -> str:
    digest = hashlib.sha256()
    memory = runtime.id_tables.memory
    digest.update(memory.tary)
    digest.update(memory.bary)
    for handle in sorted(linker.loaded):
        library = linker.loaded[handle]
        digest.update(f"{handle}:{library.name}:{library.module.base}:"
                      .encode())
        digest.update(library.module.code)
    for symbol, slot in sorted(runtime.program.got_slots.items()):
        digest.update(symbol.encode())
        digest.update(runtime.memory.host_read(slot, 8))
    return digest.hexdigest()


def churn_events(events: int):
    """Drive the seeded dlopen-churn sequence; yields ``(runtime,
    linker)`` after each of its first ``events`` events.  Every
    ``CHURN_EPOCH`` events it closes the resident libraries and loads
    the host afresh, as the benchmark suite does."""
    rng = random.Random(CHURN_SEED)
    host = BuildSession().build(
        {CHURN_HOST: workload(CHURN_HOST).source}).program
    resident = []
    for k in range(events):
        if k % CHURN_EPOCH == 0:
            for handle in resident:
                assert linker.dlclose(handle) == 0
            resident = []
            runtime = Runtime(host)
            linker = DynamicLinker(runtime, verify=True)
        version = rng.randrange(1, 1 << 16)
        victim = rng.randrange(CHURN_RESIDENT + 1) \
            if len(resident) >= CHURN_RESIDENT else None
        # exported names must not collide with the host's, so the
        # library's entry is not called main
        source = tenant_source(k, version).replace(
            "int main(", f"int t{k}_entry(")
        name = f"lib{k}"
        linker.register(name, compile_object(source, name=name,
                                             arch=host.arch))
        handle = linker.dlopen(name)
        assert handle and linker.dlsym(handle, f"t{k}_scale")
        resident.append(handle)
        if victim is not None:
            assert linker.dlclose(resident.pop(victim)) == 0
        yield runtime, linker


def compute_churn() -> list:
    """One digest per event of the seeded dlopen-churn sequence."""
    return [event_digest(runtime, linker)
            for runtime, linker in churn_events(CHURN_EVENTS)]


def compute_all() -> dict:
    return {"static": {arch: compute_static(arch) for arch in ARCHS},
            "dlopen_churn": {"seed": CHURN_SEED, "events": compute_churn()}}


@functools.lru_cache(maxsize=None)
def golden_pins() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("arch", ARCHS)
def test_fixed12_policies(arch):
    assert compute_static(arch) == golden_pins()["static"][arch]


def test_dlopen_churn_sequence():
    pinned = golden_pins()["dlopen_churn"]
    assert pinned["seed"] == CHURN_SEED
    events = compute_churn()
    assert len(events) == len(pinned["events"]) == CHURN_EVENTS
    for index, (got, want) in enumerate(zip(events, pinned["events"])):
        assert got == want, f"event {index} moved"


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(compute_all(), indent=1, sort_keys=True)
                      + "\n")
    print(f"wrote {GOLDEN}")
