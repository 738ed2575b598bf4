"""Golden pins for the compiler's observable outputs.

``tests/golden/compile_digests.json`` holds sha256 digests of:

* the linked images (code, data, entry) of the twelve fixed workloads,
  for both x64 and x32, MCFI-instrumented and native;
* the x64 images of the 20 members of the declared ``gen-smoke`` set;
* the lexer's token stream over the builtin prelude, simlibc and the
  twelve fixed sources (exactly the text the frontend tokenizes);
* simlibc's function-grain unit fingerprints, per architecture;
* full link records (:func:`link_record`: Bary slots, code ranges, heap
  base, parts, GOT slots, public labels and the auxiliary information)
  of fixed12 x64/x32 MCFI/native, devirtualized fixed12 x64, and three
  link-edge programs: a literal dropped by dead-code pruning, two
  modules defining the same static function, and a PLT import.

The link records were generated from the retired monolithic static
linker, so they pin the unit linker to the reference it replaced.  Any
change to the lexer, parser, code generator, instrumenter, assembler or
linker that moves a single output byte fails here.  A change that
*means* to move outputs regenerates the file with::

    PYTHONPATH=src python -m tests.test_golden_digests
"""

from __future__ import annotations

import functools
import hashlib
import json
from pathlib import Path

import pytest

from repro.build import build_program, compile_module_units
from repro.mir.lowering import lower_unit
from repro.tinyc.lexer import tokenize
from repro.toolchain import BUILTIN_PRELUDE, frontend
from repro.workloads.corpus import CorpusConfig
from repro.workloads.generate import generate
from repro.workloads.libc import LIBC_SOURCE
from repro.workloads.spec import BENCHMARKS, benchmark_set, workload

GOLDEN = Path(__file__).parent / "golden" / "compile_digests.json"
ARCHS = ("x64", "x32")
#: fixed12 link-record groups: (arch, mcfi, devirtualize)
RECORD_GROUPS = {"x64/mcfi": ("x64", True, False),
                 "x64/native": ("x64", False, False),
                 "x32/mcfi": ("x32", True, False),
                 "x32/native": ("x32", False, False),
                 "x64/mcfi/devirt": ("x64", True, True)}

#: Lowering interns strings before pruning unreachable blocks, so the
#: dead literal still takes a string id the link must reproduce.
DEAD_STRING_SOURCE = r"""
int shout(int noisy) {
    if (noisy) {
        print_str("alive\n");
        return 1;
    }
    return 0;
    print_str("dead branch string never interned late");
}

int main(void) {
    return shout(1) - 1;
}
"""

#: C internal linkage: both modules define a static ``util``.
STATIC_COLLISION_SOURCES = {
    "a": """
        int b_value(void);
        static int util(void) { return 1; }
        int main(void) {
            print_int(util() * 10 + b_value());
            return 0;
        }
    """,
    "b": """
        static int util(void) { return 2; }
        int b_value(void) { return util(); }
    """,
}

#: A freestanding module importing a symbol bound later by dlopen.
PLT_SOURCE = """
    int plugin_fn(int x);
    void _start(void) { __syscall(1, plugin_fn(1), 0, 0); }
"""

#: link-edge programs: record name -> (sources, build_program keywords)
EDGE_PROGRAMS = {
    "dead_string/mcfi": ({"t": DEAD_STRING_SOURCE}, {}),
    "static_collision/mcfi": (STATIC_COLLISION_SOURCES, {}),
    "static_collision/native": (STATIC_COLLISION_SOURCES, {"mcfi": False}),
    "plt/mcfi": ({"m0": PLT_SOURCE},
                 {"with_libc": False, "allow_unresolved": ["plugin_fn"]}),
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def image_digest(program) -> dict:
    return {"code": _sha(program.module.code),
            "data": _sha(program.data.image),
            "entry": program.entry}


def _sig(sig):
    return sig.render() if sig is not None else None


def link_record(program) -> str:
    """Digest of everything a link produces beside the image bytes,
    minus the names of generated ``__mcfi.*`` labels (unreferenced, and
    namespaced differently per instrumentation grain)."""
    module = program.module
    aux = module.aux
    record = {
        "bary_slots": sorted(module.bary_slots.items()),
        "code_ranges": module.code_ranges,
        "heap_base": program.heap_base,
        "parts": program.parts,
        "got_slots": program.got_slots,
        "labels": {name: address for name, address in module.labels.items()
                   if not name.startswith("__mcfi.")},
        "functions": {f.name: [_sig(f.sig), f.entry, f.address_taken,
                               f.exported, f.module]
                      for f in aux.functions.values()},
        "retsites": [[r.address, r.caller, r.callee, _sig(r.sig)]
                     for r in aux.retsites],
        "branch_sites": [[s.site, s.kind, s.fn, _sig(s.sig), s.targets,
                          s.plt_symbol, s.ptargets]
                         for s in aux.branch_sites],
        "setjmp_resumes": aux.setjmp_resumes,
        "direct_calls": aux.direct_calls,
        "data_ranges": aux.data_ranges,
        "exports": aux.exports,
        "imports": aux.imports,
    }
    return _sha(json.dumps(record, sort_keys=True).encode())


@functools.lru_cache(maxsize=None)
def fixed12_program(name: str, arch: str = "x64", mcfi: bool = True,
                    devirtualize: bool = False):
    """One fixed workload's linked program, built once per test session."""
    return build_program({name: workload(name).source}, arch=arch,
                         mcfi=mcfi, devirtualize=devirtualize).program


def edge_program(name: str):
    sources, options = EDGE_PROGRAMS[name]
    return build_program(sources, **options).program


def token_digest(text: str) -> str:
    digest = hashlib.sha256()
    for token in tokenize(text):
        digest.update(repr((token.kind, token.text, token.line,
                            token.column, token.value)).encode())
        digest.update(b"\n")
    return digest.hexdigest()


def gen_smoke_sources() -> dict:
    spec = benchmark_set("gen-smoke")
    config = CorpusConfig().gen_config(spec.quick)
    return {f"gen{seed}": generate(seed, config).source
            for seed in spec.seeds}


def unit_fingerprints(checked, arch: str = "x64",
                      mcfi: bool = True) -> dict:
    """Each function's unit fingerprint, as a build keys its unit."""
    module_units, _ = compile_module_units(lower_unit(checked), checked,
                                           arch, mcfi=mcfi)
    return {unit.fn: unit.fingerprint for unit in module_units.units}


def libc_fingerprints(arch: str) -> str:
    checked = frontend(LIBC_SOURCE, name="libc")
    return _sha(json.dumps(unit_fingerprints(checked, arch),
                           sort_keys=True).encode())


def compute_fixed12(arch: str, mcfi: bool = True) -> dict:
    return {name: image_digest(fixed12_program(name, arch, mcfi))
            for name in BENCHMARKS}


def compute_records(group: str) -> dict:
    arch, mcfi, devirtualize = RECORD_GROUPS[group]
    return {name: link_record(fixed12_program(name, arch, mcfi,
                                              devirtualize))
            for name in BENCHMARKS}


def compute_gen_smoke() -> dict:
    return {name: image_digest(build_program({name: source}).program)
            for name, source in gen_smoke_sources().items()}


def compute_tokens() -> dict:
    texts = {"prelude": BUILTIN_PRELUDE,
             "libc": BUILTIN_PRELUDE + LIBC_SOURCE}
    texts.update((name, BUILTIN_PRELUDE + workload(name).source)
                 for name in BENCHMARKS)
    return {name: token_digest(text) for name, text in texts.items()}


def compute_all() -> dict:
    records = {group: compute_records(group) for group in RECORD_GROUPS}
    records["edge"] = {name: link_record(edge_program(name))
                       for name in EDGE_PROGRAMS}
    return {
        "fixed12": {arch: compute_fixed12(arch) for arch in ARCHS},
        "fixed12_native": {arch: compute_fixed12(arch, mcfi=False)
                           for arch in ARCHS},
        "gen_smoke_x64": compute_gen_smoke(),
        "tokens": compute_tokens(),
        "libc_units": {arch: libc_fingerprints(arch) for arch in ARCHS},
        "link_records": records,
    }


@functools.lru_cache(maxsize=None)
def golden_pins() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.fixture(scope="module")
def golden():
    return golden_pins()


@pytest.mark.parametrize("arch", ARCHS)
def test_fixed12_images(golden, arch):
    assert compute_fixed12(arch) == golden["fixed12"][arch]


@pytest.mark.parametrize("arch", ARCHS)
def test_fixed12_native_images(golden, arch):
    assert compute_fixed12(arch, mcfi=False) == \
        golden["fixed12_native"][arch]


@pytest.mark.parametrize("group", list(RECORD_GROUPS))
def test_fixed12_link_records(golden, group):
    assert compute_records(group) == golden["link_records"][group]


@pytest.mark.parametrize("name", list(EDGE_PROGRAMS))
def test_edge_program_records(golden, name):
    assert link_record(edge_program(name)) == \
        golden["link_records"]["edge"][name]


def test_gen_smoke_images(golden):
    assert compute_gen_smoke() == golden["gen_smoke_x64"]


def test_token_streams(golden):
    assert compute_tokens() == golden["tokens"]


@pytest.mark.parametrize("arch", ARCHS)
def test_libc_unit_fingerprints(golden, arch):
    assert libc_fingerprints(arch) == golden["libc_units"][arch]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(compute_all(), indent=1, sort_keys=True)
                      + "\n")
    print(f"wrote {GOLDEN}")
