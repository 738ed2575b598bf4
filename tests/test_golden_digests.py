"""Golden pins for the compiler's observable outputs.

``tests/golden/compile_digests.json`` holds sha256 digests of:

* the linked images (code, data, entry) of the twelve fixed workloads,
  for both x64 and x32;
* the x64 images of the 20 members of the declared ``gen-smoke`` set;
* the lexer's token stream over the builtin prelude, simlibc and the
  twelve fixed sources (exactly the text the frontend tokenizes);
* simlibc's function-grain unit fingerprints, per architecture.

Any change to the lexer, parser, code generator, instrumenter,
assembler or linker that moves a single output byte fails here.  A
change that *means* to move outputs regenerates the file with::

    PYTHONPATH=src python -m tests.test_golden_digests
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.build import build_program
from repro.build.graph import BuildGraph
from repro.mir.lowering import lower_unit
from repro.tinyc.lexer import tokenize
from repro.toolchain import BUILTIN_PRELUDE, frontend
from repro.workloads.corpus import CorpusConfig
from repro.workloads.generate import generate
from repro.workloads.libc import LIBC_SOURCE
from repro.workloads.spec import BENCHMARKS, benchmark_set, workload

GOLDEN = Path(__file__).parent / "golden" / "compile_digests.json"
ARCHS = ("x64", "x32")


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def image_digest(program) -> dict:
    return {"code": _sha(program.module.code),
            "data": _sha(program.data.image),
            "entry": program.entry}


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


def libc_fingerprints(arch: str) -> str:
    checked = frontend(LIBC_SOURCE, name="libc")
    graph = BuildGraph.of(lower_unit(checked), checked, arch)
    return _sha(json.dumps(graph.fingerprints, sort_keys=True).encode())


def compute_fixed12(arch: str) -> dict:
    return {name: image_digest(
                build_program({name: workload(name).source},
                              arch=arch).program)
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
    return {
        "fixed12": {arch: compute_fixed12(arch) for arch in ARCHS},
        "gen_smoke_x64": compute_gen_smoke(),
        "tokens": compute_tokens(),
        "libc_units": {arch: libc_fingerprints(arch) for arch in ARCHS},
    }


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("arch", ARCHS)
def test_fixed12_images(golden, arch):
    assert compute_fixed12(arch) == golden["fixed12"][arch]


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
