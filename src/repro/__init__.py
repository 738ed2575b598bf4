"""repro — a reproduction of "Modular Control-Flow Integrity" (PLDI 2014).

MCFI is the first fine-grained CFI instrumentation that supports
separate compilation: modules are independently instrumented and linked
statically or dynamically; the control-flow policy lives in runtime ID
tables updated transactionally when libraries are loaded.

This package rebuilds the entire system against a simulated substrate —
a C-subset compiler (TinyC), a variable-length virtual ISA (SimISA), a
deterministic multithreaded VM (SimVM) — so that enforcement,
verification, dynamic linking and the paper's attacks all execute for
real.  See DESIGN.md for the system inventory and EXPERIMENTS.md for
the per-table/figure reproduction record.

Quickstart::

    from repro import build_program, run_program
    program = build_program({"app": "int main(void){ return 42; }"}).program
    assert run_program(program).exit_code == 42

Main entry points:

* :class:`repro.build.BuildSession` — incremental compile-as-a-service
  (the public compile surface; :func:`repro.build.build_program` is
  its one-shot form)
* :func:`repro.build.compile_object` — TinyC -> instrumentable module
* :func:`repro.build.link.link_units` — separate-compilation linking
* :class:`repro.runtime.runtime.Runtime` — load + execute (MCFI enforced)
* :class:`repro.linker.dynamic_linker.DynamicLinker` — dlopen support
* :func:`repro.cfg.generator.generate_cfg` — type-matching CFG generation
* :func:`repro.analysis.binverify.verify_module` — modular verification
* :func:`repro.analysis.analyzer.analyze_source` — the C1/C2 analyzer
* :mod:`repro.experiments` — regenerate every table/figure of the paper
"""

from repro.toolchain import frontend, run_program
from repro.build import (
    BuildResult,
    BuildSession,
    build_program,
    compile_object,
)
from repro.runtime.runtime import Runtime, RunResult
from repro.linker.static_linker import LinkedProgram
from repro.linker.dynamic_linker import DynamicLinker
from repro.cfg.generator import Cfg, generate_cfg
from repro.analysis.binverify import verify_module
from repro.analysis.analyzer import AnalysisReport, analyze_source
from repro.errors import (
    CfiViolation,
    LinkError,
    ReproError,
    TinyCError,
    VerificationError,
)

__version__ = "1.0.0"

__all__ = [
    "BuildResult", "BuildSession", "build_program",
    "compile_object", "frontend", "run_program",
    "Runtime", "RunResult",
    "LinkedProgram", "DynamicLinker",
    "Cfg", "generate_cfg", "verify_module",
    "AnalysisReport", "analyze_source",
    "CfiViolation", "LinkError", "ReproError", "TinyCError",
    "VerificationError",
    "__version__",
]
