"""Runtime code installation: the paper's JIT scenario (Sec. 8.1).

The paper motivates its transaction design with just-in-time
compilation — "a rather extreme test for whether MCFI's transactions
scale ... where code is generated and installed on-the-fly, and as a
result, ID tables need to be updated frequently" — but leaves the JIT
implementation to future work (it became the authors' follow-up
system, RockJIT).  This module builds that scenario:

* :class:`JitEngine` compiles TinyC functions *at runtime*, installs
  them into fresh code pages under the W^X discipline (written while
  non-executable, verified, then sealed to R+X), merges their auxiliary
  type information, regenerates the CFG, and publishes the new policy
  with an update transaction — exactly the dlopen pipeline, driven at
  JIT rates.
* Guest programs reach it through the ``jit_compile`` syscall: they
  pass TinyC source text and receive a function pointer, which the very
  next indirect call can use — *if* its type matches, because the
  freshly generated code is subject to the same type-matching CFG as
  everything else.  A JIT-sprayed function of the wrong type is
  unreachable.

Each installation is one module through the full separate-compilation
pipeline, so "number of indirect branch executions ~ 10^8 times the CFG
updates" (the paper's V8 measurement) can be dialled to any ratio the
experiment needs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.build import compile_object
from repro.errors import LinkError, ReproError
from repro.linker.dynamic_linker import DynamicLinker


@dataclass
class JitStats:
    """Bookkeeping for JIT-rate experiments."""

    installs: int = 0
    failures: int = 0
    compiled_bytes: int = 0
    installed_functions: List[str] = field(default_factory=list)


class JitEngine:
    """Runtime TinyC compilation service on top of the dynamic linker.

    The engine is trusted (it is part of the runtime, like the paper's
    CFG generator), but the code it *emits* is not: every generated
    module is instrumented and verified before its pages become
    executable, so a buggy or malicious code generator cannot smuggle
    unchecked indirect branches into the process.  The engine installs
    through the runtime's dynamic linker as that linker is configured;
    a runtime without one gets a default, verifying linker.
    """

    def __init__(self, runtime) -> None:
        self.runtime = runtime
        if runtime.dynamic_linker is None:
            DynamicLinker(runtime)
        #: the runtime's linker, used as it is configured
        self.linker: DynamicLinker = runtime.dynamic_linker
        self.stats = JitStats()
        self._counter = 0
        runtime.jit_engine = self

    def install_source(self, source: str, cpu=None) -> Dict[str, int]:
        """Compile and install one TinyC fragment; return its exports.

        ``source`` is an ordinary TinyC module (it may reference libc
        and program symbols).  Returns a mapping from exported function
        names to their entry addresses.
        """
        self._counter += 1
        name = f"__jit{self._counter}"
        try:
            raw = compile_object(source, name=name,
                                 arch=self.runtime.program.arch)
        except ReproError:
            self.stats.failures += 1
            raise
        self.linker.register(name, raw)
        handle = self.linker.dlopen(name, cpu)
        if handle == 0:
            self.stats.failures += 1
            raise LinkError(f"JIT install of {name} failed")
        library = self.linker.loaded[handle]
        self.stats.installs += 1
        self.stats.compiled_bytes += len(library.module.code)
        self.stats.installed_functions.extend(library.exports)
        return dict(library.exports)

    def install_function(self, source: str, fn_name: str,
                         cpu=None) -> int:
        """Install one function and return its address (0 on failure)."""
        exports = self.install_source(source, cpu=cpu)
        return exports.get(fn_name, 0)


def jit_compile_syscall(runtime, cpu) -> None:
    """Syscall backend: rax=12, r8 = source c-string, r9 = name c-string.

    Returns the installed function's address in rax, or 0 on failure —
    the guest-facing entry point for runtime code generation.
    """
    from repro.vm.syscalls import read_text
    engine: Optional[JitEngine] = getattr(runtime, "jit_engine", None)
    if engine is None:
        cpu.regs[0] = 0
        return
    source = read_text(runtime.memory, cpu.regs[8], limit=65536)
    fn_name = read_text(runtime.memory, cpu.regs[9])
    if source is None or fn_name is None:
        cpu.regs[0] = 0
        return
    try:
        cpu.regs[0] = engine.install_function(source, fn_name, cpu=cpu)
    except ReproError:
        cpu.regs[0] = 0
