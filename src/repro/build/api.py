"""One-shot entry points over :class:`~repro.build.session.BuildSession`.

Two call shapes:

* :func:`compile_object` — one TinyC module to an (uninstrumented)
  :class:`~repro.mir.codegen.RawModule`, the module-grain pipeline used
  by dlopen libraries, the JIT engine and the ``.mcfo`` object-file
  tools;
* :func:`build_program` — named sources to a linked program via a
  throwaway :class:`BuildSession`; pass ``cache`` to share
  function-grain artifacts across calls.

Hold a :class:`BuildSession` yourself when you rebuild the *same*
program repeatedly — that is where warm and incremental rebuilds come
from.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.build.session import BuildResult, BuildSession
from repro.mir.codegen import RawModule, generate
from repro.mir.lowering import lower_unit
from repro.obs import OBS


def compile_object(source: str, name: str = "unit",
                   arch: str = "x64") -> RawModule:
    """Compile one TinyC module to (uninstrumented) symbolic assembly."""
    from repro.toolchain import frontend
    with OBS.tracer.span("toolchain.compile", module=name, arch=arch):
        with OBS.tracer.span("toolchain.frontend", module=name):
            checked = frontend(source, name=name)
        with OBS.tracer.span("toolchain.lower", module=name):
            mir_module = lower_unit(checked)
        with OBS.tracer.span("toolchain.codegen", module=name):
            return generate(mir_module, checked, arch=arch)


def build_program(sources: Dict[str, str], arch: str = "x64",
                  mcfi: bool = True, with_libc: bool = True,
                  allow_unresolved: Optional[List[str]] = None,
                  devirtualize: bool = False,
                  cache=None) -> BuildResult:
    """Build named sources (plus simlibc) into a linked program.

    A one-shot :class:`BuildSession`: every build is cold at the
    session level, but with a ``cache`` the function-grain unit
    artifacts still carry over between calls (and processes).  Every
    MCFI unit published to the cache must pass
    :mod:`repro.analysis.binverify` first.
    """
    session = BuildSession(arch=arch, mcfi=mcfi, with_libc=with_libc,
                           allow_unresolved=allow_unresolved,
                           devirtualize=devirtualize,
                           cache=cache)
    return session.build(sources)
