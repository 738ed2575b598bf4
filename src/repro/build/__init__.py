"""repro.build — the incremental compile-as-a-service API.

This package is the one public compile surface of the toolchain:

* :class:`BuildSession` — owns incremental state (source indexes, the
  function-grain unit artifacts, each carrying its fingerprint, and
  the last link) and rebuilds programs at the price of what actually
  changed;
* :class:`BuildResult` — one build's program + provenance metadata.

Its unit linker (:func:`link_units`) lays out every static image, MCFI
or native, from sources or from compiled ``.mcfo`` objects.  Hold a
session to rebuild one program over time::

    from repro.build import BuildSession

    session = BuildSession(arch="x64", cache=open_cache(".cache"))
    result = session.build({"prog": source})     # cold
    result = session.build({"prog": edited})     # incremental splice

Internals, layered bottom-up: :mod:`repro.build.fingerprint` (content
keys), :mod:`repro.build.units` (position-independent per-function
assembly), :mod:`repro.build.link` (the static linker),
:mod:`repro.build.graph` (cache-first unit compiles of one module),
:mod:`repro.build.source_index` (the textual mini-frontend),
:mod:`repro.build.session` (the service facade).  See docs/BUILD.md.
"""

from repro.build.api import build_program, compile_object
from repro.build.fingerprint import (
    UNIT_SCHEMA,
    prelude_digest,
    unit_fingerprint,
)
from repro.build.graph import compile_module_units
from repro.build.link import (
    LinkState,
    ModuleUnits,
    link_units,
    splice_unit,
)
from repro.build.session import BuildResult, BuildSession
from repro.build.units import UnitArtifact, compile_unit

__all__ = [
    "BuildResult",
    "BuildSession",
    "LinkState",
    "ModuleUnits",
    "UNIT_SCHEMA",
    "UnitArtifact",
    "build_program",
    "compile_module_units",
    "compile_object",
    "compile_unit",
    "link_units",
    "prelude_digest",
    "splice_unit",
    "unit_fingerprint",
]
