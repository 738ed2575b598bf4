"""Content fingerprints for function-grain build artifacts.

A unit fingerprint is a SHA-256 over everything that determines the
unit's compiled artifact: the function's MIR (canonically serialized,
with string ids replaced by content digests so the fingerprint is
independent of module-level string numbering), its signature and
storage class, the per-function metadata merged at link time
(address-taken contributions, setjmp use), the architecture mode,
the flavour (MCFI-instrumented or native) and the toolchain/schema
tags.  Two sources whose edits leave a function's MIR unchanged
therefore share its artifact; any change that could affect the unit's
bytes or metadata changes the key.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Iterable

from repro.mir import ir
from repro.tinyc.types import canonical

#: Bump when the UnitArtifact schema or the unit assembly encoding
#: changes shape: invalidates every unit key.
UNIT_SCHEMA = 1

from repro.infra.cache import TOOLCHAIN_TAG  # noqa: E402  (tag reuse)


def prelude_digest() -> str:
    """Digest of the builtin prelude every module is compiled against.

    The prelude declarations shape typechecking (and thus the MIR), so
    its text participates in the campaign's source-level program key: a
    changed prelude never serves an entry made under the old one.
    """
    from repro.toolchain import BUILTIN_PRELUDE
    return hashlib.sha256(BUILTIN_PRELUDE.encode("utf-8")).hexdigest()


def unit_fingerprint(func: ir.MirFunction, sid_contents: Dict[int, bytes],
                     arch: str, takes: Iterable[str],
                     uses_setjmp: bool, mcfi: bool = True) -> str:
    """Fingerprint one function's MIR + metadata for the unit cache."""
    h = hashlib.sha256()

    def feed(value: object) -> None:
        h.update(repr(value).encode("utf-8"))
        h.update(b"\x00")

    feed(("unit" if mcfi else "native-unit", UNIT_SCHEMA, TOOLCHAIN_TAG,
          arch))
    feed((func.name, canonical(func.ftype), func.is_static,
          tuple(func.params), func.n_vregs))
    feed(tuple((name, canonical(ctype))
               for name, ctype in func.locals.items()))
    feed((tuple(sorted(takes)), uses_setjmp))
    for block in func.blocks:
        feed(block.label)
        for inst in block.instrs:
            if isinstance(inst, ir.ConstStr):
                digest = hashlib.sha256(sid_contents[inst.sid]).hexdigest()
                feed(("ConstStr", inst.dst, digest))
            else:
                feed(inst)
    return h.hexdigest()

