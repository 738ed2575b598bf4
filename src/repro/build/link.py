"""The static linker: place function units, patch relocations, merge
auxiliary information.

Every static image — MCFI or native, built from sources by a
:class:`~repro.build.session.BuildSession` or from compiled ``.mcfo``
objects (:meth:`ModuleUnits.from_object`) — is laid out here.  The
linker consumes pre-assembled :class:`~repro.build.units.UnitArtifact`
bodies: placement is a cursor walk (each body starts at the next
``lead_align``-aligned address, padded with the NOPs an ``Align``
directive would emit), resolution is one dict, and patching writes the
recorded relocation holes.  Combining modules is the paper's union of
their auxiliary information (Sec. 6).  A rebuild that changed one
function re-patches that unit and splices it into the previous image
(:func:`splice_unit`): only the unit's code slice, labels, Bary slots,
aux entries and data ranges are replaced, so a one-function edit
costs about what that function costs.

Layout invariants (pinned by ``tests/golden/compile_digests.json``):

* unit bodies are assembled at base 0 and placed ``lead_align``-aligned,
  so all intra-unit padding and displacements match a whole-module
  assembly of the same items;
* string relocations are content-addressed and the module string table
  is renumbered here by replaying each scope's lowering-time reference
  list through a fresh interner — reproducing cold ``sid`` numbering
  even after single-function edits add or drop literals;
* static-collision renaming (``{module}${name}``, C internal linkage)
  happens at the metadata level only: label names never affect image
  bytes, so cached units stay name-stable across programs.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field, replace
from types import SimpleNamespace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.build.units import (
    NOP,
    UnitArtifact,
    assemble_plt_unit,
    unit_from_items,
)
from repro.core.instrument import build_plt
from repro.errors import AssemblerError, LinkError
from repro.isa.assembler import AsmInstr, Label, LabelRef
from repro.linker.static_linker import (
    LinkedProgram,
    build_data_image,
    layout_data,
)
from repro.mir import ir
from repro.mir.codegen import RawModule
from repro.module.auxinfo import (
    AuxInfo,
    BranchSiteAux,
    FunctionAux,
    RetSiteAux,
)
from repro.module.module import DataLayout, McfiModule, code_ranges
from repro.vm.memory import CODE_BASE, DATA_BASE, PAGE_SIZE

_MASK32 = 0xFFFFFFFF
_MASK64 = 0xFFFFFFFFFFFFFFFF


@dataclass
class ModuleUnits:
    """One module's link input: ordered function units + its data."""

    name: str
    arch: str
    units: List[UnitArtifact]
    globals: Dict[str, ir.GlobalData] = field(default_factory=dict)
    #: per-scope ordered string references from lowering ('' = global
    #: initializers, else function name).  The link replays these — not
    #: the units' referenced-content lists — because cold ``sid``
    #: numbering includes strings whose code was pruned as unreachable;
    #: replaying reproduces the cold data layout exactly.
    intern_refs: Dict[str, List[bytes]] = field(default_factory=dict)
    #: function names whose address is taken at top level
    global_takes: Tuple[str, ...] = ()

    @classmethod
    def from_object(cls, raw: RawModule, mcfi: bool = True) -> "ModuleUnits":
        """Split a compiled module at its function entries into units.

        Each function's items take the same instrument-or-lower and
        unit-assembly step as a fresh compile; a unit's metadata comes
        from the module's function table, direct-call list and label
        references.  Strings keep their module numbering (one replayed
        scope), so the link lays the data out as the module declares it.
        """
        prefix = f"{raw.name}.str"
        sid_contents = {int(label[len(prefix):]): blob
                        for label, blob in raw.strings.items()}
        symbols = set(raw.functions) | set(raw.imports)
        bodies: Dict[str, list] = {}
        for item in raw.items:
            if isinstance(item, Label) and item.name in raw.functions:
                body = bodies[item.name] = []
            body.append(item)
        units = []
        for name, items in bodies.items():
            meta = raw.functions[name]
            refs = {op.name for item in items if isinstance(item, AsmInstr)
                    for op in item.operands if isinstance(op, LabelRef)}
            artifact = UnitArtifact(
                fn=name, fingerprint="", sig=meta.sig,
                exported=meta.exported,
                referenced=tuple(sorted(refs & symbols)),
                direct_calls=[edge for edge in raw.direct_calls
                              if edge[0] == name])
            units.append(unit_from_items(items, raw.name, raw.arch,
                                         sid_contents, artifact, mcfi))
        takes = set(raw.taken_names) | {
            name for name, meta in raw.functions.items()
            if meta.address_taken}
        return cls(name=raw.name, arch=raw.arch, units=units,
                   globals=raw.globals,
                   intern_refs={"": list(raw.strings.values())},
                   global_takes=tuple(sorted(takes)))


@dataclass
class UnitFrag:
    """One placed, patched unit plus its precomputed aux fragments."""

    key: Tuple[int, str]              # (module index, fn); (-1, '__plt')
    unit: UnitArtifact
    module_name: str
    pad: int
    base: int                         # absolute address of the body
    site_base: int                    # global number of local site 0
    code: bytes                       # patched body (pad not included)
    labels: Dict[str, int]            # renamed label -> absolute address
    bary: Dict[int, int]              # global site -> offset from code base
    retsites: List[RetSiteAux] = field(default_factory=list)
    branch_sites: List[BranchSiteAux] = field(default_factory=list)
    data_ranges: List[Tuple[int, int]] = field(default_factory=list)
    setjmp_resume_addrs: List[int] = field(default_factory=list)
    # renamed metadata
    fn_name: str = ""
    direct_calls: List[Tuple[str, str, bool]] = field(default_factory=list)
    takes: Tuple[str, ...] = ()


@dataclass
class LinkState:
    """A full link's inputs and placed fragments, and its latest
    program: what :func:`splice_unit` needs to make the next one."""

    modules: List[ModuleUnits]
    mcfi: bool
    code_base: int
    data_base: int
    entry_symbol: str
    allow_unresolved: Tuple[str, ...]
    renames: List[Dict[str, str]] = field(default_factory=list)
    frags: List[UnitFrag] = field(default_factory=list)
    resolve: Dict[str, int] = field(default_factory=dict)
    layout: Optional[DataLayout] = None
    #: per-module content -> absolute string address
    string_addr: List[Dict[bytes, int]] = field(default_factory=list)
    imports: List[str] = field(default_factory=list)
    dynamic_symbols: List[str] = field(default_factory=list)
    got_names: Dict[str, str] = field(default_factory=dict)
    #: per-module RawModule stand-ins (name/strings/globals) for the
    #: data layout and image builders
    raw_likes: List[object] = field(default_factory=list)
    program: Optional[LinkedProgram] = None


def _renamer(rmap: Dict[str, str]) -> Callable[[str], str]:
    """Prefix-aware label renamer: rename exact matches and
    ``old.``-prefixed block/table labels."""
    if not rmap:
        return lambda label: label

    def rn(label: str) -> str:
        head, sep, rest = label.partition(".")
        new = rmap.get(head)
        if new is None:
            return label
        return new + sep + rest

    return rn


def _compute_renames(modules: Sequence[ModuleUnits]) -> List[Dict[str, str]]:
    """C internal linkage: give each colliding static function or
    global a module-qualified name, ``{module}${name}``."""
    renames: List[Dict[str, str]] = [{} for _ in modules]
    owner: Dict[str, Tuple[int, bool]] = {}
    for index, module in enumerate(modules):
        symbols = [(unit.fn, unit.exported) for unit in module.units]
        symbols += [(name, not data.is_static)
                    for name, data in module.globals.items()]
        for name, exported in symbols:
            if name not in owner:
                owner[name] = (index, exported)
                continue
            other_index, other_exported = owner[name]
            if not exported:
                renames[index][name] = f"{module.name}${name}"
            elif not other_exported:
                renames[other_index][name] = \
                    f"{modules[other_index].name}${name}"
                owner[name] = (index, exported)
            # two exported definitions: reported by the merge below
    return renames


def _module_imports(modules: Sequence[ModuleUnits],
                    renames: List[Dict[str, str]],
                    defined: Dict[str, Tuple[int, UnitArtifact]]) -> List[str]:
    referenced: set = set()
    for index, module in enumerate(modules):
        rmap = renames[index]
        for unit in module.units:
            referenced.update(rmap.get(n, n) for n in unit.referenced)
        for data in module.globals.values():
            for _, kind, symbol in data.relocs:
                if kind == "func":
                    referenced.add(rmap.get(symbol, symbol))
    return sorted(name for name in referenced if name not in defined)


def link_units(modules: List[ModuleUnits], mcfi: bool = True,
               code_base: int = CODE_BASE, data_base: int = DATA_BASE,
               entry_symbol: str = "_start",
               allow_unresolved: Optional[List[str]] = None) -> LinkState:
    """Full unit-level link: place every unit, patch, finalize.

    ``allow_unresolved`` lists symbols expected to be bound at runtime
    via dlopen/dlsym (routed through MCFI-instrumented PLT entries);
    everything else must resolve now.
    """
    if not modules:
        raise LinkError("nothing to link")
    arch = modules[0].arch
    if any(m.arch != arch for m in modules):
        raise LinkError("cannot mix x32 and x64 modules")

    state = LinkState(modules=modules, mcfi=mcfi, code_base=code_base,
                      data_base=data_base, entry_symbol=entry_symbol,
                      allow_unresolved=tuple(allow_unresolved or ()))
    state.renames = _compute_renames(modules)

    defined: Dict[str, Tuple[int, UnitArtifact]] = {}
    for index, module in enumerate(modules):
        rmap = state.renames[index]
        for unit in module.units:
            new = rmap.get(unit.fn, unit.fn)
            if new in defined:
                raise LinkError(f"multiple definitions of {new!r}")
            defined[new] = (index, unit)

    state.imports = _module_imports(modules, state.renames, defined)
    allow = set(state.allow_unresolved)
    state.dynamic_symbols = [i for i in state.imports if i in allow]
    unresolved = [i for i in state.imports if i not in allow]
    if unresolved:
        raise LinkError(f"unresolved symbols: {', '.join(unresolved)}")
    if state.dynamic_symbols and not mcfi:
        raise LinkError("PLT-routed dynamic symbols require MCFI mode")

    # PLT pseudo-unit for dynamically bound imports.
    state.got_names = {sym: f"__got.{sym}" for sym in state.dynamic_symbols}
    plt_unit = None
    if state.dynamic_symbols:
        plt_asm = build_plt(state.dynamic_symbols, state.got_names)
        aliased = []
        for item in plt_asm.items:
            if isinstance(item, Label) and item.name.startswith("__plt."):
                aliased.append(Label(item.name[len("__plt."):]))
            aliased.append(item)
        plt_unit = assemble_plt_unit(aliased, plt_asm.sites)

    _layout_strings_and_data(state)

    # Placement: cursor walk over every unit (then the PLT).
    placements: List[Tuple[Tuple[int, str], UnitArtifact, Dict[str, str]]] = []
    for index, module in enumerate(modules):
        for unit in module.units:
            placements.append(((index, unit.fn), unit, state.renames[index]))
    if plt_unit is not None:
        placements.append(((-1, "__plt"), plt_unit, {}))

    cursor = code_base
    site_base = 0
    placed = []
    for key, unit, rmap in placements:
        pad = (-cursor) % unit.lead_align
        base = cursor + pad
        placed.append((key, unit, rmap, pad, base, site_base))
        cursor = base + unit.size
        site_base += len(unit.sites)

    # Resolution map: data symbols first, code labels shadow them.
    resolve = dict(state.layout.symbols)
    for key, unit, rmap, pad, base, sbase in placed:
        rn = _renamer(rmap)
        for name, off in unit.labels.items():
            resolve[rn(name)] = base + off
    state.resolve = resolve

    state.frags = [
        _build_frag(state, key, unit, rmap, pad, base, sbase)
        for key, unit, rmap, pad, base, sbase in placed]
    _finalize(state)
    return state


def _layout_strings_and_data(state: LinkState) -> None:
    """Renumber each module's string table and lay out the data region.

    Replaying the ordered per-scope reference lists (globals first, then
    units in definition order) through a fresh interner reproduces the
    lowering-time ``sid`` numbering exactly — including after an edit
    added or removed literals in one function.
    """
    raw_likes = []
    state.string_addr = []
    for index, module in enumerate(state.modules):
        interner: Dict[bytes, int] = {}
        ordered: List[bytes] = []

        def intern(content: bytes) -> None:
            if content not in interner:
                interner[content] = len(ordered)
                ordered.append(content)

        for content in module.intern_refs.get("", ()):
            intern(content)
        for unit in module.units:
            for content in module.intern_refs.get(unit.fn, ()):
                intern(content)
            for content in unit.strings:  # safety net: cached units must
                intern(content)           # always resolve their 'S' relocs
        strings = {f"{module.name}.str{sid}": content
                   for sid, content in enumerate(ordered)}
        rmap = state.renames[index]
        globals_eff = module.globals
        if rmap:
            globals_eff = {
                rmap.get(name, name): replace(data, relocs=[
                    (off, kind,
                     rmap.get(sym, sym) if kind != "str" else sym)
                    for off, kind, sym in data.relocs])
                for name, data in module.globals.items()}
        raw_likes.append(SimpleNamespace(name=module.name, strings=strings,
                                         globals=globals_eff))
        state.string_addr.append(interner)  # indices for now; addresses below

    state.layout = layout_data(raw_likes, base=state.data_base,
                               got_names=state.got_names)
    for index, module in enumerate(state.modules):
        interner = state.string_addr[index]
        state.string_addr[index] = {
            content: state.layout.symbols[f"{module.name}.str{sid}"]
            for content, sid in interner.items()}
    state.raw_likes = raw_likes


def _build_frag(state: LinkState, key: Tuple[int, str], unit: UnitArtifact,
                rmap: Dict[str, str], pad: int, base: int,
                site_base: int) -> UnitFrag:
    rn = _renamer(rmap)
    module_index = key[0]
    module_name = state.modules[module_index].name if module_index >= 0 \
        else "__plt"
    str_addr = state.string_addr[module_index] if module_index >= 0 else {}
    resolve = state.resolve

    labels = {rn(name): base + off for name, off in unit.labels.items()}

    body = bytearray(unit.code)
    for field_off, kind, ref, extra in unit.relocs:
        if ref[0] == "S":
            target = str_addr[unit.strings[ref[1]]]
        else:
            name = rn(ref[1])
            target = resolve.get(name)
            if target is None:
                raise AssemblerError(f"undefined label {name!r}")
        if kind == "rel32":
            value = (target - (base + extra)) & _MASK32
            body[field_off:field_off + 4] = value.to_bytes(4, "little")
        elif kind == "abs32":
            body[field_off:field_off + 4] = \
                (target & _MASK32).to_bytes(4, "little")
        else:  # abs64 | word — 8-byte absolute
            body[field_off:field_off + 8] = \
                (target & _MASK64).to_bytes(8, "little")

    frag = UnitFrag(key=key, unit=unit, module_name=module_name, pad=pad,
                    base=base, site_base=site_base, code=bytes(body),
                    labels=labels, bary={},
                    fn_name=rmap.get(unit.fn, unit.fn))

    code_off = base - state.code_base
    frag.bary = {site_base + local: code_off + off
                 for local, off in unit.bary_slots}

    # Aux fragments (addresses absolute, site numbers global).
    for mark_kind, info, off in unit.marks:
        if mark_kind == "retsite":
            if len(info) == 3:
                caller, callee, sig = info
            else:
                caller, callee = info
                sig = None
            frag.retsites.append(RetSiteAux(
                address=base + off,
                caller=rmap.get(caller, caller) if caller else caller,
                callee=rmap.get(callee, callee) if callee else callee,
                sig=sig))
    jt_starts = {}
    for mark_kind, info, off in unit.marks:
        if mark_kind == "jt_start":
            jt_starts[rn(info)] = base + off
        elif mark_kind == "jt_end":
            frag.data_ranges.append((jt_starts[rn(info)], base + off))
    for site in unit.sites:
        frag.branch_sites.append(BranchSiteAux(
            site=site_base + site.site, kind=site.kind,
            fn=rmap.get(site.fn, site.fn),
            sig=site.sig,
            targets=tuple(labels[rn(t)] for t in site.targets),
            plt_symbol=site.plt_symbol,
            ptargets=tuple(rmap.get(t, t) for t in site.ptargets)))
    frag.setjmp_resume_addrs = [labels[rn(l)] for l in unit.setjmp_resumes]
    frag.direct_calls = [
        (rmap.get(cr, cr), rmap.get(ce, ce), tail)
        for cr, ce, tail in unit.direct_calls]
    frag.takes = tuple(rmap.get(t, t) for t in unit.takes)
    return frag


def _finalize(state: LinkState) -> LinkedProgram:
    """Concatenate every fragment into a new :class:`LinkedProgram`: the
    tail of a full :func:`link_units`."""
    code = bytearray()
    labels: Dict[str, int] = {}
    bary: Dict[int, int] = {}
    aux = AuxInfo()

    for frag in state.frags:
        code += NOP * frag.pad
        code += frag.code
        labels.update(frag.labels)
        bary.update(frag.bary)
        aux.retsites.extend(frag.retsites)
        aux.branch_sites.extend(frag.branch_sites)
        aux.data_ranges.extend(frag.data_ranges)
        aux.setjmp_resumes.extend(frag.setjmp_resume_addrs)
        aux.direct_calls.extend(frag.direct_calls)

    taken = _taken_names(state)
    for frag in state.frags:
        if frag.key[0] >= 0:
            _set_function(aux, frag, labels, frag.fn_name in taken)

    aux.imports = list(state.imports)
    aux.data_ranges.sort()
    data = replace(state.layout, image=build_data_image(
        state.raw_likes, state.layout, labels))
    return _program(state, bytes(code), labels, bary, aux, data)


def _taken_names(state: LinkState) -> set:
    """Functions whose address a unit, an initializer or a module's own
    record takes (renamed)."""
    taken: set = set()
    for index, module in enumerate(state.modules):
        rmap = state.renames[index]
        taken.update(rmap.get(t, t) for t in module.global_takes)
        for data in module.globals.values():
            for _, kind, symbol in data.relocs:
                if kind == "func":
                    taken.add(rmap.get(symbol, symbol))
    for frag in state.frags:
        taken.update(frag.takes)
    return taken


def _set_function(aux: AuxInfo, frag: UnitFrag, labels: Dict[str, int],
                  address_taken: bool) -> None:
    """Record a placed unit's function (and export) in ``aux``."""
    unit = frag.unit
    entry = labels[frag.fn_name]
    aux.functions[frag.fn_name] = FunctionAux(
        name=frag.fn_name, sig=unit.sig, entry=entry,
        address_taken=address_taken, exported=unit.exported,
        module=frag.module_name)
    if unit.exported:
        aux.exports[frag.fn_name] = entry


def _program(state: LinkState, code: bytes, labels: Dict[str, int],
             bary: Dict[int, int], aux: AuxInfo,
             data: DataLayout) -> LinkedProgram:
    """Wrap a linked image as the state's new :class:`LinkedProgram`;
    the full link and the splice share this tail."""
    name = "+".join(m.name for m in state.modules)
    if state.mcfi and len(bary) != len(aux.branch_sites):
        raise ValueError(f"{name}: {len(aux.branch_sites)} sites but "
                         f"{len(bary)} patched Bary slots")
    arch = state.modules[0].arch
    module = McfiModule(name=name, arch=arch, base=state.code_base,
                        code=code, aux=aux, bary_slots=bary, labels=labels,
                        code_ranges=code_ranges(state.code_base, len(code),
                                                aux.data_ranges))
    entry = labels.get(state.entry_symbol)
    if entry is None:
        raise LinkError(f"no entry symbol {state.entry_symbol!r}")
    heap_base = (data.base + data.size + PAGE_SIZE - 1) & ~(PAGE_SIZE - 1)
    got_slots = {sym: data.symbols[label]
                 for sym, label in state.got_names.items()}
    state.program = LinkedProgram(
        arch=arch, mcfi=state.mcfi, module=module, data=data, entry=entry,
        heap_base=heap_base, parts=[m.name for m in state.modules],
        got_slots=got_slots)
    return state.program


def splice_unit(state: LinkState, module_name: str,
                new_unit: UnitArtifact) -> Optional[LinkedProgram]:
    """Re-link after replacing one function's unit, in the previous image.

    The caller has already put ``new_unit`` in its module's
    :attr:`ModuleUnits.units`, which the state shares; the unit it
    replaces is still the one placed in the state's fragment.  The
    replacement must keep the old unit's size, lead alignment, entry
    offset, string contents, site count, export status and import set,
    and its module's lowering-time string references
    (:attr:`ModuleUnits.intern_refs`) must not change —
    :class:`~repro.build.session.BuildSession` rebuilds the module when
    they do.  Then nothing outside the unit moves, and the new program
    is the previous one with the unit's share of each part replaced
    (:func:`_splice_program`).  Returns ``None`` when the replacement
    cannot be spliced and the caller must fall back to a full
    :func:`link_units`.
    """
    module_index = next((i for i, m in enumerate(state.modules)
                         if m.name == module_name), None)
    if module_index is None:
        return None
    frag_index = next((i for i, f in enumerate(state.frags)
                       if f.key == (module_index, new_unit.fn)), None)
    if frag_index is None:
        return None
    old_frag = state.frags[frag_index]
    old_unit = old_frag.unit
    if (new_unit.size != old_unit.size
            or new_unit.lead_align != old_unit.lead_align
            or new_unit.labels.get(new_unit.fn)
            != old_unit.labels.get(old_unit.fn)
            or new_unit.strings != old_unit.strings
            or len(new_unit.sites) != len(old_unit.sites)
            or new_unit.exported != old_unit.exported):
        return None

    rmap = state.renames[module_index]
    if new_unit.fn in rmap:
        return None  # entangled in a static-collision rename: replay fully

    # The import set must not change: a new unresolved reference needs
    # the full link's error path, and added/dropped imports change the
    # PLT (hence bytes) and the merged aux.
    if tuple(new_unit.referenced) != tuple(old_unit.referenced):
        defined: Dict[str, Tuple[int, UnitArtifact]] = {}
        for mi, mod in enumerate(state.modules):
            for unit in mod.units:
                defined[state.renames[mi].get(unit.fn, unit.fn)] = (mi, unit)
        imports = _module_imports(state.modules, state.renames, defined)
        if imports != state.imports:
            return None

    # Internal labels may have moved: update the resolution map before
    # re-patching (generated label names are deterministic per unit
    # namespace, so same-name entries are overwritten; stale entries
    # from removed labels are harmless).
    rn = _renamer(rmap)
    for lname, off in new_unit.labels.items():
        state.resolve[rn(lname)] = old_frag.base + off

    new_frag = _build_frag(
        state, old_frag.key, new_unit, rmap, old_frag.pad, old_frag.base,
        old_frag.site_base)
    state.frags[frag_index] = new_frag
    return _splice_program(state, frag_index, old_frag, new_frag)


def _splice_program(state: LinkState, index: int, old: UnitFrag,
                    new: UnitFrag) -> LinkedProgram:
    """The state's program with fragment ``index`` changed from ``old``
    to ``new`` at the same address.

    Each part of the image changes only in the fragment's share: its
    code slice, labels and Bary slots, its slices of the aux lists, its
    data ranges and its function record.  The data image stays: no
    string, global or function entry moved.  Callers keep earlier
    programs, so this one shares their frozen aux records and data
    layout but never a container.
    """
    prev = state.program.module
    start = old.base - state.code_base
    code = prev.code[:start] + new.code + prev.code[start + len(new.code):]
    labels = dict(prev.labels)
    for name in old.labels.keys() - new.labels.keys():
        del labels[name]
    labels.update(new.labels)
    bary = dict(prev.bary_slots)
    bary.update(new.bary)

    retsites = resumes = calls = 0
    for frag in state.frags[:index]:
        retsites += len(frag.retsites)
        resumes += len(frag.setjmp_resume_addrs)
        calls += len(frag.direct_calls)
    ranges = prev.aux.data_ranges
    lo = bisect_left(ranges, (old.base,))
    hi = bisect_left(ranges, (old.base + len(old.code),))
    aux = AuxInfo(
        functions=dict(prev.aux.functions),
        retsites=_replaced(prev.aux.retsites, retsites, old.retsites,
                           new.retsites),
        branch_sites=_replaced(prev.aux.branch_sites, new.site_base,
                               old.branch_sites, new.branch_sites),
        setjmp_resumes=_replaced(prev.aux.setjmp_resumes, resumes,
                                 old.setjmp_resume_addrs,
                                 new.setjmp_resume_addrs),
        direct_calls=_replaced(prev.aux.direct_calls, calls,
                               old.direct_calls, new.direct_calls),
        data_ranges=ranges[:lo] + sorted(new.data_ranges) + ranges[hi:],
        exports=dict(prev.aux.exports), imports=list(prev.aux.imports))

    if new.takes != old.takes:
        taken = _taken_names(state)
        aux.functions = {
            name: func if func.address_taken == (name in taken)
            else replace(func, address_taken=name in taken)
            for name, func in aux.functions.items()}
    _set_function(aux, new, labels,
                  aux.functions[new.fn_name].address_taken)
    return _program(state, code, labels, bary, aux, state.program.data)


def _replaced(items: list, start: int, old: list, new: list) -> list:
    """A copy of ``items`` with ``old``, found at ``start``, replaced
    by ``new``."""
    return items[:start] + new + items[start + len(old):]
