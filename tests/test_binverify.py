"""Tests for the binary CFI verifier (repro.analysis.binverify).

The verifier is the trust boundary that removes the rewriter (and the
cache) from the TCB: these tests check that it accepts everything the
real toolchain emits, rejects targeted unsafe mutations with the right
diagnostic codes, and holds as the gate at the unit-publish and dlopen
layers.
"""

from __future__ import annotations

import dataclasses
import random

import pytest

from repro.analysis.binverify import (
    VerifyReport,
    analyze_image,
    analyze_module,
    image_of_module,
    verify_unit,
)
from repro.analysis.binverify.absint import (
    CHECKED_SHIFT,
    EFFECT,
    make_problem,
    summarize,
)
from repro.analysis.binverify.bincfg import EdgeBlock, build_cfg
from repro.analysis.dataflow.solver import DataflowProblem, solve
from repro.errors import (
    EncodingError,
    UnitVerificationError,
    VerificationError,
)
from repro.faults.miscompile import (
    MISCOMPILE_INJECTORS,
    MutationContext,
    evasion_campaign,
)
from repro.isa.disasm import DecodedInstr, sweep_ranges
from repro.isa.instructions import CODECS, Op, OperandKind
from repro.isa.registers import NUM_REGS, Reg
from repro.build import build_program
from repro.tools.verify import QUICK_SEEDS, QUICK_WORKLOADS
from repro.workloads.spec import BENCHMARKS


def _mutate(module, **overrides):
    return dataclasses.replace(module, **overrides)


def _decoded(module):
    return sweep_ranges(module.code, module.base, module.code_ranges)


def _codes(report):
    return {diag.code for diag in report.diagnostics}


def _nop_out(code, module, decoded_instr):
    off = decoded_instr.address - module.base
    code[off:off + decoded_instr.length] = \
        bytes([Op.NOP]) * decoded_instr.length


class TestAccept:
    def test_demo_module_verifies(self, demo_program):
        report = analyze_module(demo_program.module)
        assert report.ok
        assert isinstance(report, VerifyReport)
        assert report.check_spans
        assert report.stats["checked_branches"] == \
            report.stats["proved_branches"]
        assert all(verdict == "proved"
                   for verdict in report.verdicts.values())

    def test_spans_lie_inside_module(self, demo_program):
        module = demo_program.module
        report = analyze_module(module)
        for start, end in report.check_spans:
            assert module.base <= start < end <= module.limit

    def test_image_analysis_builds_no_instruction(self, monkeypatch):
        """The sweep hands the verifier decoded fields: proving a whole
        fixed12 image constructs no ``Instruction``; printing one record
        does."""
        from repro.experiments import compiled
        from repro.isa.instructions import Instruction
        built = []
        original = Instruction.__post_init__

        def counting(instr):
            built.append(instr.op)
            original(instr)

        monkeypatch.setattr(Instruction, "__post_init__", counting)
        module = compiled("gcc", "x64", True).module
        report = analyze_image(image_of_module(module))
        assert report.ok and report.stats["instructions"] > 19_000
        assert built == []
        assert str(_decoded(module)[0].instr) and len(built) == 1

    def test_report_roundtrip(self, demo_program):
        report = analyze_module(demo_program.module)
        clone = VerifyReport.from_dict(report.to_dict())
        assert clone.module == report.module
        assert clone.ok == report.ok
        assert clone.stats == report.stats
        assert clone.check_spans == report.check_spans
        assert clone.verdicts == report.verdicts


class TestReject:
    """Each targeted mutation must produce the right diagnostic."""

    def _ctx(self, demo_program):
        return MutationContext.of(demo_program.module)

    def test_spliced_check_instruction(self, demo_program):
        module = demo_program.module
        ctx = self._ctx(demo_program)
        start, end = ctx.check_spans[0]
        code = bytearray(module.code)
        victim = next(d for d in ctx.decoded
                      if start <= d.address < end
                      and d.instr.op == Op.CMPW_RR)
        _nop_out(code, module, victim)
        report = analyze_module(_mutate(module, code=bytes(code)))
        assert not report.ok
        assert "MCFI008" in _codes(report)

    def test_stripped_mask_before_branch(self, demo_program):
        module = demo_program.module
        ctx = self._ctx(demo_program)
        start, _ = ctx.check_spans[0]
        code = bytearray(module.code)
        mask = next(d for d in ctx.decoded
                    if d.end == start and d.instr.op == Op.MOVZX32)
        _nop_out(code, module, mask)
        report = analyze_module(_mutate(module, code=bytes(code)))
        assert not report.ok
        assert "MCFI005" in _codes(report)
        assert any("not dominated" in diag.message
                   for diag in report.errors)

    def test_stripped_store_mask(self):
        program = build_program({"t": r"""
            int cell = 5;
            int poke(int *p, int v) { *p = v; return *p; }
            int main(void) { return poke(&cell, 41); }
        """}, mcfi=True).program
        module = program.module
        decoded = _decoded(module)
        masks = [d for d in decoded if d.instr.op == Op.MOVZX32
                 and d.instr.operands[0] not in
                 (Reg.RCX, Reg.RSP, Reg.RBP)]
        assert masks, "expected a store-base mask in poke()"
        code = bytearray(module.code)
        for mask in masks:
            _nop_out(code, module, mask)
        report = analyze_module(_mutate(module, code=bytes(code)))
        assert not report.ok
        assert "MCFI006" in _codes(report)
        assert any("unsandboxed store" in diag.message
                   for diag in report.errors)

    def test_skewed_direct_call(self, demo_program):
        module = demo_program.module
        ctx = self._ctx(demo_program)
        victim = next(d for d in ctx.decoded
                      if d.instr.op == Op.CALL
                      and d.target + 1
                      not in ctx.label_addrs)
        code = bytearray(module.code)
        off = victim.address - module.base + 1
        rel = int.from_bytes(code[off:off + 4], "little", signed=True)
        code[off:off + 4] = (rel + 1).to_bytes(4, "little", signed=True)
        report = analyze_module(_mutate(module, code=bytes(code)))
        assert not report.ok
        assert "MCFI007" in _codes(report)

    def test_undecodable_byte(self, demo_program):
        module = demo_program.module
        code = bytearray(module.code)
        nop = next(d for d in _decoded(module)
                   if d.instr.op == Op.NOP)
        code[nop.address - module.base] = 0xFF
        report = analyze_module(_mutate(module, code=bytes(code)))
        assert not report.ok
        assert "MCFI007" in _codes(report)
        assert any("disassemble" in diag.message
                   for diag in report.errors)

    def test_dropped_transaction(self, demo_program):
        module = demo_program.module
        ctx = self._ctx(demo_program)
        start, end = ctx.check_spans[-1]
        code = bytearray(module.code)
        for d in ctx.decoded:
            if start <= d.address < end:
                _nop_out(code, module, d)
        report = analyze_module(_mutate(module, code=bytes(code)))
        assert not report.ok
        assert "MCFI008" in _codes(report)
        assert any("intact check transactions" in diag.message
                   for diag in report.errors)

    def test_native_module_rejected(self, demo_program_native):
        report = analyze_module(demo_program_native.module)
        assert not report.ok


class TestUnitGrain:
    @pytest.fixture(scope="class")
    def units(self):
        from repro.build.graph import compile_module_units
        from repro.mir.lowering import lower_unit
        from repro.toolchain import frontend
        checked = frontend(r"""
            typedef int (*op)(int);
            int twice(int x) { return 2 * x; }
            int thrice(int x) { return 3 * x; }
            int apply(op f, int x) { return f(x); }
            int main(void) {
                return apply(twice, 5) + apply(thrice, 4);
            }
        """, name="t")
        module_units, _ = compile_module_units(
            lower_unit(checked), checked, "x64")
        return module_units.units

    def test_units_verify(self, units):
        for artifact in units:
            report = verify_unit(artifact, arch="x64", module="t")
            assert report.ok
            assert report.grain == "unit"

    def test_tampered_unit_rejected(self, units):
        victim = next(u for u in units if u.fn == "apply")
        bad = dataclasses.replace(
            victim, code=b"\xff" + victim.code[1:])
        with pytest.raises(UnitVerificationError) as info:
            verify_unit(bad, arch="x64", module="t")
        assert info.value.unit == "apply"
        assert info.value.report is not None
        assert not info.value.report.ok


class TestBuildGate:
    SOURCE = r"""
        typedef int (*op)(int);
        int inc(int x) { return x + 1; }
        int dec(int x) { return x - 1; }
        int dbl(int x) { return x + x; }
        int apply(op f, int x) { return f(x); }
        int main(void) {
            return apply(inc, 3) + apply(dec, 9) + apply(dbl, 10);
        }
    """

    def test_unverifiable_unit_is_never_published(self, tmp_path,
                                                  monkeypatch):
        """A unit with corrupted bytes and an intact fingerprint aborts
        an MCFI build before it reaches the cache; native units skip
        the verifier."""
        import repro.build.graph as graph
        from repro.infra.cache import open_cache
        real_compile = graph.compile_unit
        corrupted = {}

        def corrupting_compile(func, *args):
            artifact = real_compile(func, *args)
            if func.name == "apply":
                artifact.code = b"\xff" + artifact.code[1:]
                mcfi = args[-1]
                corrupted[mcfi] = artifact.fingerprint
            return artifact

        monkeypatch.setattr(graph, "compile_unit", corrupting_compile)
        cache = open_cache(tmp_path / "cache")
        with pytest.raises(UnitVerificationError) as info:
            build_program({"prog": self.SOURCE}, cache=cache)
        assert info.value.unit == "apply"
        assert cache.get_unit(corrupted[True]) is None

        native = build_program({"prog": self.SOURCE}, mcfi=False,
                               cache=cache)
        assert native.program is not None
        assert cache.get_unit(corrupted[False]) is not None


class TestDlopenGate:
    MAIN = {"main": r"""
        int libfn(int x);
        int main(void) {
            long h = dlopen("plugin");
            return h != 0;
        }
    """}
    LIB = "int libfn(int x) { return x * 3 + 1; }"

    def _linker(self, verify):
        from repro.linker.dynamic_linker import DynamicLinker
        from repro.runtime.runtime import Runtime
        from repro.build import compile_object
        program = build_program(self.MAIN, mcfi=True,
                                allow_unresolved=["libfn"]).program
        runtime = Runtime(program)
        linker = DynamicLinker(runtime, verify=verify)
        linker.register("plugin",
                        compile_object(self.LIB, name="plugin"))
        return linker

    def test_verify_is_the_default(self):
        from repro.linker.dynamic_linker import DynamicLinker
        from repro.runtime.runtime import Runtime
        program = build_program(self.MAIN, mcfi=True,
                                allow_unresolved=["libfn"]).program
        assert DynamicLinker(Runtime(program)).verify

    def test_tampered_library_rejected(self, monkeypatch):
        import repro.linker.dynamic_linker as dl
        real = dl.build_module

        def corrupting(raw, asm, assembled, site_base=0):
            module = real(raw, asm, assembled, site_base=site_base)
            code = bytearray(module.code)
            for d in _decoded(module):
                if d.instr.op == Op.MOVZX32:
                    _nop_out(code, module, d)
            return _mutate(module, code=bytes(code))

        linker = self._linker(verify=True)
        monkeypatch.setattr(dl, "build_module", corrupting)
        with pytest.raises(VerificationError):
            linker.dlopen("plugin")

        # without the gate the same corrupt library loads fine
        linker = self._linker(verify=False)
        monkeypatch.setattr(dl, "build_module", corrupting)
        assert linker.dlopen("plugin") != 0


class TestEvasionCampaign:
    def test_every_injector_has_a_cell(self):
        report = evasion_campaign(workloads=["lbm"], seeds=(0,))
        assert {c.injector for c in report.cells} == \
            set(MISCOMPILE_INJECTORS)
        assert report.ok, report.render()

    def test_mutations_are_deterministic(self, demo_program):
        ctx = MutationContext.of(demo_program.module)
        for name, fn in MISCOMPILE_INJECTORS.items():
            first = fn(ctx, random.Random(f"demo:{name}:0"))
            again = fn(ctx, random.Random(f"demo:{name}:0"))
            assert first == again

    def test_render_mentions_gate(self):
        report = evasion_campaign(workloads=["lbm"],
                                  injectors=["check_splice"],
                                  seeds=(0,))
        text = report.render()
        assert "undetected unsafe mutations: 0" in text


# -- the tuple lattice: the reference for the int-encoded one ---------------
#
# One fact per register, TOP < MASKED < CHECKED, as a 16-tuple; the join
# is the pointwise minimum and one instruction at a time moves a state.

TOP, MASKED, CHECKED = 0, 1, 2
REF_TOP = (TOP,) * NUM_REGS

_KILLS_ALL = frozenset({Op.CALL, Op.CALL_R, Op.SYSCALL})


def ref_join(a, b):
    return a if a == b else tuple(map(min, a, b))


def ref_step(state, record):
    """One instruction: the registers ``SPECS`` says it writes drop to
    TOP, except that a ``movzx32`` masks its register."""
    op, operands, spec = record.codec.op, record.operands, record.spec
    if op == Op.NOP:
        return state
    if op in _KILLS_ALL:
        return REF_TOP
    written = {operands[index] for index in spec.writes}
    if spec.writes_sp:
        written.add(Reg.RSP)
    after = MASKED if op == Op.MOVZX32 else TOP
    return tuple(after if reg in written
                 else MASKED if fact == CHECKED else fact
                 for reg, fact in enumerate(state))


def ref_problem():
    def transfer(_label, block, state):
        if isinstance(block, EdgeBlock):
            reg = block.guard.reg
            if state[reg] >= MASKED:
                return state[:reg] + (CHECKED,) + state[reg + 1:]
            return state
        for record in block.instrs:
            state = ref_step(state, record)
        return state

    return DataflowProblem(direction="forward", boundary=REF_TOP,
                           join=ref_join, transfer=transfer)


def encode(state):
    bits = 0
    for reg, fact in enumerate(state):
        if fact >= MASKED:
            bits |= 1 << reg
        if fact == CHECKED:
            bits |= 1 << (CHECKED_SHIFT + reg)
    return bits


def decode(bits):
    return tuple((bits >> reg & 1) + (bits >> (CHECKED_SHIFT + reg) & 1)
                 for reg in range(NUM_REGS))


def assert_fixpoints_agree(module):
    image = image_of_module(module)
    try:
        decoded = sweep_ranges(image.code, image.base, image.code_ranges)
    except EncodingError:
        return False
    cfg = build_cfg(image, decoded)
    fast = solve(cfg, make_problem())
    reference = solve(cfg, ref_problem())
    assert fast.iterations == reference.iterations
    assert fast.inputs.keys() == reference.inputs.keys()
    for label, state in reference.inputs.items():
        assert decode(fast.inputs[label]) == state, (module.name, label)
    return True


def effect_on(op, reg, start):
    """The state :data:`EFFECT` gives after ``op`` alone, with ``reg``
    as its register operand."""
    effect = EFFECT[op]
    if len(effect) > 2:
        effect = effect[reg]
    keep, gen = effect
    return decode((encode(start) & keep) | gen)


class TestEffectTable:
    """PUSH, POP and RET write RSP; PUSH, FCMP_RR and JMP_R only read
    their register operand.  A rule that reads writes off the operand
    signature gets all five wrong."""

    @pytest.mark.parametrize("name", ["PUSH", "POP", "RET"])
    def test_stack_opcodes_clear_rsp(self, name):
        after = effect_on(Op[name], Reg.RAX, (MASKED,) * NUM_REGS)
        assert after[Reg.RSP] == TOP

    @pytest.mark.parametrize("name", ["PUSH", "FCMP_RR", "JMP_R"])
    def test_operand_readers_keep_its_fact(self, name):
        after = effect_on(Op[name], Reg.RAX, (MASKED,) * NUM_REGS)
        assert after[Reg.RAX] == MASKED


class TestIntLattice:
    """The one-int lattice, its effect table and the block summaries
    give exactly the tuple lattice's fixpoint."""

    @pytest.mark.parametrize("arch", ["x64", "x32"])
    def test_fixed12_fixpoints(self, arch):
        from repro.experiments import compiled
        for name in BENCHMARKS:
            assert assert_fixpoints_agree(compiled(name, arch, True).module)

    @pytest.mark.parametrize("name", QUICK_WORKLOADS)
    def test_quick_evasion_mutant_fixpoints(self, name):
        from repro.experiments import compiled
        module = compiled(name, "x64", True).module
        ctx = MutationContext.of(module)
        solved = 0
        for injector, fn in MISCOMPILE_INJECTORS.items():
            for seed in QUICK_SEEDS:
                mutation = fn(ctx, random.Random(f"{name}:{injector}:{seed}"))
                if mutation is not None:
                    solved += assert_fixpoints_agree(
                        dataclasses.replace(module, code=mutation[0]))
        assert solved

    def test_block_summary_folds_reference_step(self):
        """Random runs over every opcode, random registers and random
        start states: the composed summary is the folded step."""
        rng = random.Random(26)
        codecs = list(CODECS.values())
        for _ in range(3000):
            records = []
            for address in range(rng.randrange(1, 10)):
                codec = rng.choice(codecs)
                operands = tuple(
                    rng.randrange(NUM_REGS) if kind is OperandKind.REG
                    else rng.randrange(-99, 99)
                    for kind in codec.spec.operands)
                records.append(DecodedInstr(address, codec, operands))
            start = tuple(rng.choice((TOP, MASKED, CHECKED))
                          for _ in range(NUM_REGS))
            keep, gen = summarize(records)
            expected = start
            for record in records:
                expected = ref_step(expected, record)
            assert decode((encode(start) & keep) | gen) == expected, \
                [(r.codec.op.name, r.operands) for r in records]

    def test_every_opcode_alone(self):
        """Each opcode on its own, under each register and the all-CHECKED
        and all-MASKED states."""
        for codec in CODECS.values():
            for reg in range(NUM_REGS):
                operands = tuple(reg if kind is OperandKind.REG else 0
                                 for kind in codec.spec.operands)
                record = DecodedInstr(0, codec, operands)
                keep, gen = summarize([record])
                for start in ((CHECKED,) * NUM_REGS, (MASKED,) * NUM_REGS,
                              REF_TOP):
                    assert decode((encode(start) & keep) | gen) == \
                        ref_step(start, record), codec.op.name
