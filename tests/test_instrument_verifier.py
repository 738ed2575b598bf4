"""Tests for the MCFI instrumentation pass and the modular verifier."""

import pytest

from repro.core.instrument import instrument_items, lower_native
from repro.analysis.binverify import verify_module
from repro.errors import VerificationError
from repro.isa.disasm import sweep_ranges
from repro.isa.instructions import Op
from repro.isa.registers import Reg
from repro.build import compile_object


@pytest.fixture(scope="module")
def demo_module(demo_program):
    return demo_program.module


class TestInstrumentation:
    def test_no_bare_rets_after_instrumentation(self, demo_module):
        instrs = sweep_ranges(demo_module.code, demo_module.base,
                              demo_module.code_ranges)
        assert all(d.instr.op != Op.RET for d in instrs)

    def test_native_lowering_keeps_rets(self, demo_program_native):
        module = demo_program_native.module
        instrs = sweep_ranges(module.code, module.base, module.code_ranges)
        assert any(d.instr.op == Op.RET for d in instrs)

    def test_every_indirect_branch_through_rcx(self, demo_module):
        instrs = sweep_ranges(demo_module.code, demo_module.base,
                              demo_module.code_ranges)
        for decoded in instrs:
            if decoded.instr.op in (Op.JMP_R, Op.CALL_R):
                assert decoded.instr.operands[0] == Reg.RCX

    def test_site_count_matches_branches(self, demo_module):
        instrs = sweep_ranges(demo_module.code, demo_module.base,
                              demo_module.code_ranges)
        branches = sum(1 for d in instrs
                       if d.instr.op in (Op.JMP_R, Op.CALL_R))
        assert branches == len(demo_module.aux.branch_sites)

    def test_bary_slots_one_per_site(self, demo_module):
        sites = {s.site for s in demo_module.aux.branch_sites}
        assert set(demo_module.bary_slots) == sites

    def test_site_kinds_present(self, demo_module):
        kinds = {s.kind for s in demo_module.aux.branch_sites}
        # demo has returns, fptr calls, a dense switch, and longjmp
        assert {"ret", "icall", "switch", "longjmp"} <= kinds

    def test_targets_are_aligned(self, demo_module):
        aux = demo_module.aux
        for func in aux.functions.values():
            assert func.entry % 4 == 0
        for retsite in aux.retsites:
            assert retsite.address % 4 == 0
        for resume in aux.setjmp_resumes:
            assert resume % 4 == 0

    def test_write_sandboxing_on_x64(self):
        raw = compile_object(
            "long g; void f(long *p) { *p = 1; g = 2; }", name="w")
        instrumented = instrument_items(raw)
        from repro.isa.assembler import AsmInstr
        items = [i for i in instrumented.items if isinstance(i, AsmInstr)]
        for index, item in enumerate(items):
            if item.op in (Op.STORE8, Op.STORE16, Op.STORE32, Op.STORE64):
                base = item.operands[0]
                if base in (Reg.RSP, Reg.RBP):
                    continue
                previous = items[index - 1]
                assert previous.op == Op.MOVZX32
                assert previous.operands[0] == base

    def test_x32_has_no_write_masks(self):
        raw = compile_object("long g; void f(void) { g = 2; }",
                             name="w", arch="x32")
        instrumented = instrument_items(raw)
        from repro.isa.assembler import AsmInstr
        assert all(not (isinstance(i, AsmInstr) and i.op == Op.MOVZX32
                        and False)
                   for i in instrumented.items)
        # x32 sandboxes by segmentation: stores are unmasked.
        stores_masked = 0
        items = [i for i in instrumented.items if isinstance(i, AsmInstr)]
        for index, item in enumerate(items[1:], start=1):
            if item.op == Op.STORE64 and \
                    items[index - 1].op == Op.MOVZX32:
                stores_masked += 1
        assert stores_masked == 0

    def test_instrumentation_is_per_module(self):
        """Separate compilation: instrumenting a module must not need
        any information from other modules."""
        raw_a = compile_object(
            "int helper(int x); int main(void) { return helper(1); }",
            name="a")
        raw_b = compile_object("int helper(int x) { return x + 1; }",
                               name="b")
        asm_a = instrument_items(raw_a)   # works in isolation
        asm_b = instrument_items(raw_b)
        assert asm_a.sites is not None and asm_b.sites is not None


class TestVerifier:
    def test_accepts_instrumented_module(self, demo_module):
        report = verify_module(demo_module)
        assert report.ok
        assert report.stats["checked_branches"] == \
            len(demo_module.aux.branch_sites)

    def test_rejects_native_module(self, demo_program_native):
        with pytest.raises(VerificationError):
            verify_module(demo_program_native.module)

    def test_rejects_corrupted_code(self, demo_program):
        import copy
        module = copy.deepcopy(demo_program.module)
        code = bytearray(module.code)
        # Find a CMP_RR inside a check sequence and neuter it to NOPs.
        instrs = sweep_ranges(module.code, module.base, module.code_ranges)
        for index, decoded in enumerate(instrs):
            if decoded.instr.op in (Op.JMP_R, Op.CALL_R):
                compare = instrs[index - 2]
                offset = compare.address - module.base
                for k in range(compare.length):
                    code[offset + k] = int(Op.NOP)
                break
        module.code = bytes(code)
        with pytest.raises(VerificationError):
            verify_module(module)

    def test_rejects_undeclared_branch_site(self, demo_program):
        import copy
        module = copy.deepcopy(demo_program.module)
        module.aux.branch_sites = module.aux.branch_sites[:-1]
        with pytest.raises(VerificationError):
            verify_module(module)

    def test_rejects_unaligned_target_claim(self, demo_program):
        import copy
        from repro.module.auxinfo import RetSiteAux
        module = copy.deepcopy(demo_program.module)
        module.aux.retsites.append(
            RetSiteAux(address=module.base + 1, caller="x", callee=None))
        with pytest.raises(VerificationError):
            verify_module(module)

    def test_complete_disassembly(self, demo_module):
        instrs = sweep_ranges(demo_module.code, demo_module.base,
                              demo_module.code_ranges)
        assert instrs
        # jump-table data ranges are excluded from the sweep
        data_addresses = set()
        for start, end in demo_module.aux.data_ranges:
            data_addresses.update(range(start, end))
        assert all(d.address not in data_addresses for d in instrs)

    def test_rejects_junk_bytes(self, demo_program):
        import copy
        module = copy.deepcopy(demo_program.module)
        instrs = sweep_ranges(module.code, module.base, module.code_ranges)
        code = bytearray(module.code)
        code[instrs[2].address - module.base] = 0xFE  # invalid opcode
        module.code = bytes(code)
        with pytest.raises(VerificationError):
            verify_module(module)


class TestVerifierNegativePaths:
    """A module from a buggy or malicious rewriter must not verify."""

    def test_rejects_clobber_between_mask_and_store(self):
        """A register write between the movzx32 mask and the store
        re-opens the sandbox: the masked value may be replaced by an
        attacker-controlled one, so the verifier must reject."""
        from repro.isa.assembler import AsmInstr, assemble
        from repro.core.instrument import InstrumentedAsm
        from repro.module.module import build_module

        raw = compile_object("void f(long *p) { *p = 1; }", name="clob")
        instrumented = instrument_items(raw)
        items = list(instrumented.items)
        stores = (Op.STORE8, Op.STORE16, Op.STORE32, Op.STORE64)
        patched = False
        for index, item in enumerate(items[:-1]):
            nxt = items[index + 1]
            if (isinstance(item, AsmInstr) and item.op == Op.MOVZX32
                    and isinstance(nxt, AsmInstr) and nxt.op in stores
                    and nxt.operands[0] == item.operands[0]
                    # frame-relative stores are exempt from masking
                    and nxt.operands[0] not in (Reg.RSP, Reg.RBP)):
                items.insert(index + 1,
                             AsmInstr(Op.ADD_RI, (item.operands[0], 0)))
                patched = True
                break
        assert patched, "no mask/store pair found to tamper with"

        assembled = assemble(items)
        module = build_module(
            raw, InstrumentedAsm(items=items, sites=instrumented.sites,
                                 setjmp_resumes=instrumented.setjmp_resumes),
            assembled)
        with pytest.raises(VerificationError, match="unsandboxed store"):
            verify_module(module)

    def test_rejects_misaligned_switch_target_in_aux(self, demo_program):
        """Auxiliary info claiming a misaligned switch-case target must
        fail check 4 — a misaligned target could land mid-instruction."""
        import copy
        import dataclasses
        module = copy.deepcopy(demo_program.module)
        for index, site in enumerate(module.aux.branch_sites):
            if site.kind == "switch" and site.targets:
                bad = (site.targets[0] + 1,) + site.targets[1:]
                module.aux.branch_sites[index] = \
                    dataclasses.replace(site, targets=bad)
                break
        else:
            pytest.fail("demo module has no switch site")
        with pytest.raises(VerificationError, match="aligned"):
            verify_module(module)
