"""Cross-cutting property-based tests over assembler, CFG generation,
and the verifier (mutation testing of check sequences)."""

import copy

import pytest
from hypothesis import given, settings, strategies as st

from repro.cfg.generator import generate_cfg
from repro.analysis.binverify import verify_module
from repro.errors import VerificationError
from repro.isa.assembler import (
    Align,
    AlignEnd,
    AsmInstr,
    Label,
    LabelRef,
    assemble,
)
from repro.isa.disasm import sweep_ranges
from repro.isa.instructions import Op
from repro.isa.registers import Reg


class TestAssemblerProperties:
    @given(st.lists(st.sampled_from([
        AsmInstr(Op.NOP, ()),
        AsmInstr(Op.MOV_RI, (Reg.RAX, 1)),
        AsmInstr(Op.ADD_RR, (Reg.RAX, Reg.RBX)),
        AsmInstr(Op.PUSH, (Reg.RAX,)),
        Align(4),
        Align(8),
    ]), min_size=1, max_size=30),
        st.integers(min_value=0, max_value=0x10000).map(lambda b: b * 4))
    @settings(max_examples=50)
    def test_layout_is_deterministic_and_decodable(self, items, base):
        first = assemble(list(items), base=base)
        second = assemble(list(items), base=base)
        assert first.code == second.code
        # the image decodes completely (no truncated instructions)
        sweep_ranges(first.code, base, [(base, base + len(first.code))])

    @given(st.integers(min_value=0, max_value=200),
           st.sampled_from([2, 4, 8, 16]))
    @settings(max_examples=50)
    def test_align_invariant(self, n_pre_nops, alignment):
        items = [AsmInstr(Op.MOV_RI, (Reg.RAX, 7))] * (n_pre_nops % 7) \
            + [Align(alignment), Label("t"), AsmInstr(Op.HLT, ())]
        out = assemble(items, base=0x1000)
        assert out.labels["t"] % alignment == 0

    @given(st.integers(min_value=0, max_value=6))
    @settings(max_examples=30)
    def test_align_end_invariant(self, n_pre):
        items = [AsmInstr(Op.NOP, ())] * 0 + \
            [AsmInstr(Op.PUSH, (Reg.RAX,))] * n_pre + \
            [AlignEnd(4), AsmInstr(Op.CALL, (LabelRef("f"),)),
             Label("after"), Label("f"), AsmInstr(Op.HLT, ())]
        out = assemble(items, base=0x2000)
        assert out.labels["after"] % 4 == 0


class TestCfgProperties:
    def test_invariants_on_all_benchmarks(self, bench_program):
        """Structural invariants every generated CFG must satisfy."""
        aux = bench_program["mcfi"].module.aux
        cfg = generate_cfg(aux)
        target_ecns = set(cfg.tary_ecns.values())
        for site in aux.branch_sites:
            targets = cfg.branch_targets[site.site]
            ecn = cfg.bary_ecns[site.site]
            # every resolved target has a Tary entry of the same class
            for target in targets:
                assert cfg.tary_ecns[target] == ecn
            # empty-target branches get an ECN matching no target
            if not targets:
                assert ecn not in target_ecns
        # ECNs are dense from 0
        assert target_ecns == set(range(len(target_ecns)))

    def test_permits_is_the_ecn_overapproximation(self, bench_program):
        """``permits`` equals ECN equality, which *over-approximates*
        the resolved target sets — exactly the precision the classic
        CFI/MCFI encoding trades for O(1) checks (paper Sec. 2):
        membership implies permission, and permission implies same
        equivalence class."""
        aux = bench_program["mcfi"].module.aux
        cfg = generate_cfg(aux)
        import random
        rng = random.Random(1)
        all_targets = list(cfg.tary_ecns)
        for site in list(cfg.branch_targets)[:30]:
            targets = cfg.branch_targets[site]
            for target in targets:
                assert cfg.permits(site, target)  # soundness of install
            for target in rng.sample(all_targets,
                                     min(10, len(all_targets))):
                assert cfg.permits(site, target) == (
                    cfg.tary_ecns[target] == cfg.bary_ecns[site])

    def test_generation_is_deterministic(self, bench_program):
        aux = bench_program["mcfi"].module.aux
        first = generate_cfg(aux)
        second = generate_cfg(aux)
        assert first.tary_ecns == second.tary_ecns
        assert first.bary_ecns == second.bary_ecns


class TestVerifierMutation:
    """Mutation testing: damaging ANY instruction of a check sequence
    must be caught by the verifier — the property that removes the
    rewriter from the trusted computing base."""

    def _check_sequences(self, module):
        instrs = sweep_ranges(module.code, module.base,
                              module.code_ranges)
        sequences = []
        for index, decoded in enumerate(instrs):
            if decoded.instr.op in (Op.JMP_R, Op.CALL_R):
                cursor = index
                while instrs[cursor - 1].instr.op == Op.NOP:
                    cursor -= 1
                sequences.append(instrs[cursor - 4:cursor + 1])
        return sequences

    def test_every_check_instruction_is_load_bearing(self, demo_program):
        module = demo_program.module
        sequences = self._check_sequences(module)
        assert sequences
        mutated_count = 0
        for sequence in sequences[:8]:
            for decoded in sequence[:-1]:  # the 4 check instructions
                broken = copy.deepcopy(module)
                code = bytearray(broken.code)
                offset = decoded.address - module.base
                for k in range(decoded.length):
                    code[offset + k] = int(Op.NOP)
                broken.code = bytes(code)
                with pytest.raises(VerificationError):
                    verify_module(broken)
                mutated_count += 1
        assert mutated_count >= 16

    def test_retargeting_branch_register_is_caught(self, demo_program):
        """Swapping the checked register (rcx) for another must fail."""
        from repro.isa.encoding import encode
        from repro.isa.instructions import Instruction
        module = copy.deepcopy(demo_program.module)
        instrs = sweep_ranges(module.code, module.base,
                              module.code_ranges)
        code = bytearray(module.code)
        for decoded in instrs:
            if decoded.instr.op == Op.JMP_R:
                patched = encode(Instruction(Op.JMP_R, (int(Reg.RBX),)))
                offset = decoded.address - module.base
                code[offset:offset + len(patched)] = patched
                break
        module.code = bytes(code)
        with pytest.raises(VerificationError):
            verify_module(module)

    def test_unmasking_a_store_is_caught(self):
        """Removing a write-sandbox mask must fail verification."""
        from repro.build import build_program
        program = build_program({"t": """
            long g;
            void setg(long *p, long v) { *p = v; }
            int main(void) { setg(&g, 5); return (int)g; }
        """}, mcfi=True).program
        module = copy.deepcopy(program.module)
        instrs = sweep_ranges(module.code, module.base,
                              module.code_ranges)
        code = bytearray(module.code)
        mutated = False
        for index, decoded in enumerate(instrs):
            if decoded.instr.op == Op.MOVZX32 and index + 1 < len(instrs) \
                    and instrs[index + 1].instr.op in (
                        Op.STORE8, Op.STORE16, Op.STORE32, Op.STORE64) \
                    and instrs[index + 1].instr.operands[0] not in (
                        Reg.RSP, Reg.RBP):
                offset = decoded.address - module.base
                for k in range(decoded.length):
                    code[offset + k] = int(Op.NOP)
                mutated = True
                break
        assert mutated, "no maskable store found"
        module.code = bytes(code)
        with pytest.raises(VerificationError):
            verify_module(module)
