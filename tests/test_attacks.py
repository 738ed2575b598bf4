"""Tests for the attack suite: gadgets, hijacks, ROP, table tampering."""

import pytest

from repro.attacks.gadgets import (
    GADGET_ENDS,
    analyze_image,
    find_gadgets,
    gadget_at,
    unique_gadgets,
)
from repro.attacks.hijack import fptr_to_execve, return_to_secret
from repro.attacks.rop import compare_schemes
from repro.isa.encoding import encode
from repro.isa.instructions import Instruction, Op


def encode_all(instrs):
    return b"".join(encode(instr) for instr in instrs)


class TestGadgetScanner:
    def test_gadgets_end_in_indirect_branch(self, bench_program):
        module = bench_program["native"].module
        gadgets = find_gadgets(module.code[:4096], base=module.base,
                               depth=4)
        assert gadgets
        for gadget in gadgets[:50]:
            last = gadget.text[-1]
            assert last.startswith(("ret", "jmp %", "call %")), last

    def test_direct_branch_breaks_gadget(self):
        code = encode_all([Instruction(Op.JMP, (0,)),
                           Instruction(Op.RET, ())])
        assert gadget_at(code, 0) is None       # starts with direct jmp
        assert gadget_at(code, 5) == ("ret",)   # the ret alone

    def test_mid_instruction_gadget_found(self):
        # MOV_RI with an immediate whose bytes decode as RET.
        code = encode_all([Instruction(Op.MOV_RI, (0, int(Op.RET)))])
        gadgets = find_gadgets(code)
        addresses = {g.address for g in gadgets}
        assert 2 in addresses  # inside the mov's immediate field

    def test_depth_limit(self):
        instrs = [Instruction(Op.NOP, ())] * 10 + [Instruction(Op.RET, ())]
        code = encode_all(instrs)
        assert gadget_at(code, 0, depth=5) is None
        assert gadget_at(code, 0, depth=11) is not None

    def test_unique_deduplicates_by_content(self):
        code = encode_all([Instruction(Op.RET, ()),
                           Instruction(Op.RET, ())])
        gadgets = find_gadgets(code)
        assert len(gadgets) == 2
        assert len(unique_gadgets(gadgets)) == 1

    def test_report_elimination_rate(self):
        code = encode_all([Instruction(Op.NOP, ()),
                           Instruction(Op.RET, ())])
        unrestricted = analyze_image(code, 0)
        assert unrestricted.elimination_rate == 0.0
        restricted = analyze_image(code, 0, permitted_targets=set())
        assert restricted.elimination_rate == 1.0


class TestGadgetElimination:
    def test_mcfi_eliminates_most_gadgets(self, bench_program):
        from repro.cfg.generator import generate_cfg
        hardened = bench_program["mcfi"]
        cfg = generate_cfg(hardened.module.aux)
        report = analyze_image(hardened.module.code, hardened.module.base,
                               permitted_targets=set(cfg.tary_ecns),
                               depth=4)
        assert report.unique_total > 0
        assert report.elimination_rate > 0.9  # paper: ~96%


class TestHijacks:
    @pytest.fixture(scope="class")
    def fptr_outcomes(self):
        return fptr_to_execve()

    def test_native_is_hijacked(self, fptr_outcomes):
        assert fptr_outcomes["native"].hijacked
        assert not fptr_outcomes["native"].blocked

    def test_coarse_cfi_is_hijacked(self, fptr_outcomes):
        """The paper's point: execve is a function entry, so binCFI
        permits the jump; MCFI's type matching does not."""
        assert fptr_outcomes["binCFI"].hijacked
        assert not fptr_outcomes["binCFI"].blocked

    def test_mcfi_blocks_type_mismatch(self, fptr_outcomes):
        assert fptr_outcomes["MCFI"].blocked
        assert not fptr_outcomes["MCFI"].hijacked
        assert "mismatch" in fptr_outcomes["MCFI"].detail

    def test_return_hijack(self):
        outcomes = return_to_secret()
        assert outcomes["native"].hijacked
        assert outcomes["MCFI"].blocked
        assert outcomes["binCFI"].blocked  # entries are not retsites


class TestRop:
    def test_pivot_blocked_under_mcfi_only(self):
        native, mcfi = compare_schemes(seed=3)
        assert native.scheme == "native"
        assert native.pivoted and not native.blocked
        assert mcfi.blocked and not mcfi.pivoted


class TestTableProtection:
    def test_sandboxed_code_cannot_reach_tables(self, demo_program):
        """No store instruction in an instrumented module can write the
        table region: the verifier enforces masked addresses and the
        table region is not part of the sandboxed address space at all.
        Corollary: running the whole demo program never changes a
        single installed ID."""
        from repro.runtime.runtime import Runtime
        runtime = Runtime(demo_program)
        before = bytes(runtime.tables.tary[:4096])
        result = runtime.run()
        assert result.ok
        after = bytes(runtime.tables.tary[:4096])
        assert before == after
