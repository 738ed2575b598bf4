"""Seeded TinyC generator: determinism, validity, oracle agreement.

The generator's contract: (1) same seed ⇒ byte-identical source,
(2) every emitted program compiles through the full MCFI pipeline with
zero violations, (3) the AST oracle predicts the VM's exact output and
exit code.  Oracle agreement is the keystone — the differential
harness's ground truth is only as good as this equivalence.
"""

import pytest

from repro.build import build_program
from repro.toolchain import run_program
from repro.workloads.generate import GenConfig, generate


QUICK = GenConfig.quick()


def _run_x64(program):
    return run_program(build_program({program.name: program.source})
                       .program, max_steps=3_000_000)


class TestDeterminism:
    def test_same_seed_byte_identical(self):
        assert generate(42).source == generate(42).source
        assert generate(42, QUICK).source == generate(42, QUICK).source

    def test_different_seeds_differ(self):
        sources = {generate(seed).source for seed in range(6)}
        assert len(sources) == 6

    def test_config_changes_output(self):
        assert generate(42).source != generate(42, QUICK).source

    def test_member_name_embeds_seed(self):
        assert generate(1729).name == "gen1729"
        assert "seed=1729" in generate(1729).source


class TestOracleAgreement:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_vm_matches_oracle_quick(self, seed):
        program = generate(seed, QUICK)
        expected = program.evaluate()
        result = _run_x64(program)
        assert result.output == expected.output
        assert result.exit_code == expected.exit_code
        assert not result.violations

    def test_vm_matches_oracle_full_config(self):
        program = generate(11)
        expected = program.evaluate()
        result = _run_x64(program)
        assert result.output == expected.output
        assert result.exit_code == expected.exit_code

    def test_edit_variant_still_agrees(self):
        variant = generate(3, QUICK).edit_variant()
        expected = variant.evaluate()
        result = _run_x64(variant)
        assert result.output == expected.output
        assert result.exit_code == expected.exit_code

    def test_edit_variant_changes_source(self):
        program = generate(3, QUICK)
        assert program.edit_variant().source != program.source


class TestFeatureCoverage:
    """The ISSUE-10 grammar features all appear across a seed range."""

    @pytest.fixture(scope="class")
    def corpus_text(self):
        return "\n".join(generate(seed).source for seed in range(12))

    @pytest.mark.parametrize("marker", [
        "(*tab",          # function-pointer table globals
        ")(",             # indirect call through a table/parameter
        "...",            # variadic declaration
        "setjmp(", "longjmp(",
        "buf + ((",       # page-straddle buffer accesses
        "switch (",
        "do {",
        "char *",         # string globals
        "(unsigned char)",  # narrow casts
        "return ",
    ])
    def test_feature_present(self, corpus_text, marker):
        assert marker in corpus_text

    def test_casted_function_addresses_present(self, corpus_text):
        assert "(long)" in corpus_text  # fn address cast chains

    def test_line_counts_reasonable(self):
        for seed in range(5):
            assert generate(seed, QUICK).line_count() < 400
