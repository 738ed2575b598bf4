"""Delta-debugging minimizer: shrinks hard, preserves the failure.

The predicate here is synthetic (cheap) — real campaign predicates
re-run the differential harness and are exercised by the CLI; the
shrinking machinery is identical either way.
"""

import pytest

from repro.build import build_program
from repro.toolchain import run_program
from repro.workloads.generate import GenConfig, generate
from repro.workloads.minimize import MinimizeResult, minimize


QUICK = GenConfig.quick()


def _oracle_runs(program):
    """The program still evaluates cleanly under the oracle."""
    try:
        program.evaluate()
        return True
    except Exception:  # noqa: BLE001
        return False


class TestMinimize:
    @pytest.fixture(scope="class")
    def shrunk(self):
        program = generate(1004, QUICK)

        def predicate(candidate):
            # "failure": the program still prints anything at all
            return _oracle_runs(candidate) and \
                len(candidate.evaluate().output) > 0

        return program, minimize(program, predicate)

    def test_shrinks_below_25_lines(self, shrunk):
        program, result = shrunk
        assert result.original_lines == program.line_count()
        assert result.minimized_lines <= 25
        assert result.shrink_ratio < 0.25

    def test_result_still_satisfies_predicate(self, shrunk):
        _, result = shrunk
        assert len(result.program.evaluate().output) > 0

    def test_result_still_compiles_and_agrees(self, shrunk):
        _, result = shrunk
        expected = result.program.evaluate()
        run = run_program(build_program(
            {result.program.name: result.program.source}).program,
            max_steps=3_000_000)
        assert run.output == expected.output
        assert run.exit_code == expected.exit_code

    def test_counts_attempts(self, shrunk):
        _, result = shrunk
        assert result.attempts >= result.accepted > 0

    def test_original_program_untouched(self, shrunk):
        program, result = shrunk
        assert program.source == generate(1004, QUICK).source
        assert result.program is not program

    def test_category_specific_shrink(self):
        # preserve a *structural* property: a fn-ptr table call site
        program = generate(1001, QUICK)
        marker = "tab"
        if marker not in program.source:  # pragma: no cover
            pytest.skip("seed has no table")

        def predicate(candidate):
            return _oracle_runs(candidate) and \
                marker in candidate.source

        result = minimize(program, predicate, rounds=2)
        assert marker in result.program.source
        assert result.minimized_lines < program.line_count()

    def test_non_failing_program_rejected(self):
        program = generate(1002, QUICK)
        with pytest.raises(ValueError, match="predicate"):
            minimize(program, lambda c: False)

    def test_shrink_ratio_shape(self):
        result = MinimizeResult(program=None, original_lines=100,
                                minimized_lines=10, attempts=5,
                                accepted=3)
        assert result.shrink_ratio == pytest.approx(0.1)
