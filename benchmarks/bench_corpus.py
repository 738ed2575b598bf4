"""Differential-corpus coverage and minimizer effectiveness.

Writes ``benchmarks/results/corpus_differential.txt``: programs and
matrix cells run, divergence counts by category (zero unexplained is
the gate), and minimizer shrink ratios.  Throughput is the
benchmark suite's ``corpus-smoke`` workload
(``python benchmarks/suite/run.py one --workload corpus-smoke``),
which repeats and rescales its timings.

The default run uses the first 8 pinned ``gen-smoke`` seeds;
``REPRO_FULL=1`` runs the whole set.
"""

import pytest

from benchmarks.conftest import FULL, write_result
from repro.workloads.corpus import CorpusConfig, DifferentialHarness, \
    run_set
from repro.workloads.generate import GenConfig, generate
from repro.workloads.minimize import minimize


class TestCorpusDifferential:
    @pytest.fixture(scope="class")
    def campaign(self):
        return run_set("gen-smoke", limit=None if FULL else 8)

    @pytest.fixture(scope="class")
    def shrinks(self):
        """Minimizer shrink ratios on synthetic output-preserving
        predicates (the same machinery campaign triage uses)."""
        out = []
        for seed in (1001, 1004, 1007):
            program = generate(seed, GenConfig.quick())

            def predicate(candidate):
                try:
                    return len(candidate.evaluate().output) > 0
                except Exception:  # noqa: BLE001
                    return False

            result = minimize(program, predicate, rounds=2)
            out.append((seed, result))
        return out

    def test_zero_unexplained_divergences(self, campaign):
        open_findings = [f for f in campaign.findings()
                         if f.classification == "open"]
        assert open_findings == []

    def test_throughput_and_write_artifact(self, campaign, shrinks):
        members = len(campaign.reports)
        cells = sum(r.cells for r in campaign.reports)
        by_cat = campaign.by_category()
        lines = [
            "differential corpus harness (gen-smoke"
            + ("" if FULL else f", first {members}") + ")",
            f"programs        : {members}",
            f"matrix cells    : {cells}",
            "",
            "divergences by category:",
        ]
        if by_cat:
            for category, count in sorted(by_cat.items()):
                lines.append(f"  {category:16s} {count}")
        else:
            lines.append("  (none)")
        lines += ["", "minimizer shrink ratios "
                      "(output-preserving predicate):"]
        for seed, result in shrinks:
            lines.append(
                f"  gen{seed}: {result.original_lines} -> "
                f"{result.minimized_lines} lines "
                f"({100 * result.shrink_ratio:.0f}%, "
                f"{result.attempts} attempts)")
        write_result("corpus_differential", "\n".join(lines))
        assert cells == 6 * members

    def test_minimizer_hits_25_line_bar(self, shrinks):
        for _, result in shrinks:
            assert result.minimized_lines <= 25

    def test_one_member_benchmark(self, benchmark):
        harness = DifferentialHarness(CorpusConfig())
        benchmark.pedantic(
            lambda: harness.run_member("gen1000", quick=True),
            rounds=1, iterations=1)
