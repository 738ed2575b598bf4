"""Sec. 8.3 — the security case studies.

Paper: the GnuPG CVE-2006-6235 analogue — a hijacked function pointer
redirected to execve — "may still be possible under coarse-grained CFI,
but not fine-grained CFI"; MCFI blocks it because the types do not
match.  Return hijacking to a function entry is blocked by both.
"""

from benchmarks.conftest import compute_artifact, write_artifact


def test_security_matrix(benchmark):
    matrix = benchmark.pedantic(compute_artifact, args=("security",),
                                rounds=1, iterations=1)
    write_artifact("security", matrix)

    fptr = matrix["fptr-to-execve"]
    assert fptr["native"] == (True, False)
    assert fptr["binCFI"] == (True, False)   # coarse CFI fails
    assert fptr["MCFI"] == (False, True)     # type matching blocks
    ret = matrix["return-to-entry"]
    assert ret["native"] == (True, False)
    assert ret["MCFI"] == (False, True)


def test_attack_run_speed(benchmark):
    from repro.attacks.hijack import fptr_to_execve
    outcomes = benchmark.pedantic(
        lambda: fptr_to_execve(schemes=("MCFI",)), rounds=1, iterations=1)
    assert outcomes["MCFI"].blocked
