"""JIT code-installation scaling (extension of the Fig. 6 experiment).

The paper's Fig. 6 *simulates* a JIT by refreshing ID versions at the
measured V8 rate; this benchmark drives the real thing built in
:mod:`repro.runtime.jit`: a guest program installs freshly compiled
functions at increasing rates, each installation running the complete
compile -> instrument -> verify -> seal -> regenerate-CFG -> update-
transaction pipeline.  The claim under test is the paper's scaling
argument: check transactions stay cheap no matter how often the policy
changes, because they only retry inside an update window.
"""

import pytest

from benchmarks.conftest import write_result
from repro.runtime.jit import JitEngine
from repro.runtime.runtime import Runtime
from repro.build import build_program


def guest_source(n_installs: int, calls_between: int) -> str:
    sources = "\n".join(
        f'    sources[{i}] = "long h{i}(long x) '
        f'{{ return x * 2 + {i}; }}"; names[{i}] = "h{i}";'
        for i in range(n_installs))
    return f"""
int main(void) {{
    char *sources[{n_installs}];
    char *names[{n_installs}];
    long (*f)(long);
    long total = 0;
    long i;
    long j;
{sources}
    for (i = 0; i < {n_installs}; i++) {{
        f = (long (*)(long))jit_compile(sources[i], names[i]);
        if (f == 0) {{ return 1; }}
        for (j = 0; j < {calls_between}; j++) {{
            total += f(j);
        }}
    }}
    print_int(total);
    return 0;
}}
"""


@pytest.mark.parametrize("n_installs,calls", [(1, 400), (4, 100),
                                              (8, 50)])
def test_install_rate_scaling(benchmark, n_installs, calls):
    """Same total indirect-call work, increasing install rates."""
    source = guest_source(n_installs, calls)
    program = build_program({"main": source}, mcfi=True).program

    def run():
        runtime = Runtime(program)
        JitEngine(runtime)
        result = runtime.run()
        assert result.ok, result.violation or result.fault
        return runtime

    runtime = benchmark.pedantic(run, rounds=1, iterations=1)
    # dlopen caches by name: "hot" reinstalls return the cached handle,
    # so force distinct installs only counts the first; stats reflect it
    benchmark.extra_info["installs"] = runtime.jit_engine.stats.installs
    benchmark.extra_info["version"] = runtime.id_tables.version


def test_jit_throughput_table(benchmark):
    """Installations per second through the full verified pipeline."""
    import time
    program = build_program({"main": "int main(void){ return 0; }"},
                            mcfi=True).program
    lines = [f"{'installs':>9s} {'total s':>8s} {'ms/install':>11s} "
             f"{'verified':>9s}"]

    def sweep():
        runtime = Runtime(program)
        engine = JitEngine(runtime)
        start = time.perf_counter()
        for index in range(12):
            engine.install_function(
                f"long gen{index}(long x) {{ return x + {index}; }}",
                f"gen{index}")
        elapsed = time.perf_counter() - start
        return engine, elapsed

    engine, elapsed = benchmark.pedantic(sweep, rounds=1, iterations=1)
    lines.append(f"{engine.stats.installs:9d} {elapsed:8.3f} "
                 f"{1000 * elapsed / engine.stats.installs:11.2f} "
                 f"{'yes':>9s}")
    write_result("jit_throughput", "\n".join(lines))
    assert engine.stats.installs == 12
    assert engine.stats.failures == 0
