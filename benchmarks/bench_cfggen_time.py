"""Sec. 7 — CFG generation speed.

Paper: "it takes about 150 milliseconds for gcc, whose code size is
about 2.7MB" — the point being that type-matching CFG generation is
fast enough to run inside the dynamic linker.  Our gcc is ~1/15 the
size; the generator must stay well under the paper's bound.
"""

from benchmarks.conftest import compute_artifact, write_artifact
from repro.cfg.generator import generate_cfg
from repro.experiments import compiled


def test_cfggen_table(benchmark):
    rows = benchmark.pedantic(compute_artifact, args=("cfggen",),
                              rounds=1, iterations=1)
    write_artifact("cfggen", rows, pinned=False)
    timings = {name: seconds for name, (seconds, _) in rows.items()}
    # fast enough for online (dlopen-time) use
    assert max(timings.values()) < 1.0


def test_cfggen_gcc_speed(benchmark):
    aux = compiled("gcc", "x64", True).module.aux
    cfg = benchmark(lambda: generate_cfg(aux))
    assert cfg.n_classes > 10
