"""The CFG generator against its oracles, static and across dlopen.

* Reference: :func:`tests.cfg_oracle.reference_cfg` derives every
  site's target set by brute force and numbers the sets with one
  :func:`partition`.  The CFG must equal it (ordered dicts, target
  sets) on fixed12 (x64 and x32), on the gen-smoke programs and, after
  each of the first 100 seed-1 dlopen-churn events, in the linker.
* Merged generation: the dynamic linker extends the host's generation
  by the resident libraries' fragments.  At every generation its
  ``Cfg`` must equal :func:`generate_cfg` over the merged module,
  ``tary_ecns`` and ``bary_ecns`` as ordered dicts (update batches
  follow that order).
* A cross-module fixture reaches the deltas the churn sequence never
  does, in seeded dlopen/dlclose/quarantine sequences with injected
  faults at ``dlopen.cfg`` and ``dlopen.update``.
"""

from __future__ import annotations

import functools
import random
from contextlib import contextmanager
from unittest import mock

import pytest

from repro.build import build_program, compile_object
from repro.cfg.generator import generate_cfg
from repro.errors import LinkError
from repro.faults.plane import FaultPlane
from repro.linker.dynamic_linker import DynamicLinker
from repro.runtime.runtime import Runtime
from repro.workloads.generate import GenConfig, generate
from repro.workloads.spec import BENCHMARKS, benchmark_set
from tests import cfg_oracle
from tests.test_cfg_golden import churn_events
from tests.test_golden_digests import fixed12_program


@contextmanager
def checked_generations():
    """Hold every dynamic-linker generation run inside the block to the
    merged generation; yields the list of checked generations."""
    generate = DynamicLinker._generate_cfg
    checked = []

    def checked_generate(linker):
        plt_resolution, cfg = generate(linker)
        host = linker.runtime.program.module.aux
        libraries = cfg_oracle.linker_libraries(linker)
        cfg_oracle.assert_same_cfg(
            cfg, cfg_oracle.merged_cfg(host, libraries),
            f"generation {len(checked)}")
        merged = cfg_oracle.merged_program(host, libraries)
        assert plt_resolution == cfg_oracle.resolve_plt(merged)
        checked.append(len(libraries))
        return plt_resolution, cfg

    with mock.patch.object(DynamicLinker, "_generate_cfg",
                           checked_generate):
        yield checked


# -- the reference CFG -----------------------------------------------------


@pytest.mark.parametrize("arch", ["x64", "x32"])
def test_reference_on_fixed12(arch):
    for name in BENCHMARKS:
        aux = fixed12_program(name, arch=arch).module.aux
        cfg_oracle.assert_same_cfg(generate_cfg(aux),
                                   cfg_oracle.reference_cfg(aux),
                                   f"{name} {arch}")


@pytest.mark.parametrize("devirtualize", [False, True])
def test_reference_on_gen_smoke(devirtualize):
    for seed in benchmark_set("gen-smoke").seeds:
        source = generate(seed, GenConfig.quick()).source
        aux = build_program({f"gen{seed}": source},
                            devirtualize=devirtualize).program.module.aux
        cfg_oracle.assert_same_cfg(generate_cfg(aux),
                                   cfg_oracle.reference_cfg(aux),
                                   f"gen{seed}")


def test_reference_on_churn():
    for event, (runtime, linker) in enumerate(churn_events(100)):
        cfg_oracle.assert_same_cfg(
            runtime.cfg, cfg_oracle.reference_cfg_for_linker(linker),
            f"event {event}")


# -- the linker's generation equals the merged one --------------------------


def test_churn_generations_equal_merged_generation():
    """The first 300 seed-1 churn events, through the host reload at
    event 256: 596 generations."""
    with checked_generations() as checked:
        for _ in churn_events(300):
            pass
    assert len(checked) == 596


# -- a cross-module fixture -------------------------------------------------

#: The host imports ``plugin_hook`` and ``plugin_scale`` through its PLT
#: and takes their addresses, so a devirtualized build hints two
#: indirect calls with functions only a library defines; the
#: ``i32(i32)`` one falls back to a set no other site unions.
#: ``dispatch`` and ``host_fwd`` tail-call through pointers and
#: ``via_plugin`` tail-calls an import (x64).
HOST = r"""
typedef long (*unary)(long);
typedef long (*binary)(long, long);
typedef int (*ifn)(int);
typedef int (*vfmt)(int, long, ...);
int plugin_hook(int x);
long plugin_scale(long x);
long hjb[4];
unary table[2];
binary bt;
ifn itab[2];
vfmt vf;
long host_sq(long x) { return x * x; }
long host_h(long x) { return x + 1; }
long host_secret(long x) { return x - 1; }
long host_fwd(long x) { return bt(x, 1); }
int host_v(int x) { return x + 2; }
int host_w(int x) { return x * 5; }
int host_vw(int x, long y) { return x + (int)y; }
long dispatch(unary f, long x) { return f(x); }
long via_plugin(long x) { return plugin_scale(x); }
int host_jump(int x) {
    int r = setjmp(hjb);
    if (r == 0) { longjmp(hjb, x); }
    return r;
}
int main(void) {
    unary p = plugin_scale;
    ifn q = plugin_hook;
    long total;
    table[0] = host_sq;
    table[1] = host_fwd;
    itab[0] = host_v;
    itab[1] = host_w;
    vf = host_vw;
    total = dispatch(table[0], 3) + host_secret(4) + p(2) + via_plugin(1);
    total += vf(1, 2) + q(3);
    total += plugin_hook(5);
    total += host_jump(1);
    print_int((int)total);
    return 0;
}
"""

LIBRARIES = {
    # tail-calls the host, and dispatch's tail site reaches it:
    # host -> library -> host; host_fwd's tail site reaches a_two
    "tail": r"""
        long host_h(long x);
        long a_f(long x) { return host_h(x * 2); }
        long a_g(long x) { return x + 5; }
        long a_two(long x, long y) { return x * y; }
    """,
    # takes the address of a host function the host never takes
    "take": r"""
        long host_secret(long x);
        long b_take(long x) {
            long (*p)(long) = host_secret;
            return p(x) + 1;
        }
    """,
    # resolves the host's PLT symbols and defines the functions the
    # devirtualized host's hints name; the host tail-calls the import,
    # and the import tail-calls the host
    "plt": r"""
        long host_h(long x);
        int plugin_hook(int x) { return x * 3; }
        long plugin_scale(long x) { return host_h(x * 7); }
    """,
    "jump": r"""
        long djb[4];
        int d_jump(int x) {
            int r = setjmp(djb);
            if (r == 0) { longjmp(djb, x + 1); }
            return r;
        }
    """,
    # matches the host's variadic pointer and calls through its own
    "variadic": r"""
        typedef int (*vfn)(int, ...);
        int e_v(int x) { return x; }
        int e_w(int x, long y) { return x + (int)y; }
        int e_call(vfn f) { return f(1); }
    """,
}


@functools.lru_cache(maxsize=None)
def fixture_host(devirtualize: bool):
    return build_program({"host": HOST}, devirtualize=devirtualize,
                         allow_unresolved=["plugin_hook", "plugin_scale"],
                         ).program


def fixture_linker(devirtualize: bool, plane: FaultPlane):
    runtime = Runtime(fixture_host(devirtualize))
    linker = DynamicLinker(runtime, verify=True, fault_plane=plane)
    for name, source in LIBRARIES.items():
        linker.register(name, compile_object(source, name=name))
    return runtime, linker


def host_deltas(runtime, linker) -> set:
    """Which of the fixture's deltas the current CFG shows."""
    aux = runtime.program.module.aux
    cfg = runtime.cfg
    functions = aux.functions

    def sites(kind, fn=None, sig=None):
        return [site.site for site in aux.branch_sites if site.kind == kind
                and fn in (None, site.fn)
                and sig in (None, site.sig and site.sig.render())]

    def calls(callee=None, sig=None):
        return {retsite.address for retsite in aux.retsites
                if retsite.callee == callee
                and sig in (None, retsite.sig and retsite.sig.render())}

    reached = set()
    for callee in ("dispatch", "via_plugin"):
        if calls(callee) & cfg.branch_targets[sites("ret", "host_h")[0]]:
            reached.add(f"host-library-host return via {callee}")
    if functions["host_secret"].entry in \
            cfg.branch_targets[sites("icall", sig="i64(i64)")[0]]:
        reached.add("host function taken by a library")
    if cfg.branch_targets[sites("plt")[0]]:
        reached.add("PLT resolved")
    if len(cfg.branch_targets[sites("longjmp")[0]]) > \
            len(aux.setjmp_resumes):
        reached.add("library setjmp")
    if len(cfg.branch_targets[sites("icall", sig="i32(i32,i64,...)")[0]]) \
            > 1:
        reached.add("variadic match")
    for library in linker.loaded.values():
        if library.quarantined:
            reached.add("quarantined")
            continue
        two = [site.site for site in library.module.aux.branch_sites
               if site.kind == "ret" and site.fn == "a_two"]
        if two and calls(sig="i64(i64)") & cfg.branch_targets[two[0]]:
            reached.add("host match whose closure grew")
    return reached


@pytest.mark.parametrize("devirtualize", [False, True])
@pytest.mark.parametrize("seed", range(4))
def test_cross_module_sequence(seed, devirtualize):
    rng = random.Random(seed)
    plane = FaultPlane(seed)
    plane.arm("dlopen.cfg", count=1_000, probability=0.1)
    plane.arm("dlopen.update", count=1_000, probability=0.02)
    runtime, linker = fixture_linker(devirtualize, plane)
    host = runtime.program.module.aux
    reached = set()
    names = sorted(LIBRARIES)
    # A quarantine publishes no generation, so the runtime's CFG still
    # holds the library until the next republish commits.
    stale = False
    with checked_generations() as checked:
        for event in range(60):
            loaded = {library.name: handle
                      for handle, library in linker.loaded.items()}
            name = rng.choice(names)
            if name not in loaded:
                stale &= linker.dlopen(name) == 0
            elif rng.random() < 0.15:
                stale |= linker.quarantine(loaded[name])
            else:
                stale &= linker.dlclose(loaded[name]) != 0
            reached |= host_deltas(runtime, linker)
            if stale:
                continue
            where = f"seed {seed} event {event}"
            cfg_oracle.assert_same_cfg(
                runtime.cfg, cfg_oracle.merged_cfg(
                    host, cfg_oracle.linker_libraries(linker)), where)
            cfg_oracle.assert_same_cfg(
                runtime.cfg, cfg_oracle.reference_cfg_for_linker(linker),
                where)
    # every sequence rolls loads back at both fault points
    assert checked
    assert plane.fired("dlopen.cfg") and plane.fired("dlopen.update")
    assert reached == {"host-library-host return via dispatch",
                       "host-library-host return via via_plugin",
                       "host match whose closure grew",
                       "host function taken by a library", "PLT resolved",
                       "library setjmp", "variadic match", "quarantined"}


def test_plt_resolves_then_unresolves():
    runtime, linker = fixture_linker(False, FaultPlane())
    got = runtime.program.got_slots
    hook = got["plugin_hook"]
    handle = linker.dlopen("plt")
    entry = linker.dlsym(handle, "plugin_hook")
    assert int.from_bytes(runtime.memory.host_read(hook, 8), "little") \
        == entry
    assert linker.dlclose(handle) == 0
    assert runtime.memory.host_read(hook, 8) == bytes(8)
    assert runtime.cfg.tary_ecns == generate_cfg(
        runtime.program.module.aux).tary_ecns


def test_quarantined_library_stays_out_of_later_generations():
    """After ``quarantine``, an unrelated dlopen republishes no ID for
    the retired code, resets the GOT slot the library resolved, and
    resolves no import against its exports."""
    runtime, linker = fixture_linker(False, FaultPlane())
    linker.register("needs_tail", compile_object(r"""
        long a_f(long x);
        long n_use(long x) { return a_f(x) + 1; }
    """, name="needs_tail"))
    hook = runtime.program.got_slots["plugin_hook"]
    handles = [linker.dlopen("tail"), linker.dlopen("plt")]
    assert runtime.memory.host_read(hook, 8) != bytes(8)
    for handle in handles:
        assert linker.quarantine(handle)
    with checked_generations() as checked:
        assert linker.dlopen("jump")
    assert checked == [1]
    tables = runtime.id_tables
    for handle in handles:
        module = linker.loaded[handle].module
        assert bytes(runtime.tables.tary[module.base:module.limit]) == \
            bytes(module.limit - module.base)
        assert not any(module.base <= address < module.limit
                       for address in tables.tary_ecns)
        assert module.bary_slots
        for site in module.bary_slots:
            assert tables.branch_id(site) == 0
            assert site not in tables.bary_ecns
    assert runtime.memory.host_read(hook, 8) == bytes(8)
    with pytest.raises(LinkError, match="a_f"):
        linker.dlopen("needs_tail")


def test_cross_library_taken_and_tail_calls():
    """A library takes the address of another library's non-exported
    function and tail-calls one of its exports; the first library
    closes under it and loads again after it."""
    runtime, linker = fixture_linker(False, FaultPlane())
    linker.register("hidden", compile_object(r"""
        static long a_hidden(long x) { return x + 1; }
        long a_pub(long x) { return a_hidden(x) * 2; }
        long a_tail(long x) { return a_hidden(x); }
    """, name="hidden"))
    linker.register("user", compile_object(r"""
        long a_hidden(long x);
        long a_tail(long x);
        long b_use(long x) { long (*p)(long) = a_hidden; return p(x); }
        long b_tail(long x) { return a_tail(x + 1); }
    """, name="user"))
    with checked_generations() as checked:
        first = linker.dlopen("hidden")
        assert first and linker.dlopen("user")
        assert linker.dlclose(first) == 0
        assert linker.dlopen("hidden")
        cfg_oracle.assert_same_cfg(
            runtime.cfg, cfg_oracle.reference_cfg_for_linker(linker))
    assert checked == [1, 2, 1, 2]
    hidden = [library for library in linker.loaded.values()
              if library.name == "hidden"][0]
    entry = hidden.module.aux.functions["a_hidden"].entry
    assert not hidden.module.aux.functions["a_hidden"].address_taken
    assert entry in runtime.cfg.tary_ecns
