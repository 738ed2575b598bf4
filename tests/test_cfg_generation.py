"""Tests for type-matching CFG generation (paper Sec. 6)."""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import repro

from repro.cfg import callgraph
from repro.cfg.callgraph import TypeMatcher
from repro.cfg.eqclass import partition
from repro.cfg.generator import CfgBase, generate_cfg
from repro.build import build_program
from repro.tinyc.types import signatures_match
from tests.test_golden_digests import fixed12_program

TAIL_CYCLE = Path(__file__).parent / "corpus_regressions" / \
    "tail_cycle_exit.c"


def cfg_of(source, arch="x64"):
    program = build_program({"t": source}, arch=arch, mcfi=True).program
    return program, generate_cfg(program.module.aux)


def sites_of(program, kind):
    return [s for s in program.module.aux.branch_sites if s.kind == kind]


def union_find_numbering(items, groups):
    """Reference: union-find with path compression, every class
    numbered in order of its smallest member, members listed in the
    order they were first seen."""
    parent = {}

    def find(item):
        parent.setdefault(item, item)
        root = item
        while parent[root] != root:
            root = parent[root]
        while parent[item] != root:
            parent[item], item = root, parent[item]
        return root

    for item in items:
        find(item)
    for group in groups:
        group = list(group)
        for item in group:
            parent[find(item)] = find(group[0])
    buckets = {}
    for item in parent:
        buckets.setdefault(find(item), []).append(item)
    return {item: number
            for number, members in enumerate(sorted(buckets.values(),
                                                    key=min))
            for item in members}


class TestPartition:
    def test_disjoint_groups_stay_apart(self):
        numbering = partition((), [[1, 2, 3], [4, 5]])
        assert numbering[1] == numbering[3]
        assert numbering[4] != numbering[1]
        assert len(set(numbering.values())) == 2

    def test_overlapping_sets_merge(self):
        numbering = partition((), [[1, 2], [3, 4], [2, 3]])  # [2, 3] bridges
        assert len(set(numbering.values())) == 1

    def test_class_numbers_deterministic(self):
        numbering = partition((), [[30, 10], [20, 40]])
        assert numbering[10] == numbering[30]
        assert numbering[10] != numbering[20]
        # class containing the smallest member gets the smallest number
        assert numbering[10] == 0

    def test_items_register_first_and_stay_singletons(self):
        numbering = partition([9, 5, 7], [[7, 3]])
        # classes by smallest member, members in registration order
        assert list(numbering.items()) == [(7, 0), (3, 0), (5, 1),
                                           (9, 2)]

    @pytest.mark.parametrize("seed", range(20))
    def test_same_order_as_union_find(self, seed):
        """Equal as ordered dicts, not only as partitions: an update
        transaction's store batches follow ``tary_ecns``' order."""
        rng = random.Random(seed)
        universe = rng.sample(range(4, 4000, 4), 60)
        items = rng.sample(universe, 30)
        groups = [set(rng.sample(universe, rng.choice((0, 1, 2, 3, 8))))
                  for _ in range(25)]
        got = partition(items, groups)
        want = union_find_numbering(items, groups)
        assert list(got.items()) == list(want.items())


class TestTypeMatching:
    SOURCE = """
        typedef long (*unary)(long);
        typedef long (*binary)(long, long);
        long inc(long x) { return x + 1; }
        long dec(long x) { return x - 1; }
        long add(long a, long b) { return a + b; }
        long local_only(long x) { return x; }   /* never address-taken */
        unary u = inc;
        binary b = add;
        int main(void) {
            u = dec;
            print_int(u(1) + b(2, 3));
            print_int(local_only(5));
            return 0;
        }
    """

    def test_icall_targets_match_signature(self):
        program, cfg = cfg_of(self.SOURCE)
        aux = program.module.aux
        unary_sites = [s for s in sites_of(program, "icall")
                       if s.sig.render() == "i64(i64)"]
        assert unary_sites
        targets = cfg.branch_targets[unary_sites[0].site]
        entries = {aux.functions[n].entry for n in ("inc", "dec")}
        assert entries <= targets
        assert aux.functions["add"].entry not in targets
        assert aux.functions["local_only"].entry not in targets

    def test_not_address_taken_excluded(self):
        program, cfg = cfg_of(self.SOURCE)
        aux = program.module.aux
        assert not aux.functions["local_only"].address_taken
        all_targets = set()
        for targets in cfg.branch_targets.values():
            all_targets |= targets
        assert aux.functions["local_only"].entry not in all_targets

    def test_variadic_pointer_matches_prefix(self):
        source = """
            typedef int (*vfmt)(int, ...);
            int handler_a(int x) { return x; }
            int handler_b(int x, long y) { return x + (int)y; }
            long handler_c(int x) { return x; }     /* wrong return */
            vfmt f = handler_a;
            int main(void) {
                int keep = handler_b(1, 2) + (int)handler_c(1);
                int (*pb)(int, long) = handler_b;
                long (*pc)(int) = handler_c;
                return f(3) + keep + pb(1, 1) + (int)pc(1);
            }
        """
        program, cfg = cfg_of(source)
        aux = program.module.aux
        vsite = [s for s in sites_of(program, "icall")
                 if s.sig and s.sig.variadic][0]
        targets = cfg.branch_targets[vsite.site]
        assert aux.functions["handler_a"].entry in targets
        assert aux.functions["handler_b"].entry in targets
        assert aux.functions["handler_c"].entry not in targets


class TestReturnEdges:
    def test_returns_target_callers_retsites(self):
        source = """
            long callee(long x) { return x; }
            int main(void) {
                long a = callee(1);
                long b = callee(2);
                print_int(a + b);
                return 0;
            }
        """
        program, cfg = cfg_of(source)
        aux = program.module.aux
        ret_sites = [s for s in sites_of(program, "ret")
                     if s.fn == "callee"]
        assert len(ret_sites) == 1
        targets = cfg.branch_targets[ret_sites[0].site]
        main_retsites = {r.address for r in aux.retsites
                         if r.caller == "main" and r.callee == "callee"}
        assert len(main_retsites) == 2
        assert main_retsites <= targets

    def test_tail_call_chain_edges(self):
        """f calls g; g tail-calls h => h's return targets f's retsite."""
        source = """
            long h(long x) { return x * 2; }
            long g(long x) { return h(x + 1); }   /* tail call on x64 */
            int main(void) {
                print_int(g(5));
                return 0;
            }
        """
        program, cfg = cfg_of(source, arch="x64")
        aux = program.module.aux
        h_ret = [s for s in sites_of(program, "ret") if s.fn == "h"][0]
        main_retsite = [r.address for r in aux.retsites
                        if r.caller == "main" and r.callee == "g"]
        assert main_retsite
        assert set(main_retsite) <= cfg.branch_targets[h_ret.site]
        # and on x64, g has no ret site at all (its return became a jump)
        assert not [s for s in sites_of(program, "ret") if s.fn == "g"]

    def test_x32_has_no_tail_edges(self):
        source = """
            long h(long x) { return x * 2; }
            long g(long x) { return h(x + 1); }
            int main(void) { print_int(g(5)); return 0; }
        """
        program, _ = cfg_of(source, arch="x32")
        assert [s for s in sites_of(program, "ret") if s.fn == "g"]

    def test_tail_closure_of_a_cycle_with_an_exit(self):
        """Tail edges A->B, B->A, B->C: a call to A or B may return from
        any of the three.  Each renaming changes the order the names
        come out of their sets."""
        for k in range(32):
            a, b, c = f"a{k}", f"b{k}", f"c{k}"
            edges = callgraph.tail_edges(
                [(a, b, True), (b, a, True), (b, c, True)], [],
                TypeMatcher([]))
            closure = callgraph.close_tail_edges(edges, edges, {})
            assert closure[a] == closure[b] == {a, b, c}
            assert closure[c] == {c}

    def test_tail_cycle_exit_under_every_hash_seed(self):
        """The tail-cycle program prints 101 whatever order a process
        iterates sets of function names in."""
        script = (
            "import sys\n"
            "from repro.build import build_program\n"
            "from repro.toolchain import run_program\n"
            "source = open(sys.argv[1]).read()\n"
            "program = build_program({'t': source}, arch='x64').program\n"
            "result = run_program(program)\n"
            "sys.stdout.write(result.output.decode('latin-1'))\n"
            "sys.exit(result.exit_code)\n")
        src = str(Path(repro.__file__).resolve().parents[1])
        for seed in range(6):
            env = dict(os.environ, PYTHONHASHSEED=str(seed),
                       PYTHONPATH=src)
            proc = subprocess.run(
                [sys.executable, "-c", script, str(TAIL_CYCLE)],
                env=env, capture_output=True, text=True, timeout=120)
            assert (proc.returncode, proc.stdout) == (0, "101\n"), \
                f"PYTHONHASHSEED={seed}: {proc.stdout!r} {proc.stderr}"

    def test_uncalled_function_return_has_no_targets(self):
        source = """
            long orphan(long x) { return x; }
            long (*keep)(long) = orphan;
            int main(void) { return 0; }
        """
        program, cfg = cfg_of(source)
        # orphan is only callable indirectly; its return targets are the
        # retsites of matching icall sites -- there are none.
        orphan_ret = [s for s in sites_of(program, "ret")
                      if s.fn == "orphan"][0]
        assert cfg.branch_targets[orphan_ret.site] == set()
        # its branch ECN matches no target ECN
        ecn = cfg.bary_ecns[orphan_ret.site]
        assert ecn not in set(cfg.tary_ecns.values())


class TestSpecialControlFlow:
    def test_switch_targets_exact(self):
        source = """
            int f(int x) {
                switch (x) {
                    case 0: return 1;
                    case 1: return 2;
                    case 2: return 3;
                    case 3: return 4;
                    default: return 0;
                }
            }
            int main(void) { return f(2); }
        """
        program, cfg = cfg_of(source)
        switch_site = sites_of(program, "switch")[0]
        assert cfg.branch_targets[switch_site.site] == \
            set(switch_site.targets)
        assert len(switch_site.targets) == 4

    def test_longjmp_targets_every_setjmp(self):
        source = """
            long e1[4];
            long e2[4];
            int main(void) {
                int a = setjmp(e1);
                int b = setjmp(e2);
                if (a == 0 && b == 0) { longjmp(e1, 1); }
                return a + b;
            }
        """
        program, cfg = cfg_of(source)
        aux = program.module.aux
        assert len(aux.setjmp_resumes) == 2
        lj_site = sites_of(program, "longjmp")[0]
        assert cfg.branch_targets[lj_site.site] == set(aux.setjmp_resumes)


class TestEquivalenceClasses:
    def test_overlap_merges_classes(self):
        """Two pointer types sharing one target merge into one class."""
        source = """
            typedef long (*u1)(long);
            long shared(long x) { return x; }
            long only1(long x) { return x + 1; }
            u1 a = shared;
            u1 b = only1;
            int main(void) { return (int)(a(1) + b(2)); }
        """
        program, cfg = cfg_of(source)
        aux = program.module.aux
        ecn_shared = cfg.tary_ecns[aux.functions["shared"].entry]
        ecn_only1 = cfg.tary_ecns[aux.functions["only1"].entry]
        assert ecn_shared == ecn_only1  # same icall class

    def test_distinct_signatures_distinct_classes(self):
        source = """
            long f1(long x) { return x; }
            long f2(long a, long b) { return a + b; }
            long (*p1)(long) = f1;
            long (*p2)(long, long) = f2;
            int main(void) { return (int)(p1(1) + p2(1, 2)); }
        """
        program, cfg = cfg_of(source)
        aux = program.module.aux
        assert cfg.tary_ecns[aux.functions["f1"].entry] != \
            cfg.tary_ecns[aux.functions["f2"].entry]

    def test_stats_consistent(self, demo_program):
        cfg = generate_cfg(demo_program.module.aux)
        stats = cfg.stats()
        assert stats["IBs"] == len(demo_program.module.aux.branch_sites)
        assert stats["IBTs"] == len(cfg.tary_ecns)
        assert stats["EQCs"] == len(set(cfg.tary_ecns.values()))
        assert 0 < stats["EQCs"] <= stats["IBTs"]

    def test_permits_matches_target_sets(self, demo_program):
        cfg = generate_cfg(demo_program.module.aux)
        for site, targets in cfg.branch_targets.items():
            for target in list(targets)[:5]:
                assert cfg.permits(site, target)


class TestCallGraph:
    def test_edges_include_direct_and_indirect(self, demo_program):
        aux = demo_program.module.aux
        return_targets = CfgBase(aux).return_targets
        # main's return sites by callee; None is the indirect call
        sites = {r.callee: r.address for r in aux.retsites
                 if r.caller == "main"}
        assert sites["classify"] in return_targets["classify"]
        # fptr table dispatch: main may call add/sub/mul
        for callee in ("add", "sub", "mul"):
            assert sites[None] in return_targets[callee]


#: pointer signatures of both kinds: fixed ones and a variadic one
MIXED_SIGNATURES_SOURCE = """
    typedef int (*vfmt)(int, ...);
    typedef int (*unary)(int);
    int handler_a(int x) { return x; }
    int handler_b(int x, long y) { return x + (int)y; }
    int handler_c(int x) { return x * 2; }
    vfmt f = handler_a;
    unary u = handler_c;
    int main(void) {
        int (*pb)(int, long) = handler_b;
        return f(3) + u(1) + pb(1, 1);
    }
"""


class TestOneMatcher:
    """A generation builds one matcher, and a fixed pointer signature is
    one dict lookup: only variadic ones call ``signatures_match``."""

    @staticmethod
    def _counted(monkeypatch):
        made, scanned = [], []
        init = TypeMatcher.__init__
        match = callgraph.signatures_match

        def counting_init(self, functions):
            made.append(len(functions))
            init(self, functions)

        def counting_match(pointer_sig, function_sig):
            scanned.append(pointer_sig)
            return match(pointer_sig, function_sig)

        monkeypatch.setattr(TypeMatcher, "__init__", counting_init)
        monkeypatch.setattr(callgraph, "signatures_match", counting_match)
        return made, scanned

    @pytest.mark.parametrize("name", ["gcc", "perlbench", "sjeng"])
    def test_static_generation(self, monkeypatch, name):
        aux = fixed12_program(name).module.aux
        made, scanned = self._counted(monkeypatch)
        generate_cfg(aux)
        assert len(made) == 1
        assert scanned == []

    def test_variadic_signature_scans_once(self, monkeypatch):
        aux = build_program({"t": MIXED_SIGNATURES_SOURCE}).program \
            .module.aux
        made, scanned = self._counted(monkeypatch)
        generate_cfg(aux)
        assert len(made) == 1
        variadic = set(scanned)
        assert variadic and all(sig.variadic for sig in variadic)
        taken = sum(f.address_taken for f in aux.functions.values())
        assert len(scanned) == taken * len(variadic)

    @pytest.mark.parametrize("name", ["gcc", "perlbench", "mixed"])
    def test_matches_follow_the_rule_in_order(self, name):
        if name == "mixed":
            aux = build_program({"t": MIXED_SIGNATURES_SOURCE}).program \
                .module.aux
        else:
            aux = fixed12_program(name).module.aux
        functions = list(aux.functions.values())
        matcher = TypeMatcher(functions)
        sigs = {f.sig for f in functions}
        sigs |= {s.sig for s in aux.branch_sites if s.sig is not None}
        for sig in sigs:
            assert matcher.matches(sig) == tuple(
                f for f in functions
                if f.address_taken and signatures_match(sig, f.sig))
