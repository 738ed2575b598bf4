"""TinyC source motifs for the synthetic SPEC workloads.

The paper's Tables 1-3 are distributions over source-level features:
C1-violation patterns (UC/DC/MF/SU/NF/K1/K2), indirect branches, and
indirect-branch targets.  Each generator below emits a self-contained
TinyC fragment that contributes an *exact, analyzer-verified* number of
instances of one pattern, plus driver functions (``<prefix>_run``) so
the emitted code actually executes in the benchmark — nothing here is
dead filler.

The per-benchmark builders in :mod:`repro.workloads.spec` compose these
with a handwritten compute kernel to match the paper's per-benchmark
counts (scaled where the paper's numbers are in the thousands; see
EXPERIMENTS.md for the scaling table).
"""

from __future__ import annotations

from typing import List


def gen_dispatch(prefix: str, n_funcs: int, n_sigs: int = 3,
                 calls_per_run: int = 4) -> str:
    """``n_funcs`` small address-taken functions spread over ``n_sigs``
    distinct signatures, dispatched through per-signature tables.

    Contributes: ``n_funcs`` returns (IBs), ``n_sigs`` indirect calls
    (IBs), ``n_funcs`` AT entries (IBTs), and — because the signatures
    differ — ``n_sigs`` separate icall equivalence classes.
    """
    sigs = [
        ("long", ["long"], "x + {k}"),
        ("long", ["long", "long"], "x * y + {k}"),
        ("long", ["long", "long", "long"], "x + y * z - {k}"),
        ("int", ["int"], "x * 2 + {k}"),
        ("int", ["int", "int"], "(x ^ y) + {k}"),
        ("long", ["long", "int"], "x - y + {k}"),
    ][:max(1, min(n_sigs, 6))]
    out: List[str] = []
    tables: List[str] = []
    params = "xyzw"
    by_sig: List[List[str]] = [[] for _ in sigs]
    for index in range(n_funcs):
        sig_index = index % len(sigs)
        ret, ptypes, body = sigs[sig_index]
        name = f"{prefix}_op{index}"
        by_sig[sig_index].append(name)
        arglist = ", ".join(f"{t} {params[i]}"
                            for i, t in enumerate(ptypes))
        expr = body.format(k=index + 1)
        # Guard against referencing params the signature lacks.
        for missing in params[len(ptypes):]:
            expr = expr.replace(missing, "1")
        out.append(f"{ret} {name}({arglist}) {{ return {expr}; }}")
    for sig_index, (ret, ptypes, _) in enumerate(sigs):
        names = by_sig[sig_index]
        if not names:
            continue
        ptr = f"{ret} (*{prefix}_tab{sig_index}[{len(names)}])" \
              f"({', '.join(ptypes)})"
        tables.append(f"{ptr} = {{{', '.join(names)}}};")
    out.extend(tables)

    calls = []
    for sig_index, (ret, ptypes, _) in enumerate(sigs):
        names = by_sig[sig_index]
        if not names:
            continue
        args = ", ".join(["(%s)(seed + %d)" % (t, j)
                          for j, t in enumerate(ptypes)])
        calls.append(
            f"    for (i = 0; i < {len(names)}; i++) {{\n"
            f"        acc += (long){prefix}_tab{sig_index}"
            f"[i % {len(names)}]({args});\n"
            f"    }}")
    body = "\n".join(calls * max(1, calls_per_run // len(sigs) or 1))
    out.append(
        f"long {prefix}_run(long seed) {{\n"
        f"    long acc = 0;\n    int i;\n{body}\n"
        f"    acc += {prefix}_tails(seed);\n    return acc;\n}}")

    # Tail-call wrappers over the unary-signature table: ``return f(x)``
    # compiles to a jump under x64 (LLVM's tail-call optimization),
    # which merges return equivalence classes — the reason Table 3
    # shows fewer EQCs on x86-64 than x86-32.
    unary = by_sig[0]
    n_wrappers = max(2, len(unary) // 2)
    for w in range(n_wrappers):
        callee = unary[w % len(unary)]
        out.append(f"long {prefix}_tail{w}(long x) "
                   f"{{ return {callee}(x + {w}); }}")
    out.append(
        f"long {prefix}_tailchain(long x) {{\n"
        f"    return {prefix}_tab0[x % {len(unary)}](x);   /* indirect "
        f"tail call */\n}}")
    tail_calls = "\n".join(
        f"    acc += {prefix}_tail{w}(seed + {w});"
        for w in range(n_wrappers))
    out.append(
        f"long {prefix}_tails(long seed) {{\n    long acc = 0;\n"
        f"{tail_calls}\n    acc += {prefix}_tailchain(seed);\n"
        f"    return acc;\n}}")
    return "\n".join(out) + "\n"


def gen_switches(prefix: str, n_switches: int, n_cases: int = 6) -> str:
    """``n_switches`` dense-switch functions (jump-table indirect jumps)."""
    out: List[str] = []
    for index in range(n_switches):
        cases = "\n".join(
            f"        case {c}: return {index + 1} * {c + 2};"
            for c in range(n_cases))
        out.append(
            f"int {prefix}_sw{index}(int v) {{\n"
            f"    switch (v) {{\n{cases}\n"
            f"        default: return -1;\n    }}\n}}")
    loops = "\n".join(
        f"    for (i = 0; i < {n_cases + 2}; i++) "
        f"{{ acc += {prefix}_sw{index}(i); }}"
        for index in range(n_switches))
    out.append(
        f"long {prefix}_swrun(void) {{\n"
        f"    long acc = 0;\n    int i;\n{loops}\n    return acc;\n}}")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# C1-violation motifs.  Each site is one analyzer-classified cast.
# ---------------------------------------------------------------------------


def gen_uc(prefix: str, n: int) -> str:
    """``n`` Upcast (UC) sites: concrete -> abstract physical supertype."""
    out = [
        f"typedef struct {prefix}_abase {{",
        f"    void (*vop)(void);",
        f"    long rc;",
        f"}} {prefix}_abase;",
        f"typedef struct {prefix}_aconc {{",
        f"    void (*vop)(void);",
        f"    long rc;",
        f"    long extra;",
        f"}} {prefix}_aconc;",
        f"void {prefix}_vnop(void) {{ }}",
        f"long {prefix}_touch_base({prefix}_abase *b) {{ return b->rc; }}",
    ]
    lines = []
    for index in range(n):
        lines.append(f"    c.rc = {index};")
        lines.append(f"    acc += {prefix}_touch_base"
                     f"(({prefix}_abase *)&c);   /* UC */")
    out.append(
        f"long {prefix}_uc_run(void) {{\n"
        f"    {prefix}_aconc c;\n    long acc = 0;\n"
        f"    c.vop = {prefix}_vnop;\n    c.extra = 7;\n"
        + "\n".join(lines) + "\n    return acc;\n}}".replace("}}", "}"))
    return "\n".join(out) + "\n"


def gen_dc(prefix: str, n: int) -> str:
    """``n`` safe Downcast (DC) sites: tagged abstract -> concrete."""
    out = [
        f"typedef struct {prefix}_tbase {{",
        f"    int tag;",
        f"    void (*top)(void);",
        f"}} {prefix}_tbase;",
        f"typedef struct {prefix}_tconc {{",
        f"    int tag;",
        f"    void (*top)(void);",
        f"    long payload;",
        f"}} {prefix}_tconc;",
        f"void {prefix}_tnop(void) {{ }}",
    ]
    lines = []
    for index in range(n):
        lines.append(
            f"    if (b->tag == 1) {{ acc += "
            f"(({prefix}_tconc *)b)->payload + {index}; }}   /* DC */")
    out.append(
        f"long {prefix}_dc_run(void) {{\n"
        f"    {prefix}_tconc c;\n    {prefix}_tbase *b;\n    long acc = 0;\n"
        f"    c.tag = 1;\n    c.top = {prefix}_tnop;\n    c.payload = 3;\n"
        f"    b = ({prefix}_tbase *)&c;   /* UC pairing the downcasts */\n"
        + "\n".join(lines) + "\n    return acc;\n}")
    return "\n".join(out) + "\n"


def gen_mf(prefix: str, n_alloc: int, n_free: int = 0) -> str:
    """``n_alloc`` malloc-result casts + ``n_free`` free-argument casts.

    The allocated struct carries a function-pointer field, so the
    ``void *`` conversions involve function-pointer types (MF sites).
    """
    out = [
        f"typedef struct {prefix}_obj {{",
        f"    long value;",
        f"    void (*dtor)(void *);",
        f"}} {prefix}_obj;",
        f"void {prefix}_dtor(void *p) {{ }}",
    ]
    lines = [f"    {prefix}_obj *o;"]
    frees_left = n_free
    for index in range(n_alloc):
        lines.append(f"    o = ({prefix}_obj *)malloc(sizeof({prefix}_obj))"
                     f";   /* MF */")
        lines.append(f"    o->value = {index};")
        lines.append(f"    o->dtor = {prefix}_dtor;")
        lines.append(f"    acc += o->value;")
        if frees_left > 0:
            lines.append(f"    free(o);   /* MF (free arg) */")
            frees_left -= 1
    out.append(
        f"long {prefix}_mf_run(void) {{\n    long acc = 0;\n"
        + "\n".join(lines) + "\n    return acc;\n}")
    return "\n".join(out) + "\n"


def gen_su(prefix: str, n: int) -> str:
    """``n`` Safe Update (SU) sites: function pointers set to NULL."""
    out = [f"typedef void (*{prefix}_cb)(int);",
           f"void {prefix}_cb_real(int x) {{ }}"]
    decls = [f"{prefix}_cb {prefix}_slot{i};" for i in range(min(n, 8))]
    out.extend(decls)
    lines = []
    for index in range(n):
        slot = index % min(n, 8)
        lines.append(f"    {prefix}_slot{slot} = 0;   /* SU */")
    lines.append(f"    {prefix}_slot0 = {prefix}_cb_real;")
    lines.append(f"    if ({prefix}_slot0) {{ {prefix}_slot0(1); }}")
    out.append(
        f"void {prefix}_su_run(void) {{\n" + "\n".join(lines) + "\n}")
    return "\n".join(out) + "\n"


def gen_nf(prefix: str, n: int) -> str:
    """``n`` Non-Fptr-access (NF) sites: cast used only to read a plain
    field of a struct that also contains function pointers (the
    perlbench ``XPVLV`` pattern)."""
    out = [
        f"typedef struct {prefix}_xpv {{",
        f"    long len;",
        f"    void (*magic)(void);",
        f"}} {prefix}_xpv;",
        f"typedef struct {prefix}_sv {{ void *any; }} {prefix}_sv;",
        f"void {prefix}_magic(void) {{ }}",
    ]
    lines = [
        f"    {prefix}_xpv x;",
        f"    {prefix}_sv s;",
        f"    x.len = 11;",
        f"    x.magic = {prefix}_magic;",
        f"    s.any = (void *)&x;",
    ]
    for index in range(n):
        lines.append(
            f"    if ((({prefix}_xpv *)(s.any))->len > {index}) "
            f"{{ acc += {index + 1}; }}   /* NF */")
    out.append(
        f"long {prefix}_nf_run(void) {{\n    long acc = 0;\n"
        + "\n".join(lines) + "\n    return acc;\n}")
    return "\n".join(out) + "\n"


def gen_k1(prefix: str, n_fixed: int, n_dead: int) -> str:
    """K1 sites: function pointers initialized with type-incompatible
    functions (the paper's gcc splay-tree/strcmp case).

    ``n_fixed`` sites use a pointer type that *is* dispatched through
    (the pointer would break the program, so — as the paper did — a
    correctly-typed wrapper performs the real call).  ``n_dead`` sites
    initialize pointers that are never called (gcc's 14 unpatched
    cases).
    """
    out = [
        f"int {prefix}_strcmpish(char *a, char *b) "
        f"{{ return (int)(a - b); }}",
        f"typedef int (*{prefix}_k1cmp)(unsigned long, unsigned long);",
        # the paper's fix: an equivalently-typed wrapper
        f"int {prefix}_cmp_wrap(unsigned long a, unsigned long b) "
        f"{{ return {prefix}_strcmpish((char *)a, (char *)b); }}",
    ]
    lines = [f"    {prefix}_k1cmp cmp;", "    long acc = 0;"]
    for index in range(n_fixed):
        lines.append(
            f"    cmp = ({prefix}_k1cmp){prefix}_strcmpish;   /* K1 */")
        lines.append(f"    cmp = {prefix}_cmp_wrap;   /* the fix */")
        lines.append(f"    acc += cmp({index}u, {index + 1}u);")
    out.append(
        f"long {prefix}_k1_run(void) {{\n" + "\n".join(lines)
        + "\n    return acc;\n}")
    if n_dead:
        dead_lines = []
        out.append(f"typedef long (*{prefix}_deadfp)(double);")
        for index in range(n_dead):
            dead_lines.append(
                f"    {prefix}_deadfp d{index} = "
                f"({prefix}_deadfp){prefix}_strcmpish;   /* K1, dead */")
            dead_lines.append(f"    if (d{index}) {{ acc += 1; }}")
        out.append(
            f"long {prefix}_k1_dead(void) {{\n    long acc = 0;\n"
            + "\n".join(dead_lines) + "\n    return acc;\n}")
    return "\n".join(out) + "\n"


def gen_k2(prefix: str, n: int) -> str:
    """``n`` K2 sites: function pointers cast away (to ``void *``) and
    back, as perlbench stores handlers in untyped slots.  None require
    source fixes.  Exactly ``n`` casts are emitted — an odd remainder
    is a lone escape cast whose round trip never completes."""
    out = [
        f"typedef void (*{prefix}_fn)(int);",
        f"void {prefix}_fn_real(int x) {{ }}",
    ]
    lines = [f"    void *store;", f"    {prefix}_fn back;",
             "    long acc = 0;"]
    emitted = 0
    index = 0
    while emitted < n:
        if n - emitted >= 2:
            lines.append(f"    store = (void *){prefix}_fn_real;   /* K2 */")
            lines.append(f"    back = ({prefix}_fn)store;   /* K2 */")
            lines.append(f"    back({index});")
            emitted += 2
        else:
            lines.append(f"    store = (void *){prefix}_fn_real;   /* K2 "
                         f"(one-way escape) */")
            emitted += 1
        lines.append(f"    acc += {index};")
        index += 1
    out.append(
        f"long {prefix}_k2_run(void) {{\n" + "\n".join(lines)
        + "\n    return acc;\n}")
    return "\n".join(out) + "\n"
