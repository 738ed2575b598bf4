"""The twelve SPECCPU2006-shaped synthetic workloads.

Each workload pairs a handwritten compute kernel in the spirit of its
SPEC namesake (perlbench = interpreter, bzip2 = compressor, gcc =
expression compiler, mcf = network flow, ...) with motif blocks from
:mod:`repro.workloads.motifs` calibrated so the C1 analyzer reproduces
the paper's Table 1/2 per-benchmark counts — exactly for the benchmarks
whose counts are small, scaled 1/20 (perlbench) and 1/10 (gcc) for the
two whose counts are in the hundreds/thousands (the scaling is recorded
per workload and surfaced in EXPERIMENTS.md).

Every motif block is *executed* by ``main`` and folded into the printed
checksum: the workloads contain no dead filler, so Fig. 5/6 overheads,
Table 3 CFG statistics, AIR and gadget counts all measure live code.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.workloads import motifs as m


@dataclass
class Workload:
    """One benchmark: source text plus the paper's reference numbers."""

    name: str
    source: str
    #: paper's Table 1 row (absolute numbers from the paper)
    paper_table1: Dict[str, int]
    #: expected analyzer counts for *this* (scaled) source
    expected_table1: Dict[str, int]
    #: scale factor applied to the paper's violation counts
    scale: int = 1
    #: paper's Table 3 rows: (IBs, IBTs, EQCs)
    paper_table3_x32: Tuple[int, int, int] = (0, 0, 0)
    paper_table3_x64: Tuple[int, int, int] = (0, 0, 0)
    #: expected K1/K2 classification for this source
    expected_table2: Dict[str, int] = field(default_factory=dict)


def _driver(calls: List[str]) -> str:
    body = "\n".join(f"    acc += (long)({call});" for call in calls)
    return (
        "int main(void) {\n"
        "    long acc = 0;\n"
        f"{body}\n"
        "    print_str(\"checksum \");\n"
        "    print_int(acc);\n"
        "    print_char('\\n');\n"
        "    return (int)(acc & 63);\n"
        "}\n")


# ---------------------------------------------------------------------------
# 400.perlbench -- bytecode interpreter with dispatch tables
# ---------------------------------------------------------------------------

_PERL_KERNEL = r"""
/* A register bytecode machine: the interpreter loop dispatches opcodes
   through a dense switch (jump table) and string ops through a
   function-pointer table, like perl's PP dispatch. */

enum { OP_HALT, OP_LOADI, OP_ADD, OP_SUB, OP_MUL, OP_JNZ, OP_HASH,
       OP_PRINTACC };

long pl_regs[8];

long pl_hash_str(char *s) {
    long h = 5381;
    unsigned long i;
    for (i = 0; i < strlen(s); i++) {
        h = h * 33 + s[i];
    }
    return h & 0xffffff;
}

long pl_arith(int kind, long a, long b) {
    if (kind == 2) { return a + b; }
    if (kind == 3) { return a - b; }
    return a * b;
}

int pl_operand(int *code, int pc, int k) {
    return code[pc + k] & 7;
}

long pl_interp(int *code, int len) {
    int pc = 0;
    long acc = 0;
    while (pc < len) {
        int op = code[pc];
        switch (op) {
            case 0: return acc;
            case 1: pl_regs[pl_operand(code, pc, 1)] = code[pc + 2]; pc += 3;
                    break;
            case 2: pl_regs[pl_operand(code, pc, 1)] = pl_arith(2,
                        pl_regs[pl_operand(code, pc, 1)],
                        pl_regs[pl_operand(code, pc, 2)]); pc += 3; break;
            case 3: pl_regs[pl_operand(code, pc, 1)] = pl_arith(3,
                        pl_regs[pl_operand(code, pc, 1)],
                        pl_regs[pl_operand(code, pc, 2)]); pc += 3; break;
            case 4: pl_regs[pl_operand(code, pc, 1)] = pl_arith(4,
                        pl_regs[pl_operand(code, pc, 1)],
                        pl_regs[pl_operand(code, pc, 2)]); pc += 3; break;
            case 5: if (pl_regs[code[pc + 1] & 7]) { pc = code[pc + 2]; }
                    else { pc += 3; } break;
            case 6: acc += pl_hash_str("perlish"); pc += 1; break;
            case 7: acc += pl_regs[0]; pc += 1; break;
            default: pc += 1; break;
        }
    }
    return acc;
}

int pl_program[32] = {1, 0, 100, 1, 1, 1, 3, 0, 1, 5, 0, 3, 7, 6, 0};

long pl_kernel(void) {
    long total = 0;
    int round;
    for (round = 0; round < 16; round++) {
        pl_program[2] = 60 + round;
        total += pl_interp(pl_program, 32);
    }
    return total;
}
"""


def build_perlbench() -> Workload:
    source = (
        _PERL_KERNEL
        + m.gen_dispatch("pl", 24, 4, calls_per_run=16)
        + m.gen_switches("pl", 4, 8)
        + m.gen_uc("pl", 25)
        + m.gen_dc("pl", 48)
        + m.gen_mf("pl", 8, n_free=4)
        + m.gen_su("pl", 32)
        + m.gen_nf("pl", 16)
        + m.gen_k1("pl", 3, 0)
        + m.gen_k2("pl", 7)
        + _driver(["pl_kernel()", "pl_run(3)", "pl_swrun()", "pl_uc_run()",
                   "pl_dc_run()", "pl_mf_run()", "pl_nf_run()",
                   "pl_k1_run()", "pl_k2_run()"])
        + "\n")
    return Workload(
        name="perlbench", source=source, scale=20,
        paper_table1={"SLOC": 126345, "VBE": 2878, "UC": 510, "DC": 957,
                      "MF": 234, "SU": 633, "NF": 318, "VAE": 226},
        expected_table1={"VBE": 145, "UC": 26, "DC": 48, "MF": 12,
                         "SU": 32, "NF": 16, "VAE": 11},
        expected_table2={"K1": 3, "K2": 8, "K1-fixed": 3},
        paper_table3_x32=(2250, 15492, 930),
        paper_table3_x64=(2081, 15273, 737))


# ---------------------------------------------------------------------------
# 401.bzip2 -- RLE + move-to-front compressor round trip
# ---------------------------------------------------------------------------

_BZIP2_KERNEL = r"""
/* Run-length + move-to-front coding round trip over a synthetic
   buffer, verified byte for byte. */

unsigned char bz_input[256];
unsigned char bz_coded[1200];
unsigned char bz_output[256];
unsigned char bz_mtf[256];

void bz_fill_input(void) {
    int i;
    long x = 12345;
    for (i = 0; i < 256; i++) {
        x = x * 1103515245 + 12345;
        bz_input[i] = (unsigned char)((x >> 16) & 7);  /* runs likely */
    }
}

void bz_mtf_init(void) {
    int i;
    for (i = 0; i < 256; i++) { bz_mtf[i] = (unsigned char)i; }
}

int bz_mtf_encode(int c) {
    int i = 0;
    int j;
    while (bz_mtf[i] != c) { i++; }
    for (j = i; j > 0; j--) { bz_mtf[j] = bz_mtf[j - 1]; }
    bz_mtf[0] = (unsigned char)c;
    return i;
}

int bz_mtf_decode(int rank) {
    int c = bz_mtf[rank];
    int j;
    for (j = rank; j > 0; j--) { bz_mtf[j] = bz_mtf[j - 1]; }
    bz_mtf[0] = (unsigned char)c;
    return c;
}

int bz_compress(void) {
    int out = 0;
    int i = 0;
    bz_mtf_init();
    while (i < 256) {
        int c = bz_input[i];
        int run = 1;
        while (i + run < 256 && bz_input[i + run] == c && run < 255) {
            run++;
        }
        bz_coded[out] = (unsigned char)run;
        bz_coded[out + 1] = (unsigned char)bz_mtf_encode(c);
        out += 2;
        i += run;
    }
    return out;
}

int bz_decompress(int coded_len) {
    int i;
    int pos = 0;
    bz_mtf_init();
    for (i = 0; i < coded_len; i += 2) {
        int run = bz_coded[i];
        int c = bz_mtf_decode(bz_coded[i + 1]);
        int j;
        for (j = 0; j < run; j++) {
            bz_output[pos] = (unsigned char)c;
            pos++;
        }
    }
    return pos;
}

long bz_kernel(void) {
    int coded;
    int n;
    int i;
    long errors = 0;
    bz_fill_input();
    coded = bz_compress();
    n = bz_decompress(coded);
    if (n != 256) { return -1; }
    for (i = 0; i < 256; i++) {
        if (bz_input[i] != bz_output[i]) { errors++; }
    }
    return errors * 1000 + coded;
}
"""


def build_bzip2() -> Workload:
    source = (
        _BZIP2_KERNEL
        + m.gen_dispatch("bz", 4, 2)
        + m.gen_mf("bz", 4, n_free=2)
        + m.gen_su("bz", 4)
        + m.gen_k2("bz", 17)
        + _driver(["bz_kernel()", "bz_run(1)", "bz_mf_run()",
                   "bz_k2_run()"])
        + "\n")
    return Workload(
        name="bzip2", source=source, scale=1,
        paper_table1={"SLOC": 5731, "VBE": 27, "UC": 0, "DC": 0, "MF": 6,
                      "SU": 4, "NF": 0, "VAE": 17},
        expected_table1={"VBE": 27, "UC": 0, "DC": 0, "MF": 6, "SU": 4,
                         "NF": 0, "VAE": 17},
        expected_table2={"K1": 0, "K2": 17, "K1-fixed": 0},
        paper_table3_x32=(220, 515, 110),
        paper_table3_x64=(217, 544, 93))


# ---------------------------------------------------------------------------
# 403.gcc -- mini expression compiler (tokenize, parse, fold, emit, run)
# ---------------------------------------------------------------------------

_GCC_KERNEL = r"""
/* A miniature compiler: tokenize an arithmetic expression, compile it
   to stack code with constant folding, interpret the code; plus the
   paper's splay-tree-with-comparator shape. */

char *cc_src;
int cc_pos;

int cc_peek(void) { return cc_src[cc_pos]; }

long cc_stack_code[128];
int cc_emitted;

void cc_emit(long op, long arg) {
    cc_stack_code[cc_emitted] = op * 1000000 + arg;
    cc_emitted++;
}

long cc_parse_expr(void);

long cc_parse_atom(void) {
    long v = 0;
    if (cc_peek() == '(') {
        cc_pos++;
        v = cc_parse_expr();
        cc_pos++;   /* ')' */
        return v;
    }
    while (cc_peek() >= '0' && cc_peek() <= '9') {
        v = v * 10 + (cc_peek() - '0');
        cc_pos++;
    }
    cc_emit(1, v);
    return v;
}

long cc_parse_term(void) {
    long v = cc_parse_atom();
    while (cc_peek() == '*') {
        cc_pos++;
        v = v * cc_parse_atom();
        cc_emit(3, 0);
    }
    return v;
}

long cc_parse_expr(void) {
    long v = cc_parse_term();
    while (cc_peek() == '+') {
        cc_pos++;
        v = v + cc_parse_term();
        cc_emit(2, 0);
    }
    return v;
}

long cc_eval_code(void) {
    long stack[32];
    int sp = 0;
    int i;
    for (i = 0; i < cc_emitted; i++) {
        long op = cc_stack_code[i] / 1000000;
        long arg = cc_stack_code[i] % 1000000;
        if (op == 1) { stack[sp] = arg; sp++; }
        if (op == 2) { sp--; stack[sp - 1] += stack[sp]; }
        if (op == 3) { sp--; stack[sp - 1] *= stack[sp]; }
    }
    if (sp != 1) { return -1; }
    return stack[0];
}

typedef struct cc_node {
    unsigned long key;
    long value;
    struct cc_node *left;
    struct cc_node *right;
} cc_node;

typedef int (*cc_keycmp)(unsigned long, unsigned long);

int cc_cmp_ul(unsigned long a, unsigned long b) {
    if (a < b) { return -1; }
    if (a > b) { return 1; }
    return 0;
}

cc_node *cc_insert(cc_node *root, cc_node *fresh, cc_keycmp cmp) {
    if (!root) { return fresh; }
    if (cmp(fresh->key, root->key) < 0) {
        root->left = cc_insert(root->left, fresh, cmp);
    } else {
        root->right = cc_insert(root->right, fresh, cmp);
    }
    return root;
}

long cc_sum_tree(cc_node *root) {
    if (!root) { return 0; }
    return root->value + cc_sum_tree(root->left) + cc_sum_tree(root->right);
}

long cc_kernel(void) {
    long total = 0;
    int round;
    cc_node nodes[24];
    cc_node *root = 0;
    for (round = 0; round < 40; round++) {
        cc_src = "(1+2)*(3+4)+5*6+78";
        cc_pos = 0;
        cc_emitted = 0;
        cc_parse_expr();
        total += cc_eval_code();
    }
    for (round = 0; round < 24; round++) {
        nodes[round].key = (unsigned long)((round * 7) % 24);
        nodes[round].value = round;
        nodes[round].left = 0;
        nodes[round].right = 0;
        root = cc_insert(root, &nodes[round], cc_cmp_ul);
    }
    return total + cc_sum_tree(root);
}
"""


def build_gcc() -> Workload:
    source = (
        _GCC_KERNEL
        + m.gen_dispatch("cc", 52, 6, calls_per_run=30)
        + m.gen_switches("cc", 6, 10)
        + m.gen_mf("cc", 2, n_free=0)
        + m.gen_su("cc", 74)
        + m.gen_nf("cc", 3)
        + m.gen_k1("cc", 2, 1)
        + _driver(["cc_kernel()", "cc_run(5)", "cc_swrun()", "cc_mf_run()",
                   "cc_nf_run()", "cc_su_run(), 0", "cc_k1_run()",
                   "cc_k1_dead()"])
        + "\n")
    return Workload(
        name="gcc", source=source, scale=10,
        paper_table1={"SLOC": 235884, "VBE": 822, "UC": 0, "DC": 0,
                      "MF": 15, "SU": 737, "NF": 27, "VAE": 43},
        expected_table1={"VBE": 83, "UC": 0, "DC": 0, "MF": 2, "SU": 74,
                         "NF": 3, "VAE": 4},
        expected_table2={"K1": 3, "K2": 1, "K1-fixed": 2},
        paper_table3_x32=(5215, 48634, 2779),
        paper_table3_x64=(4796, 46943, 1991))


# ---------------------------------------------------------------------------
# 429.mcf -- Bellman-Ford network optimization (no violations)
# ---------------------------------------------------------------------------

_MCF_KERNEL = r"""
/* Single-source shortest paths over a synthetic scheduling network --
   the spirit of mcf's network simplex, with zero C1 violations. */

int mc_from[120];
int mc_to[120];
long mc_cost[120];
long mc_dist[32];

void mc_build(void) {
    int e;
    long x = 777;
    for (e = 0; e < 120; e++) {
        x = x * 6364136223846793005 + 1442695040888963407;
        mc_from[e] = (int)((x >> 33) & 31) % 32;
        mc_to[e] = (int)((x >> 17) & 31) % 32;
        mc_cost[e] = ((x >> 5) & 63) + 1;
        if (mc_from[e] == mc_to[e]) { mc_to[e] = (mc_to[e] + 1) % 32; }
    }
}

long mc_bellman_ford(int source) {
    int i;
    int e;
    long reach = 0;
    for (i = 0; i < 32; i++) { mc_dist[i] = 1000000000; }
    mc_dist[source] = 0;
    for (i = 0; i < 31; i++) {
        for (e = 0; e < 120; e++) {
            long cand = mc_dist[mc_from[e]] + mc_cost[e];
            if (mc_dist[mc_from[e]] < 1000000000 &&
                    cand < mc_dist[mc_to[e]]) {
                mc_dist[mc_to[e]] = cand;
            }
        }
    }
    for (i = 0; i < 32; i++) {
        if (mc_dist[i] < 1000000000) { reach += mc_dist[i]; }
    }
    return reach;
}

long mc_kernel(void) {
    long total = 0;
    int s;
    mc_build();
    for (s = 0; s < 3; s++) {
        total += mc_bellman_ford(s * 7 % 32);
    }
    return total;
}
"""


def build_mcf() -> Workload:
    source = _MCF_KERNEL + _driver(["mc_kernel()"]) + "\n"
    return Workload(
        name="mcf", source=source, scale=1,
        paper_table1={"SLOC": 1574, "VBE": 0, "UC": 0, "DC": 0, "MF": 0,
                      "SU": 0, "NF": 0, "VAE": 0},
        expected_table1={"VBE": 0, "UC": 0, "DC": 0, "MF": 0, "SU": 0,
                         "NF": 0, "VAE": 0},
        expected_table2={"K1": 0, "K2": 0, "K1-fixed": 0},
        paper_table3_x32=(170, 468, 119),
        paper_table3_x64=(174, 445, 106))


# ---------------------------------------------------------------------------
# 445.gobmk -- board influence + pattern dispatch (no violations)
# ---------------------------------------------------------------------------

_GOBMK_KERNEL = r"""
/* Influence propagation on a 13x13 board plus tactical pattern
   evaluators dispatched through a table, like gobmk's owl patterns. */

int gb_board[169];
int gb_influence[169];

void gb_seed_board(void) {
    int i;
    long x = 4242;
    for (i = 0; i < 169; i++) {
        x = x * 25214903917 + 11;
        gb_board[i] = (int)((x >> 24) % 3);  /* 0 empty, 1 black, 2 white */
    }
}

int gb_mix(int n, int s, int w, int e) {
    return (n + s + w + e) / 8;
}

void gb_propagate(void) {
    int pass;
    int i;
    for (i = 0; i < 169; i++) {
        gb_influence[i] = gb_board[i] == 1 ? 64 :
                          (gb_board[i] == 2 ? -64 : 0);
    }
    for (pass = 0; pass < 5; pass++) {
        for (i = 13; i < 156; i++) {
            gb_influence[i] += gb_mix(gb_influence[i - 13],
                                      gb_influence[i + 13],
                                      gb_influence[i - 1],
                                      gb_influence[i + 1])
                               - gb_influence[i] / 16;
        }
    }
}

long gb_score(void) {
    long black = 0;
    int i;
    for (i = 0; i < 169; i++) {
        if (gb_influence[i] > 4) { black++; }
        if (gb_influence[i] < -4) { black--; }
    }
    return black;
}

long gb_kernel(void) {
    long total = 0;
    int round;
    gb_seed_board();
    for (round = 0; round < 4; round++) {
        gb_propagate();
        total += gb_score();
        gb_board[(round * 31) % 169] = 1 + (round & 1);
    }
    return total;
}
"""


def build_gobmk() -> Workload:
    source = (
        _GOBMK_KERNEL
        + m.gen_dispatch("gb", 30, 5, calls_per_run=15)
        + m.gen_switches("gb", 4, 8)
        + _driver(["gb_kernel()", "gb_run(2)", "gb_swrun()"])
        + "\n")
    return Workload(
        name="gobmk", source=source, scale=1,
        paper_table1={"SLOC": 157649, "VBE": 0, "UC": 0, "DC": 0, "MF": 0,
                      "SU": 0, "NF": 0, "VAE": 0},
        expected_table1={"VBE": 0, "UC": 0, "DC": 0, "MF": 0, "SU": 0,
                         "NF": 0, "VAE": 0},
        expected_table2={"K1": 0, "K2": 0, "K1-fixed": 0},
        paper_table3_x32=(2734, 11073, 709),
        paper_table3_x64=(2487, 10667, 579))


# ---------------------------------------------------------------------------
# 456.hmmer -- profile HMM Viterbi DP
# ---------------------------------------------------------------------------

_HMMER_KERNEL = r"""
/* Viterbi decoding of a toy profile HMM over a synthetic residue
   sequence: triple-state DP with transition penalties. */

long hm_match[20][16];
long hm_vm[64][16];
long hm_vi[64][16];
long hm_vd[64][16];
int hm_seq[64];

long hm_max2(long a, long b) { return a > b ? a : b; }
long hm_max3(long a, long b, long c) { return hm_max2(hm_max2(a, b), c); }

void hm_setup(void) {
    int i;
    int j;
    long x = 99;
    for (i = 0; i < 20; i++) {
        for (j = 0; j < 16; j++) {
            x = x * 69069 + 1;
            hm_match[i][j] = ((x >> 8) % 17) - 8;
        }
    }
    for (i = 0; i < 64; i++) {
        x = x * 69069 + 1;
        hm_seq[i] = (int)((x >> 16) % 20);
    }
}

long hm_viterbi(void) {
    int i;
    int j;
    for (i = 0; i < 64; i++) {
        for (j = 0; j < 16; j++) {
            long em = hm_match[hm_seq[i]][j];
            long prev_m = (i > 0 && j > 0) ? hm_vm[i - 1][j - 1] : -3;
            long prev_i = i > 0 ? hm_vi[i - 1][j] : -5;
            long prev_d = j > 0 ? hm_vd[i][j - 1] : -5;
            hm_vm[i][j] = em + hm_max3(prev_m, prev_i - 2, prev_d - 2);
            hm_vi[i][j] = hm_max2(prev_m - 3, prev_i - 1);
            hm_vd[i][j] = hm_max2((j > 0 ? hm_vm[i][j - 1] : -3) - 3,
                                  prev_d - 1);
        }
    }
    return hm_vm[63][15];
}

long hm_kernel(void) {
    long total = 0;
    int round;
    hm_setup();
    for (round = 0; round < 2; round++) {
        hm_seq[round % 64] = round % 20;
        total += hm_viterbi();
    }
    return total;
}
"""


def build_hmmer() -> Workload:
    source = (
        _HMMER_KERNEL
        + m.gen_dispatch("hm", 8, 3)
        + m.gen_mf("hm", 12, n_free=8)
        + _driver(["hm_kernel()", "hm_run(4)", "hm_mf_run()"])
        + "\n")
    return Workload(
        name="hmmer", source=source, scale=1,
        paper_table1={"SLOC": 20658, "VBE": 20, "UC": 0, "DC": 0, "MF": 20,
                      "SU": 0, "NF": 0, "VAE": 0},
        expected_table1={"VBE": 20, "UC": 0, "DC": 0, "MF": 20, "SU": 0,
                         "NF": 0, "VAE": 0},
        expected_table2={"K1": 0, "K2": 0, "K1-fixed": 0},
        paper_table3_x32=(726, 4464, 401),
        paper_table3_x64=(715, 4369, 353))


# ---------------------------------------------------------------------------
# 458.sjeng -- negamax game-tree search with switches
# ---------------------------------------------------------------------------

_SJENG_KERNEL = r"""
/* Negamax with alpha-beta over a deterministic abstract game: each
   position offers a handful of moves whose values come from a mixing
   function -- the control-flow shape of a chess searcher. */

long sj_nodes;

long sj_move_value(long pos, int move) {
    long v = pos * 2654435761 + move * 40503;
    v = (v >> 13) ^ v;
    return v;
}

long sj_negamax(long pos, int depth, long alpha, long beta) {
    int move;
    long best = -1000000000;
    sj_nodes++;
    if (depth == 0) {
        return (sj_move_value(pos, 0) % 2001) - 1000;
    }
    for (move = 0; move < 5; move++) {
        long child = sj_move_value(pos, move);
        long score = -sj_negamax(child, depth - 1, -beta, -alpha);
        if (score > best) { best = score; }
        if (best > alpha) { alpha = best; }
        if (alpha >= beta) { break; }
    }
    return best;
}

int sj_phase(int depth) {
    switch (depth) {
        case 0: return 1;
        case 1: return 2;
        case 2: return 4;
        case 3: return 8;
        case 4: return 16;
        default: return 32;
    }
}

long sj_kernel(void) {
    long total = 0;
    int root;
    sj_nodes = 0;
    for (root = 0; root < 4; root++) {
        total += sj_negamax(root * 977, 4, -1000000000, 1000000000);
        total += sj_phase(root);
    }
    return total + sj_nodes;
}
"""


def build_sjeng() -> Workload:
    source = (
        _SJENG_KERNEL
        + m.gen_dispatch("sj", 4, 2, calls_per_run=8)
        + m.gen_switches("sj", 3, 7)
        + _driver(["sj_kernel()", "sj_run(1)", "sj_swrun()"])
        + "\n")
    return Workload(
        name="sjeng", source=source, scale=1,
        paper_table1={"SLOC": 10544, "VBE": 0, "UC": 0, "DC": 0, "MF": 0,
                      "SU": 0, "NF": 0, "VAE": 0},
        expected_table1={"VBE": 0, "UC": 0, "DC": 0, "MF": 0, "SU": 0,
                         "NF": 0, "VAE": 0},
        expected_table2={"K1": 0, "K2": 0, "K1-fixed": 0},
        paper_table3_x32=(305, 1457, 207),
        paper_table3_x64=(337, 1435, 184))


# ---------------------------------------------------------------------------
# 462.libquantum -- gate simulation with one K1 case
# ---------------------------------------------------------------------------

_LIBQUANTUM_KERNEL = r"""
/* Toffoli/Hadamard-ish transforms over a small amplitude vector; the
   gate pipeline is a function-pointer table (libquantum dispatches
   gates similarly). */

double lq_re[32];
double lq_im[32];

void lq_init(void) {
    int i;
    for (i = 0; i < 32; i++) {
        lq_re[i] = i == 0 ? 1.0 : 0.0;
        lq_im[i] = 0.0;
    }
}

void lq_gate_not(int bit) {
    int i;
    for (i = 0; i < 32; i++) {
        int j = i ^ (1 << bit);
        if (i < j) {
            double tr = lq_re[i];
            double ti = lq_im[i];
            lq_re[i] = lq_re[j];
            lq_im[i] = lq_im[j];
            lq_re[j] = tr;
            lq_im[j] = ti;
        }
    }
}

void lq_gate_phase(int bit) {
    int i;
    for (i = 0; i < 32; i++) {
        if (i & (1 << bit)) {
            double tr = lq_re[i];
            lq_re[i] = 0.0 - lq_im[i];
            lq_im[i] = tr;
        }
    }
}

void lq_gate_mix(int bit) {
    int i;
    for (i = 0; i < 32; i++) {
        int j = i ^ (1 << bit);
        if (i < j) {
            double a = lq_re[i];
            double b = lq_re[j];
            lq_re[i] = (a + b) / 2.0;
            lq_re[j] = (a - b) / 2.0;
        }
    }
}

typedef void (*lq_gate)(int);
lq_gate lq_pipeline[3] = {lq_gate_not, lq_gate_phase, lq_gate_mix};

long lq_kernel(void) {
    int round;
    int g;
    double norm = 0.0;
    long scaled;
    lq_init();
    for (round = 0; round < 12; round++) {
        for (g = 0; g < 3; g++) {
            lq_pipeline[g](round % 5);
        }
    }
    for (g = 0; g < 32; g++) {
        norm = norm + lq_re[g] * lq_re[g] + lq_im[g] * lq_im[g];
    }
    scaled = (long)(norm * 1000.0);
    return scaled;
}
"""


def build_libquantum() -> Workload:
    source = (
        _LIBQUANTUM_KERNEL
        + m.gen_dispatch("lq", 3, 2)
        + m.gen_k1("lq", 1, 0)
        + _driver(["lq_kernel()", "lq_run(2)", "lq_k1_run()"])
        + "\n")
    return Workload(
        name="libquantum", source=source, scale=1,
        paper_table1={"SLOC": 2606, "VBE": 1, "UC": 0, "DC": 0, "MF": 0,
                      "SU": 0, "NF": 0, "VAE": 1},
        expected_table1={"VBE": 1, "UC": 0, "DC": 0, "MF": 0, "SU": 0,
                         "NF": 0, "VAE": 1},
        expected_table2={"K1": 1, "K2": 0, "K1-fixed": 1},
        paper_table3_x32=(246, 754, 161),
        paper_table3_x64=(258, 702, 121))


# ---------------------------------------------------------------------------
# 464.h264ref -- integer transform + SAD motion search
# ---------------------------------------------------------------------------

_H264_KERNEL = r"""
/* 4x4 integer DCT-ish transform and sum-of-absolute-differences motion
   search over synthetic frames. */

int hv_frame[256];
int hv_ref[256];

void hv_fill(void) {
    int i;
    long x = 31337;
    for (i = 0; i < 256; i++) {
        x = x * 1103515245 + 12345;
        hv_frame[i] = (int)((x >> 16) & 255);
        hv_ref[i] = (int)((x >> 24) & 255);
    }
}

long hv_transform4x4(int *block) {
    int tmp[16];
    int i;
    long energy = 0;
    for (i = 0; i < 4; i++) {
        int a = block[i * 4] + block[i * 4 + 3];
        int b = block[i * 4 + 1] + block[i * 4 + 2];
        int c = block[i * 4 + 1] - block[i * 4 + 2];
        int d = block[i * 4] - block[i * 4 + 3];
        tmp[i * 4] = a + b;
        tmp[i * 4 + 1] = 2 * d + c;
        tmp[i * 4 + 2] = a - b;
        tmp[i * 4 + 3] = d - 2 * c;
    }
    for (i = 0; i < 16; i++) {
        energy += (long)(tmp[i] > 0 ? tmp[i] : -tmp[i]);
    }
    return energy;
}

int hv_absdiff(int a, int b) {
    return a > b ? a - b : b - a;
}

long hv_sad(int bx, int dx) {
    long sad = 0;
    int i;
    for (i = 0; i < 16; i++) {
        sad += hv_absdiff(hv_frame[(bx + i) & 255],
                          hv_ref[(bx + dx + i) & 255]);
    }
    return sad;
}

long hv_kernel(void) {
    long total = 0;
    int block;
    hv_fill();
    for (block = 0; block < 16; block++) {
        long best = 1 << 30;
        int dx;
        for (dx = -8; dx <= 8; dx++) {
            long sad = hv_sad(block * 16, dx);
            if (sad < best) { best = sad; }
        }
        total += best + hv_transform4x4(hv_frame + block * 16);
    }
    return total;
}
"""


def build_h264ref() -> Workload:
    source = (
        _H264_KERNEL
        + m.gen_dispatch("hv", 12, 4)
        + m.gen_switches("hv", 2, 6)
        + m.gen_mf("hv", 5, n_free=3)
        + _driver(["hv_kernel()", "hv_run(3)", "hv_swrun()", "hv_mf_run()"])
        + "\n")
    return Workload(
        name="h264ref", source=source, scale=1,
        paper_table1={"SLOC": 36098, "VBE": 8, "UC": 0, "DC": 0, "MF": 8,
                      "SU": 0, "NF": 0, "VAE": 0},
        expected_table1={"VBE": 8, "UC": 0, "DC": 0, "MF": 8, "SU": 0,
                         "NF": 0, "VAE": 0},
        expected_table2={"K1": 0, "K2": 0, "K1-fixed": 0},
        paper_table3_x32=(1099, 3677, 493),
        paper_table3_x64=(1096, 3604, 432))


# ---------------------------------------------------------------------------
# 433.milc -- SU(2)-ish complex matrix products (floating point)
# ---------------------------------------------------------------------------

_MILC_KERNEL = r"""
/* Complex 2x2 matrix products over a lattice of links -- milc's
   su3-multiply inner loop in miniature. */

double ml_lat_re[64][4];
double ml_lat_im[64][4];

void ml_init(void) {
    int s;
    int k;
    for (s = 0; s < 64; s++) {
        for (k = 0; k < 4; k++) {
            ml_lat_re[s][k] = (double)((s * 5 + k * 3) % 7) / 7.0;
            ml_lat_im[s][k] = (double)((s * 3 + k * 5) % 5) / 5.0;
        }
    }
}

void ml_mult(double *are, double *aim, double *bre, double *bim,
             double *cre, double *cim) {
    int i;
    int j;
    int k;
    for (i = 0; i < 2; i++) {
        for (j = 0; j < 2; j++) {
            double sum_re = 0.0;
            double sum_im = 0.0;
            for (k = 0; k < 2; k++) {
                double ar = are[i * 2 + k];
                double ai = aim[i * 2 + k];
                double br = bre[k * 2 + j];
                double bi = bim[k * 2 + j];
                sum_re = sum_re + ar * br - ai * bi;
                sum_im = sum_im + ar * bi + ai * br;
            }
            cre[i * 2 + j] = sum_re;
            cim[i * 2 + j] = sum_im;
        }
    }
}

long ml_kernel(void) {
    double acc_re[4];
    double acc_im[4];
    double out_re[4];
    double out_im[4];
    double trace = 0.0;
    int s;
    int k;
    ml_init();
    for (k = 0; k < 4; k++) { acc_re[k] = k == 0 || k == 3 ? 1.0 : 0.0; }
    for (k = 0; k < 4; k++) { acc_im[k] = 0.0; }
    for (s = 0; s < 64; s++) {
        ml_mult(acc_re, acc_im, ml_lat_re[s], ml_lat_im[s],
                out_re, out_im);
        for (k = 0; k < 4; k++) {
            acc_re[k] = out_re[k] * 0.5 + (k == 0 || k == 3 ? 0.5 : 0.0);
            acc_im[k] = out_im[k] * 0.5;
        }
    }
    trace = acc_re[0] + acc_re[3];
    return (long)(trace * 100000.0);
}
"""


def build_milc() -> Workload:
    source = (
        _MILC_KERNEL
        + m.gen_dispatch("ml", 5, 3)
        + m.gen_mf("ml", 2, n_free=1)
        + m.gen_k2("ml", 5)
        + _driver(["ml_kernel()", "ml_run(2)", "ml_mf_run()",
                   "ml_k2_run()"])
        + "\n")
    return Workload(
        name="milc", source=source, scale=1,
        paper_table1={"SLOC": 9575, "VBE": 8, "UC": 0, "DC": 0, "MF": 3,
                      "SU": 0, "NF": 0, "VAE": 5},
        expected_table1={"VBE": 8, "UC": 0, "DC": 0, "MF": 3, "SU": 0,
                         "NF": 0, "VAE": 5},
        expected_table2={"K1": 0, "K2": 5, "K1-fixed": 0},
        paper_table3_x32=(441, 2443, 312),
        paper_table3_x64=(432, 2356, 264))


# ---------------------------------------------------------------------------
# 470.lbm -- lattice-Boltzmann stream/collide stencil
# ---------------------------------------------------------------------------

_LBM_KERNEL = r"""
/* 1D three-velocity lattice Boltzmann: stream + BGK collide, double
   precision, no indirect control flow beyond returns. */

double lb_f0[128];
double lb_fp[128];
double lb_fm[128];
double lb_nf0[128];
double lb_nfp[128];
double lb_nfm[128];

void lb_init(void) {
    int i;
    for (i = 0; i < 128; i++) {
        double rho = 1.0 + (i >= 48 && i < 80 ? 0.2 : 0.0);
        lb_f0[i] = rho * 4.0 / 6.0;
        lb_fp[i] = rho / 6.0;
        lb_fm[i] = rho / 6.0;
    }
}

void lb_step(void) {
    int i;
    for (i = 0; i < 128; i++) {
        int left = i == 0 ? 127 : i - 1;
        int right = i == 127 ? 0 : i + 1;
        double f0 = lb_f0[i];
        double fp = lb_fp[left];
        double fm = lb_fm[right];
        double rho = f0 + fp + fm;
        double vel = (fp - fm) / rho;
        double eq0 = rho * 4.0 / 6.0 * (1.0 - 1.5 * vel * vel);
        double eqp = rho / 6.0 * (1.0 + 3.0 * vel + 3.0 * vel * vel);
        double eqm = rho / 6.0 * (1.0 - 3.0 * vel + 3.0 * vel * vel);
        lb_nf0[i] = f0 + 0.6 * (eq0 - f0);
        lb_nfp[i] = fp + 0.6 * (eqp - fp);
        lb_nfm[i] = fm + 0.6 * (eqm - fm);
    }
    for (i = 0; i < 128; i++) {
        lb_f0[i] = lb_nf0[i];
        lb_fp[i] = lb_nfp[i];
        lb_fm[i] = lb_nfm[i];
    }
}

long lb_kernel(void) {
    double mass = 0.0;
    int t;
    int i;
    lb_init();
    for (t = 0; t < 10; t++) { lb_step(); }
    for (i = 0; i < 128; i++) {
        mass = mass + lb_f0[i] + lb_fp[i] + lb_fm[i];
    }
    return (long)(mass * 1000.0);
}
"""


def build_lbm() -> Workload:
    source = _LBM_KERNEL + _driver(["lb_kernel()"]) + "\n"
    return Workload(
        name="lbm", source=source, scale=1,
        paper_table1={"SLOC": 904, "VBE": 0, "UC": 0, "DC": 0, "MF": 0,
                      "SU": 0, "NF": 0, "VAE": 0},
        expected_table1={"VBE": 0, "UC": 0, "DC": 0, "MF": 0, "SU": 0,
                         "NF": 0, "VAE": 0},
        expected_table2={"K1": 0, "K2": 0, "K1-fixed": 0},
        paper_table3_x32=(161, 455, 112),
        paper_table3_x64=(161, 426, 96))


# ---------------------------------------------------------------------------
# 482.sphinx3 -- gaussian mixture acoustic scoring
# ---------------------------------------------------------------------------

_SPHINX_KERNEL = r"""
/* Gaussian-mixture log-likelihood scoring of synthetic feature frames
   followed by a best-state search -- sphinx3's senone scoring shape. */

double sp_mean[8][8];
double sp_var[8][8];
double sp_feat[24][8];

void sp_init(void) {
    int s;
    int d;
    int t;
    for (s = 0; s < 8; s++) {
        for (d = 0; d < 8; d++) {
            sp_mean[s][d] = (double)((s * 3 + d) % 5) - 2.0;
            sp_var[s][d] = 0.5 + (double)((s + d) % 3) * 0.25;
        }
    }
    for (t = 0; t < 24; t++) {
        for (d = 0; d < 8; d++) {
            sp_feat[t][d] = (double)((t * 7 + d * 5) % 9) / 3.0 - 1.0;
        }
    }
}

double sp_score(int state, int frame) {
    double ll = 0.0;
    int d;
    for (d = 0; d < 8; d++) {
        double diff = sp_feat[frame][d] - sp_mean[state][d];
        ll = ll - diff * diff / (2.0 * sp_var[state][d]);
    }
    return ll;
}

long sp_kernel(void) {
    long path = 0;
    int t;
    sp_init();
    for (t = 0; t < 24; t++) {
        int best_state = 0;
        double best = -1000000.0;
        int s;
        for (s = 0; s < 8; s++) {
            double ll = sp_score(s, t);
            if (ll > best) { best = ll; best_state = s; }
        }
        path = path * 8 + best_state;
        path = path % 100000007;
    }
    return path;
}
"""


def build_sphinx3() -> Workload:
    source = (
        _SPHINX_KERNEL
        + m.gen_dispatch("sp", 7, 3)
        + m.gen_switches("sp", 2, 6)
        + m.gen_mf("sp", 7, n_free=4)
        + m.gen_su("sp", 1)
        + _driver(["sp_kernel()", "sp_run(2)", "sp_swrun()", "sp_mf_run()",
                   "sp_su_run(), 0"])
        + "\n")
    return Workload(
        name="sphinx3", source=source, scale=1,
        paper_table1={"SLOC": 13128, "VBE": 12, "UC": 0, "DC": 0, "MF": 11,
                      "SU": 1, "NF": 0, "VAE": 0},
        expected_table1={"VBE": 12, "UC": 0, "DC": 0, "MF": 11, "SU": 1,
                         "NF": 0, "VAE": 0},
        expected_table2={"K1": 0, "K2": 0, "K1-fixed": 0},
        paper_table3_x32=(585, 2963, 380),
        paper_table3_x64=(589, 2895, 321))


_BUILDERS = {
    "perlbench": build_perlbench,
    "bzip2": build_bzip2,
    "gcc": build_gcc,
    "mcf": build_mcf,
    "gobmk": build_gobmk,
    "hmmer": build_hmmer,
    "sjeng": build_sjeng,
    "libquantum": build_libquantum,
    "h264ref": build_h264ref,
    "milc": build_milc,
    "lbm": build_lbm,
    "sphinx3": build_sphinx3,
}

#: SPEC-order benchmark names (9 integer + 3 floating point).
BENCHMARKS = ("perlbench", "bzip2", "gcc", "mcf", "gobmk", "hmmer",
              "sjeng", "libquantum", "h264ref", "milc", "lbm", "sphinx3")

_CACHE: Dict[str, Workload] = {}


def workload(name: str) -> Workload:
    """Build (and cache) one workload by benchmark name."""
    if name not in _CACHE:
        _CACHE[name] = _BUILDERS[name]()
    return _CACHE[name]


# ---------------------------------------------------------------------------
# Named benchmark sets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BenchmarkSet:
    """A named, closed collection of corpus members.

    Sets exist so reports cannot cherry-pick: a set run must produce
    one verdict per member (see ``repro.workloads.corpus``). ``kind``
    is ``"fixed"`` (members are workload names from ``BENCHMARKS``)
    or ``"generated"`` (members are ``gen<seed>`` programs from
    :mod:`repro.workloads.generate`).
    """

    name: str
    description: str
    kind: str                       # "fixed" | "generated"
    members: Tuple[str, ...]
    seeds: Tuple[int, ...] = ()     # generated sets only
    quick: bool = False             # GenConfig.quick() for members

    def __post_init__(self) -> None:
        if self.kind not in ("fixed", "generated"):
            raise ValueError(f"unknown set kind {self.kind!r}")
        if not self.members:
            raise ValueError(f"set {self.name!r} has no members")
        if len(set(self.members)) != len(self.members):
            raise ValueError(f"set {self.name!r} has duplicate members")
        if self.kind == "generated" and \
                len(self.seeds) != len(self.members):
            raise ValueError(
                f"set {self.name!r}: seeds/members length mismatch")


_SETS: Dict[str, BenchmarkSet] = {}


def register_set(spec: BenchmarkSet) -> BenchmarkSet:
    """Register a set under its name; re-registration must be
    identical (idempotent) or it is an error."""
    existing = _SETS.get(spec.name)
    if existing is not None:
        if existing != spec:
            raise ValueError(
                f"benchmark set {spec.name!r} already registered "
                f"with different members")
        return existing
    _SETS[spec.name] = spec
    return spec


def benchmark_set(name: str) -> BenchmarkSet:
    """Resolve a registered set by name."""
    try:
        return _SETS[name]
    except KeyError:
        known = ", ".join(sorted(_SETS))
        raise KeyError(
            f"unknown benchmark set {name!r} (known: {known})"
        ) from None


def _generated_set(name: str, description: str, seeds: range,
                   quick: bool) -> BenchmarkSet:
    seed_tuple = tuple(seeds)
    return BenchmarkSet(
        name=name, description=description, kind="generated",
        members=tuple(f"gen{s}" for s in seed_tuple),
        seeds=seed_tuple, quick=quick)


#: the twelve hand-written SPEC-shaped workloads
register_set(BenchmarkSet(
    name="fixed12",
    description="the twelve SPEC-shaped fixed workloads",
    kind="fixed", members=BENCHMARKS))

#: small, fast generated corpus for CI smoke (fixed seeds)
register_set(_generated_set(
    "gen-smoke",
    "20 quick generated programs, fixed seeds 1000-1019 (CI smoke)",
    range(1000, 1020), quick=True))

#: the ISSUE-10 campaign corpus: >= 500 seeded programs
register_set(_generated_set(
    "gen-deep",
    "500 generated programs, seeds 1-500 (full differential sweep)",
    range(1, 501), quick=False))
