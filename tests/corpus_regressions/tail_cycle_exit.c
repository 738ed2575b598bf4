// Regression: return edges through a tail-call cycle with an exit.
// On x64, a and b tail-call each other and b tail-calls c, so a
// call to a may return from c.  The tail closure used to memoize a
// function's closure while a cycle through it was still open; under
// some hash seeds the closure of a missed c, the return edge from c
// to main's return site was dropped, and the program halted with a
// CFI violation.
// expect-exit: 0
// expect-output: 101
long c(long n) { return n + 100; }
long b(long n);
long a(long n) { if (n <= 0) return 0; return b(n - 1); }
long b(long n) { if (n == 1) return c(n); return a(n); }
int main(void) { print_int(a(3)); print_char('\n'); return 0; }
