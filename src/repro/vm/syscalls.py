"""SimVM syscall ABI.

The MCFI runtime "does not allow modules to directly invoke native
system calls.  Instead, it wraps system calls as API functions and
checks their arguments" (Sec. 7).  This module defines only the ABI —
numbers, register convention and string helpers; the trusted
implementation with argument checking lives in
:mod:`repro.runtime.services`.

Convention::

    rax = syscall number      r8, r9, r10 = arguments
    rax = return value
"""

from __future__ import annotations

from typing import Optional

from repro.vm.memory import Memory

SYS_EXIT = 1          # exit(code)                        never returns
SYS_WRITE = 2         # write(fd, buf, len) -> len
SYS_SBRK = 3          # sbrk(delta) -> old_break
SYS_TIME = 4          # time() -> current cycle count
SYS_THREAD_SPAWN = 5  # thread_spawn(fn, arg) -> tid
SYS_THREAD_EXIT = 6   # thread_exit()                     never returns
SYS_DLOPEN = 7        # dlopen(path_cstr) -> handle or 0
SYS_DLSYM = 8         # dlsym(handle, name_cstr) -> fn address or 0
SYS_MPROTECT = 9      # mprotect(addr, len, prot) -> 0 or -1
SYS_READ = 10         # read(fd, buf, len) -> bytes read
SYS_YIELD = 11        # sched_yield() -> 0
SYS_JIT = 12          # jit_compile(src_cstr, name_cstr) -> fn address
SYS_DLCLOSE = 13      # dlclose(handle) -> 0 or -1

#: mprotect protection bits.
PROT_READ = 1
PROT_WRITE = 2
PROT_EXEC = 4

SYSCALL_NAMES = {
    SYS_EXIT: "exit",
    SYS_WRITE: "write",
    SYS_SBRK: "sbrk",
    SYS_TIME: "time",
    SYS_THREAD_SPAWN: "thread_spawn",
    SYS_THREAD_EXIT: "thread_exit",
    SYS_DLOPEN: "dlopen",
    SYS_DLSYM: "dlsym",
    SYS_MPROTECT: "mprotect",
    SYS_READ: "read",
    SYS_YIELD: "yield",
    SYS_JIT: "jit_compile",
    SYS_DLCLOSE: "dlclose",
}


def read_cstring(memory: Memory, address: int, limit: int = 4096) -> bytes:
    """Read a NUL-terminated byte string from application memory."""
    out = bytearray()
    cursor = address
    while len(out) < limit:
        byte = memory.read_u8(cursor)
        if byte == 0:
            return bytes(out)
        out.append(byte)
        cursor += 1
    return bytes(out)


def read_text(memory: Memory, address: int,
              limit: int = 4096) -> Optional[str]:
    """Read a NUL-terminated UTF-8 string; None if it is not UTF-8.

    Guest strings name libraries, symbols and JIT source.  One that
    does not decode cannot name anything, so callers answer it with
    their failure value instead of raising.
    """
    try:
        return read_cstring(memory, address, limit).decode()
    except UnicodeDecodeError:
        return None
