"""SimVM: deterministic virtual machine executing SimISA.

Provides paged memory with protections, the separate MCFI table region,
a cycle-counting CPU interpreter, a seeded interleaving scheduler for
multithreaded runs, the syscall ABI and the concurrent-attacker model.
"""

from repro.vm.memory import (
    CODE_BASE,
    CODE_LIMIT,
    DATA_BASE,
    DATA_LIMIT,
    PAGE_SIZE,
    STACK_BASE,
    STACK_LIMIT,
    Memory,
    TableMemory,
)
from repro.vm.cpu import CPU, ProgramExit, ThreadExit
from repro.vm.scheduler import (
    CpuTask,
    GeneratorTask,
    Outcome,
    Scheduler,
    Task,
)
from repro.vm import syscalls
from repro.vm import attacker

__all__ = [
    "CODE_BASE", "CODE_LIMIT", "DATA_BASE", "DATA_LIMIT", "PAGE_SIZE",
    "STACK_BASE", "STACK_LIMIT", "Memory", "TableMemory",
    "CPU", "ProgramExit", "ThreadExit",
    "CpuTask", "GeneratorTask", "Outcome", "Scheduler", "Task",
    "syscalls", "attacker",
]
