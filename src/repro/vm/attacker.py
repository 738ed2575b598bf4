"""The CFI concurrent-attacker model (Sec. 4, threat model).

The attacker is "a separate thread running in parallel with user
threads" that "can read and write any memory (subject to memory page
protection)" but cannot directly modify another thread's registers.

Attackers here are generator tasks for the scheduler: each ``yield``
boundary is one atomic corruption, so the attacker can strike *between
any two instructions* of the victim — exactly the paper's model.  The
canned strategies below implement the classic control-flow hijacks the
evaluation discusses: return-address smashing (ROP entry point) and
function-pointer overwrites (return-to-libc / jump-to-execve).
"""

from __future__ import annotations

from typing import Callable, Generator, Iterable, Optional, Tuple

from repro.errors import MemoryFault
from repro.vm.memory import Memory


def write_word_attacker(memory: Memory, address: int, value: int,
                        repeat: bool = True) -> Generator[None, None, None]:
    """Persistently write ``value`` at ``address`` (one write per step).

    With ``repeat`` the attacker keeps re-corrupting the slot, defeating
    time-of-check-to-time-of-use defenses that re-read memory (this is
    why MCFI's return instrumentation pops the address into a register
    *before* checking, rather than checking the stack slot).
    """
    while True:
        try:
            memory.write_u64(address, value)
        except MemoryFault:
            pass  # page not (yet) writable; the attacker keeps trying
        yield
        if not repeat:
            return


def conditional_attacker(memory: Memory,
                         trigger: Callable[[], bool],
                         writes: Iterable[Tuple[int, int]],
                         ) -> Generator[None, None, None]:
    """Wait for ``trigger()`` then perform ``(address, value)`` writes.

    Useful for attacks that must fire in a specific program phase, e.g.
    corrupting a function pointer after it has been initialized but
    before it is called.
    """
    while not trigger():
        yield
    for address, value in writes:
        try:
            memory.write_u64(address, value)
        except MemoryFault:
            pass
        yield


def table_tamper_attacker(tables, forged_id: int, index: int,
                          sink: Optional[list] = None,
                          ) -> Generator[None, None, "AttackReport"]:
    """Attempt to corrupt the ID tables directly, and report.

    The tables live outside the sandboxed address space, so application
    threads (and therefore the in-sandbox attacker) have *no* store
    instruction that can reach them.  The attacker observes one
    scheduler step and produces an :class:`AttackReport`: ``blocked``
    when the targeted entry still holds its original value, and
    ``hijacked`` when the forged ID landed (only possible for a
    privileged writer — a table-protection regression).  The report is
    the generator's return value and, since scheduler tasks discard
    return values, is also appended to ``sink`` when given.
    """
    before = tables.read_tary(index)
    yield
    after = tables.read_tary(index)
    hijacked = after != before and after == forged_id
    report = AttackReport(
        name="table-tamper", hijacked=hijacked, blocked=not hijacked,
        detail=(f"tary[{index}] forged to {after:#x}" if hijacked else
                f"tary[{index}] intact ({after:#x})"))
    if sink is not None:
        sink.append(report)
    return report


class AttackReport:
    """Outcome summary used by the security benchmarks."""

    KIND = "attack"

    def __init__(self, name: str, hijacked: bool, blocked: bool,
                 detail: str = "") -> None:
        self.name = name
        self.hijacked = hijacked
        self.blocked = blocked
        self.detail = detail

    def to_dict(self) -> dict:
        return {"name": self.name, "hijacked": self.hijacked,
                "blocked": self.blocked, "detail": self.detail}

    @classmethod
    def from_dict(cls, data: dict) -> "AttackReport":
        return cls(name=data["name"], hijacked=data["hijacked"],
                   blocked=data["blocked"], detail=data.get("detail", ""))

    def __repr__(self) -> str:
        status = "BLOCKED" if self.blocked else (
            "HIJACKED" if self.hijacked else "NO-EFFECT")
        return f"<AttackReport {self.name}: {status} {self.detail}>"
