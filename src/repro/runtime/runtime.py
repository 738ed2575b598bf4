"""The trusted MCFI runtime (paper Secs. 4 and 7).

Responsibilities, mirroring the paper's runtime:

* **Loading** — own the address space and map every module image,
  the program's and each library's, through one routine
  (:meth:`Runtime.map_module`): code is written while non-executable,
  every branch site's ``tload`` immediate is patched with its Bary
  table index, and only then is the code sealed readable+executable
  (never writable); data is written and its strings sealed read-only.
  Code stops being executable through one routine too
  (:meth:`Runtime.retire_code`), which also drops its decoded state.
* **CFG installation** — invoke the CFG generator on the program's
  merged auxiliary information and install the resulting ECNs into the
  ID tables (initial load is non-transactional: no threads run yet).
* **Syscall interposition** — programs never reach the host directly;
  every service checks its arguments (``mprotect`` cannot create
  writable+executable pages, ``write`` must reference readable memory).
* **Dynamic linking** — see :mod:`repro.linker.dynamic_linker`; the
  runtime provides the table-update machinery it drives.

Execution drivers:

* :meth:`Runtime.run` — fast single-threaded loop (Fig. 5 runs);
* :meth:`Runtime.run_scheduled` — interleaved multithreaded execution
  with optional extra tasks (Fig. 6's updater, attackers, dlopen).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.cfg.generator import Cfg, generate_cfg
from repro.core.tables import IdTables
from repro.core.transactions import UpdateLock
from repro.errors import (
    CfiViolation,
    MemoryFault,
    RuntimeError_,
    VMError,
    WxViolation,
)
from repro.linker.static_linker import LinkedProgram
from repro.module.module import DataLayout, McfiModule
from repro.obs import OBS
from repro.vm.cpu import CPU, ProgramExit, ThreadExit
from repro.vm.dispatch import DispatchCache
from repro.vm.memory import (
    CODE_LIMIT,
    DATA_LIMIT,
    Memory,
    PAGE_SIZE,
    STACK_BASE,
    STACK_LIMIT,
    TableMemory,
)
from repro.vm.scheduler import CpuTask, Outcome, Scheduler
from repro.vm import syscalls as sc

_STACK_SLOT = 0x40000  # 256 KiB of stack per thread


def _page_up(address: int) -> int:
    return (address + PAGE_SIZE - 1) & ~(PAGE_SIZE - 1)


#: Violation policies (how the runtime reacts to a CFI violation):
#: ``halt`` stops the program fail-safe (the paper's behaviour);
#: ``report`` records the violation and terminates only the offending
#: thread, letting the rest of the program keep running; ``quarantine``
#: additionally retires the module containing the violating branch
#: (seals its pages non-executable and zeroes its table entries).
VIOLATION_POLICIES = ("halt", "report", "quarantine")


@dataclass
class ViolationRecord:
    """One CFI violation observed under a non-halting policy."""

    thread: int
    branch_address: int
    target_address: int
    reason: str
    action: str                 # 'halt' | 'kill-thread' | 'quarantine'
    module: Optional[str] = None

    KIND = "violation"

    def to_dict(self) -> Dict[str, Any]:
        return {
            "thread": self.thread,
            "branch": self.branch_address,
            "target": self.target_address,
            "reason": self.reason,
            "action": self.action,
            "module": self.module,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ViolationRecord":
        return cls(thread=data["thread"],
                   branch_address=data["branch"],
                   target_address=data["target"],
                   reason=data["reason"], action=data["action"],
                   module=data.get("module"))


@dataclass
class RunResult:
    """Outcome of one program execution."""

    exit_code: Optional[int] = None
    output: bytes = b""
    cycles: int = 0
    instructions: int = 0
    violation: Optional[CfiViolation] = None
    fault: Optional[Exception] = None
    check_retries: int = 0
    updates: int = 0
    #: dynamic check-transaction attempts (Bary-table reads); the
    #: points-to devirtualization shrinks this by removing icall checks
    tx_checks: int = 0
    violations: List[ViolationRecord] = field(default_factory=list)
    quarantined: List[str] = field(default_factory=list)
    #: Per-run metrics delta (a :class:`repro.obs.Snapshot` dict) when
    #: observability was enabled during the run; None otherwise.
    obs: Optional[Dict[str, Any]] = None

    KIND = "run"

    @property
    def ok(self) -> bool:
        return self.violation is None and self.fault is None

    @property
    def status(self) -> str:
        if self.violation is not None:
            return "violation"
        if self.fault is not None:
            return "fault"
        return "ok"

    def to_dict(self) -> Dict[str, Any]:
        """One JSONL-friendly shape, shared by every result consumer.

        ``output`` is decoded as UTF-8 with replacement; exceptions are
        serialized structurally (type name + message), so the round
        trip through :meth:`from_dict` is faithful for JSON purposes
        even though exception identity is reconstructed best-effort.
        """
        out: Dict[str, Any] = {
            "kind": self.KIND,
            "status": self.status,
            "exit_code": self.exit_code,
            "cycles": self.cycles,
            "instructions": self.instructions,
            "output": self.output.decode("utf-8", errors="replace"),
        }
        if self.check_retries:
            out["check_retries"] = self.check_retries
        if self.tx_checks:
            out["tx_checks"] = self.tx_checks
        if self.updates:
            out["updates"] = self.updates
        if self.violation is not None:
            out["violation"] = {
                "branch": self.violation.branch_address,
                "target": self.violation.target_address,
                "reason": self.violation.reason,
            }
        if self.fault is not None:
            out["fault"] = {"type": type(self.fault).__name__,
                            "message": str(self.fault)}
        if self.violations:
            out["violations"] = [v.to_dict() for v in self.violations]
        if self.quarantined:
            out["quarantined"] = list(self.quarantined)
        if self.obs is not None:
            out["obs"] = self.obs
        return out

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "RunResult":
        violation = None
        raw = data.get("violation")
        if raw is not None:
            violation = CfiViolation(raw["branch"], raw["target"],
                                     raw["reason"])
        fault: Optional[Exception] = None
        raw = data.get("fault")
        if raw is not None:
            import repro.errors as _errors
            fault_cls = getattr(_errors, raw.get("type", ""),
                                RuntimeError_)
            try:
                fault = fault_cls(raw.get("message", ""))
            except TypeError:
                fault = RuntimeError_(raw.get("message", ""))
        return cls(
            exit_code=data.get("exit_code"),
            output=data.get("output", "").encode("utf-8"),
            cycles=data.get("cycles", 0),
            instructions=data.get("instructions", 0),
            violation=violation, fault=fault,
            check_retries=data.get("check_retries", 0),
            updates=data.get("updates", 0),
            tx_checks=data.get("tx_checks", 0),
            violations=[ViolationRecord.from_dict(v)
                        for v in data.get("violations", [])],
            quarantined=list(data.get("quarantined", [])),
            obs=data.get("obs"))


class _BlockableCpuTask(CpuTask):
    """A CPU task that can wait for a runtime operation (e.g. dlopen).

    Also the policy enforcement point: a CFI violation raised by this
    thread is routed through the runtime's violation handler, which
    either re-raises (halt policy) or retires the thread and lets the
    scheduler continue (report / quarantine policies).
    """

    def __init__(self, cpu: CPU, name: str, burst: int = 1,
                 runtime: Optional["Runtime"] = None) -> None:
        super().__init__(cpu, name=name, burst=burst)
        self.waiting = False
        self.runtime = runtime

    def step(self) -> None:
        if self.waiting:
            return
        try:
            super().step()
        except CfiViolation as violation:
            if self.runtime is None or \
                    not self.runtime._handle_violation(self.cpu, violation):
                raise
            self.alive = False


class Runtime:
    """Loads and executes one linked program."""

    def __init__(self, program: LinkedProgram, verify: bool = False,
                 bary_entries: int = 65536,
                 violation_policy: str = "halt") -> None:
        if violation_policy not in VIOLATION_POLICIES:
            raise RuntimeError_(
                f"unknown violation policy {violation_policy!r} "
                f"(known: {', '.join(VIOLATION_POLICIES)})")
        self.violation_policy = violation_policy
        self.violation_records: List[ViolationRecord] = []
        self.quarantined_modules: List[str] = []
        self.program = program
        self.enforce = program.mcfi
        self.memory = Memory()
        self.tables = TableMemory(bary_entries=bary_entries)
        self.id_tables = IdTables(self.tables)
        self.update_lock = UpdateLock()
        #: Decoded instructions, closures and blocks, shared by every
        #: CPU of this address space (see repro.vm.dispatch).
        self.dispatch_cache = DispatchCache()
        self.output = bytearray()
        self.cfg: Optional[Cfg] = None
        self.cpus: List[CPU] = []
        self._next_stack = STACK_LIMIT
        self._scheduler: Optional[Scheduler] = None
        self._tasks_by_cpu: Dict[int, _BlockableCpuTask] = {}
        self.loaded_libraries: Dict[str, object] = {}
        self.dynamic_linker = None  # attached by repro.linker.dynamic_linker
        self.jit_engine = None      # attached by repro.runtime.jit
        self._load(verify=verify)

    # -- the address space ------------------------------------------------------
    #
    #   [program code, code_cursor)     program code, then each library's
    #   [data.base, heap_base)          program data
    #   [heap_base, brk)                heap, grown up by sbrk
    #   [data_floor, DATA_LIMIT)        library data, placed top-down
    #
    # sbrk never moves the break above ``data_floor`` and a library's
    # data never goes below the break, so the two cannot alias.

    def _load(self, verify: bool) -> None:
        program = self.program
        data = program.data
        if data.base + data.size > DATA_LIMIT:
            raise RuntimeError_("program data exceeds the data region")
        # Globals, heap and library data share one read/write mapping.
        self.memory.map(data.base, DATA_LIMIT - data.base, readable=True,
                        writable=True)
        self.memory.map(STACK_BASE, STACK_LIMIT - STACK_BASE, readable=True,
                        writable=True)
        self.data_floor = DATA_LIMIT
        self.brk = program.heap_base
        self.map_module(program.module, data, verify=verify)
        if self.enforce:
            self.cfg = generate_cfg(program.module.aux)
            self.id_tables.install(self.cfg.tary_ecns, self.cfg.bary_ecns)

    def map_module(self, module: McfiModule, data: DataLayout,
                   verify: bool) -> None:
        """Map one module image at ``module.base`` and ``data.base``.

        W^X throughout: the code is written while writable but not
        executable, every Bary slot it declares is patched with its
        table index (a native image declares none), and only then is it
        sealed R+X.  The data is written last and its read-only prefix
        sealed.  ``verify`` runs the verifier first, before any byte is
        mapped.
        """
        if module.limit > CODE_LIMIT:
            raise RuntimeError_(f"{module.name}: code region exhausted")
        if verify and self.enforce:
            from repro.core.verifier import verify_module
            verify_module(module)
        code = bytearray(module.code)
        for site, offset in module.bary_slots.items():
            code[offset:offset + 4] = (4 * site).to_bytes(4, "little")
        memory = self.memory
        memory.map(module.base, len(code), readable=True, writable=True)
        memory.host_write(module.base, bytes(code))
        memory.protect(module.base, len(code), readable=True,
                       writable=False, executable=True)
        self.code_cursor = _page_up(module.limit)
        if data.image:
            memory.host_write(data.base, data.image)
        if data.rodata_end:
            memory.protect(data.base, data.rodata_end, readable=True,
                           writable=False)

    def reserve_data(self, size: int) -> int:
        """Place ``size`` bytes of library data below the lowest
        library's, above the heap break; return the base address."""
        if not size:
            return self.data_floor
        base = (self.data_floor - size) & ~(PAGE_SIZE - 1)
        if base < self.brk:
            raise RuntimeError_("data region exhausted by dlopen")
        self.data_floor = base
        return base

    def retire_code(self, lo: int, hi: int) -> None:
        """Seal ``[lo, hi)`` non-executable and drop its decoded state."""
        if lo < hi:
            self.memory.protect(lo, hi - lo, readable=True, writable=False,
                                executable=False)
            self.dispatch_cache.invalidate_range(lo, hi)

    def rewind(self, code_cursor: int, data_floor: int) -> None:
        """Hand back what was placed since the layout was
        ``(code_cursor, data_floor)``: the code is retired and the
        library data returned, zeroed and writable, to the heap."""
        self.retire_code(code_cursor, self.code_cursor)
        if data_floor > self.data_floor:
            size = data_floor - self.data_floor
            self.memory.protect(self.data_floor, size, readable=True,
                                writable=True)
            self.memory.host_write(self.data_floor, bytes(size))
        self.code_cursor = code_cursor
        self.data_floor = data_floor

    # -- thread management ---------------------------------------------------------

    def new_cpu(self, entry: int, args: Optional[List[int]] = None) -> CPU:
        cpu = CPU(self.memory, self.tables, syscall_handler=self.syscall,
                  thread_id=len(self.cpus),
                  dispatch_cache=self.dispatch_cache)
        cpu.rip = entry
        self._next_stack -= _STACK_SLOT
        if self._next_stack < STACK_BASE:
            raise RuntimeError_("out of stack space for new thread")
        stack_top = self._next_stack + _STACK_SLOT - 16
        self.memory.write_u64(stack_top, 0)  # poisoned return address
        cpu.regs[4] = stack_top  # RSP
        from repro.isa.registers import ARG_REGS
        for reg, value in zip(ARG_REGS, args or []):
            cpu.regs[reg] = value
        self.cpus.append(cpu)
        return cpu

    def main_cpu(self) -> CPU:
        if not self.cpus:
            self.new_cpu(self.program.entry)
        return self.cpus[0]

    # -- execution -------------------------------------------------------------------

    def run(self, max_steps: int = 200_000_000) -> RunResult:
        """Single-threaded fast path."""
        cpu = self.main_cpu()
        result = RunResult()
        before = OBS.metrics.snapshot() if OBS.enabled else None
        with OBS.tracer.span("runtime.run",
                             policy=self.violation_policy) as span:
            try:
                result.exit_code = cpu.run(max_steps=max_steps)
            except CfiViolation as violation:
                if self._handle_violation(cpu, violation):
                    # Non-halting policy: the (only) thread is retired
                    # but the run itself is not a fault — the violation
                    # shows up as a structured record, not an exception.
                    pass
                else:
                    result.violation = violation
            except (MemoryFault, VMError, RuntimeError_) as fault:
                result.fault = fault
            span.set(status=result.status)
        self._finish_result(result, before)
        result.cycles = cpu.cycles
        result.instructions = cpu.instructions
        result.tx_checks = cpu.tx_checks
        return result

    def run_scheduled(self, seed: int = 0, burst: int = 1,
                      max_ticks: int = 50_000_000,
                      extra_tasks: Optional[List] = None) -> RunResult:
        """Interleaved execution of all threads plus runtime tasks."""
        scheduler = Scheduler(seed=seed)
        self._scheduler = scheduler
        cpu = self.main_cpu()
        task = _BlockableCpuTask(cpu, name="main", burst=burst,
                                 runtime=self)
        scheduler.add(task)
        self._tasks_by_cpu[id(cpu)] = task
        for extra in extra_tasks or []:
            scheduler.add(extra)
        before = OBS.metrics.snapshot() if OBS.enabled else None
        with OBS.tracer.span("runtime.run_scheduled", seed=seed,
                             policy=self.violation_policy) as span:
            outcome: Outcome = scheduler.run(max_ticks=max_ticks)
            result = RunResult(
                exit_code=outcome.exit_code, violation=outcome.violation,
                fault=outcome.fault,
                cycles=sum(c.cycles for c in self.cpus),
                instructions=sum(c.instructions for c in self.cpus),
                tx_checks=sum(c.tx_checks for c in self.cpus))
            span.set(status=result.status, ticks=outcome.ticks)
        self._finish_result(result, before)
        return result

    def _finish_result(self, result: RunResult, before) -> None:
        """Shared epilogue: output, records, per-run metrics delta."""
        result.output = bytes(self.output)
        result.violations = list(self.violation_records)
        result.quarantined = list(self.quarantined_modules)
        if before is not None and OBS.enabled:
            result.obs = OBS.metrics.snapshot().delta(before).to_dict()

    # -- violation policy -------------------------------------------------------

    def _handle_violation(self, cpu: CPU,
                          violation: CfiViolation) -> bool:
        """Apply the violation policy; True if execution may continue.

        Under ``halt`` the violation propagates (paper behaviour).
        Under ``report`` the offending thread is retired and a
        structured record is kept.  Under ``quarantine`` the module
        containing the violating branch is additionally sealed
        non-executable and scrubbed from the ID tables, so no thread
        can re-enter it — the fail-safe middle ground between halting
        the world and ignoring the event.
        """
        if self.violation_policy == "halt":
            if OBS.enabled:
                OBS.metrics.counter("runtime.violations.halt").inc()
            return False
        action = "kill-thread"
        module_name = None
        if self.violation_policy == "quarantine":
            module_name = self._quarantine_module(violation.branch_address)
            if module_name is not None:
                action = "quarantine"
        if OBS.enabled:
            OBS.metrics.counter("runtime.violations." + action).inc()
        self.violation_records.append(ViolationRecord(
            thread=cpu.thread_id,
            branch_address=violation.branch_address,
            target_address=violation.target_address,
            reason=violation.reason, action=action, module=module_name))
        return True

    def _quarantine_module(self, branch_address: int) -> Optional[str]:
        """Retire the loaded library containing ``branch_address``.

        Only dynamically loaded modules are quarantined (retiring the
        main program is equivalent to halting); returns the module name
        or None if the branch lives in the main image.
        """
        linker = self.dynamic_linker
        if linker is None:
            return None
        for library in list(getattr(linker, "loaded", {}).values()):
            module = library.module
            if module.base <= branch_address < module.limit:
                if library.name not in self.quarantined_modules:
                    linker.quarantine(library.handle)
                    self.quarantined_modules.append(library.name)
                return library.name
        return None

    # -- syscall services --------------------------------------------------------------

    def syscall(self, cpu: CPU) -> None:
        # Every syscall is a quiescent point for this thread: it is not
        # inside a check transaction, so the ABA update counter may be
        # reset once all threads have quiesced (paper Sec. 5.2).
        cpu.quiescent_epoch = self.id_tables.updates_since_reset
        if self.id_tables.updates_since_reset and all(
                getattr(c, "quiescent_epoch", -1) ==
                self.id_tables.updates_since_reset for c in self.cpus):
            self.id_tables.aba_reset()
        number = cpu.regs[0]  # RAX
        arg0 = cpu.regs[8]    # R8
        arg1 = cpu.regs[9]    # R9
        arg2 = cpu.regs[10]   # R10
        if number == sc.SYS_EXIT:
            raise ProgramExit(arg0 & 0xFF)
        if number == sc.SYS_WRITE:
            data = self.memory.read_bytes(arg1, arg2)
            self.output += data
            cpu.regs[0] = arg2
            return
        if number == sc.SYS_SBRK:
            old = self.brk
            new = old + _signed64(arg0)
            if not self.program.data.base <= new <= self.data_floor:
                cpu.regs[0] = 0xFFFFFFFFFFFFFFFF  # -1: out of memory
                return
            self.brk = new
            cpu.regs[0] = old
            return
        if number == sc.SYS_TIME:
            cpu.regs[0] = cpu.cycles
            return
        if number == sc.SYS_THREAD_SPAWN:
            cpu.regs[0] = self._spawn_thread(arg0, arg1)
            return
        if number == sc.SYS_THREAD_EXIT:
            raise ThreadExit()
        if number == sc.SYS_MPROTECT:
            cpu.regs[0] = self._mprotect(arg0, arg1, arg2)
            return
        if number == sc.SYS_DLOPEN:
            cpu.regs[0] = self._dlopen(cpu, arg0)
            return
        if number == sc.SYS_DLSYM:
            cpu.regs[0] = self._dlsym(arg0, arg1)
            return
        if number == sc.SYS_YIELD:
            cpu.regs[0] = 0
            return
        if number == sc.SYS_JIT:
            from repro.runtime.jit import jit_compile_syscall
            jit_compile_syscall(self, cpu)
            return
        if number == sc.SYS_DLCLOSE:
            if self.dynamic_linker is None:
                cpu.regs[0] = 0xFFFFFFFFFFFFFFFF
                return
            code = self.dynamic_linker.dlclose(arg0, cpu)
            cpu.regs[0] = code & 0xFFFFFFFFFFFFFFFF
            return
        raise RuntimeError_(f"unknown syscall {number}")

    def _spawn_thread(self, entry_fn: int, arg: int) -> int:
        """Spawn a thread running libc's __thread_start(fn, arg)."""
        if self._scheduler is None:
            raise RuntimeError_(
                "thread_spawn requires run_scheduled (multithreaded mode)")
        start = self.program.labels.get("__thread_start")
        if start is None:
            raise RuntimeError_("program lacks __thread_start (link libc)")
        cpu = self.new_cpu(start, args=[entry_fn, arg])
        task = _BlockableCpuTask(cpu, name=f"thread{cpu.thread_id}",
                                 burst=self._tasks_by_cpu[
                                     id(self.cpus[0])].burst,
                                 runtime=self)
        self._scheduler.add(task)
        self._tasks_by_cpu[id(cpu)] = task
        return cpu.thread_id

    def _mprotect(self, address: int, size: int, prot: int) -> int:
        """W^X-checked mprotect (the paper's syscall interposition)."""
        writable = bool(prot & sc.PROT_WRITE)
        executable = bool(prot & sc.PROT_EXEC)
        if writable and executable:
            raise WxViolation(
                f"mprotect({address:#x}, {size:#x}): W+X mapping refused")
        # Application code may not change code-region protections (only
        # the trusted loader/dynamic linker does that, from the host side).
        if address < CODE_LIMIT:
            return 0xFFFFFFFFFFFFFFFF
        # Nor may it make data pages executable.
        if executable:
            return 0xFFFFFFFFFFFFFFFF
        try:
            self.memory.protect(address, size, readable=bool(
                prot & sc.PROT_READ), writable=writable,
                executable=executable)
        except MemoryFault:
            return 0xFFFFFFFFFFFFFFFF
        return 0

    def _dlopen(self, cpu: CPU, path_ptr: int) -> int:
        if self.dynamic_linker is None:
            return 0
        name = sc.read_text(self.memory, path_ptr)
        if name is None:
            return 0
        return self.dynamic_linker.dlopen(name, cpu)

    def _dlsym(self, handle: int, name_ptr: int) -> int:
        if self.dynamic_linker is None:
            return 0
        name = sc.read_text(self.memory, name_ptr)
        if name is None:
            return 0
        return self.dynamic_linker.dlsym(handle, name)


def _signed64(value: int) -> int:
    return value - (1 << 64) if value & (1 << 63) else value
