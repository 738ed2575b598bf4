"""Deterministic interleaving scheduler for SimVM threads.

The paper's key concurrency challenge — one thread executing check
transactions while another runs an update transaction — is reproduced
here with a seeded, deterministic scheduler.  Tasks are either CPU
threads (one instruction per step) or Python generators (the trusted
runtime's update transactions and the concurrent attacker perform one
atomic action per ``yield``).

Determinism makes every interleaving replayable from its seed, which the
property-based linearizability tests exploit: instead of hoping a race
fires on real hardware, we enumerate seeds.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Generator, List, Mapping, Optional

from repro.errors import CfiViolation, RuntimeError_, VMError
from repro.vm.cpu import CPU, ProgramExit, ThreadExit


class Task:
    """A schedulable unit: one atomic action per :meth:`step`.

    Liveness changes only through :attr:`alive`, which tells the task's
    scheduler to rebuild its run list.  A subclass sets ``self.alive``
    and must not shadow the property with a class attribute.
    """

    name = "task"
    _alive = True
    #: The scheduler this task was added to (see :meth:`Scheduler.add`).
    _scheduler: Optional["Scheduler"] = None

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        if "alive" in cls.__dict__:
            raise TypeError(f"{cls.__name__} shadows Task.alive; "
                            f"set self.alive instead")

    @property
    def alive(self) -> bool:
        return self._alive

    @alive.setter
    def alive(self, value: bool) -> None:
        self._alive = value
        if self._scheduler is not None:
            self._scheduler._stale = True

    def step(self) -> None:
        raise NotImplementedError


class CpuTask(Task):
    """A SimVM hardware thread; one step executes ``burst`` instructions.

    ``burst`` of 1 gives maximal interleaving (for race-condition tests);
    larger bursts model coarser time slices for performance runs.
    """

    def __init__(self, cpu: CPU, name: str = "cpu", burst: int = 1) -> None:
        self.cpu = cpu
        self.name = name
        self.burst = burst

    def step(self) -> None:
        try:
            for _ in range(self.burst):
                self.cpu.step()
        except ThreadExit:
            self.alive = False


class GeneratorTask(Task):
    """Wraps a generator; each ``yield`` boundary is one atomic step.

    Used for the trusted runtime's update transactions (each yield is at
    most one table-write batch) and the concurrent attacker (each yield
    is one memory corruption).
    """

    def __init__(self, generator: Generator[None, None, None],
                 name: str = "gen") -> None:
        self.generator = generator
        self.name = name

    def step(self) -> None:
        try:
            next(self.generator)
        except StopIteration:
            self.alive = False


@dataclass
class Outcome:
    """Result of a scheduler run."""

    exit_code: Optional[int] = None
    violation: Optional[CfiViolation] = None
    fault: Optional[Exception] = None
    ticks: int = 0
    faulting_task: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.violation is None and self.fault is None

    def describe(self) -> str:
        if self.violation is not None:
            return f"CFI violation: {self.violation}"
        if self.fault is not None:
            return f"fault in {self.faulting_task}: {self.fault}"
        return f"exit({self.exit_code})"


class Scheduler:
    """Seeded random interleaving of tasks.

    The program terminates when: the main thread's program calls exit
    (``ProgramExit``), a CFI check halts (``CfiViolation``), a task
    faults (any other ``VMError`` — a memory fault, a division by zero,
    an invalid instruction — or a ``RuntimeError_``), or ``max_ticks``
    is exceeded (``VMError``, raised).
    """

    def __init__(self, seed: int = 0,
                 weights: Optional[Mapping[str, float]] = None) -> None:
        """``weights`` biases task selection by task name (default 1.0
        each).  The fault plane uses this for adversarial
        interleavings: weighting an updater or attacker far above the
        victim thread concentrates scheduling on the windows where a
        race could admit a forged edge.  Selection stays seeded and
        fully deterministic."""
        self._rng = random.Random(seed)
        #: Every task added, in order; add one only through :meth:`add`.
        self.tasks: List[Task] = []
        self.weights = dict(weights) if weights else None
        # The run list is the live tasks in ``tasks`` order.  ``run``
        # keeps it between ticks, with the tasks' weights and their
        # total (0.0 picks uniformly), and rebuilds all three only once
        # ``_stale`` is set: by :meth:`add` or by a change of some
        # task's ``alive``.
        self._weights: List[float] = []
        self._total = 0.0
        self._stale = True
        #: Live tick counter, updated as :meth:`run` executes so tasks
        #: can read a logical clock mid-run (the table service stamps
        #: request submit/complete times with it).  Deterministic: it
        #: advances exactly once per scheduled step.
        self.ticks = 0

    def _refresh(self) -> List[Task]:
        """Rebuild the run list from ``tasks``."""
        self._stale = False
        live = [t for t in self.tasks if t.alive]
        self._total = 0.0
        if self.weights:
            self._weights = [max(0.0, self.weights.get(t.name, 1.0))
                             for t in live]
            self._total = sum(self._weights)
        return live

    def _pick(self, live: List[Task]) -> Task:
        if len(live) == 1:
            return live[0]
        if self._total <= 0.0:
            return live[self._rng.randrange(len(live))]
        point = self._rng.random() * self._total
        for task, weight in zip(live, self._weights):
            point -= weight
            if point < 0:
                return task
        return live[-1]

    def add(self, task: Task) -> Task:
        self.tasks.append(task)
        task._scheduler = self
        self._stale = True
        return task

    def add_cpu(self, cpu: CPU, name: str = "cpu", burst: int = 1) -> CpuTask:
        return self.add(CpuTask(cpu, name=name, burst=burst))  # type: ignore[return-value]

    def add_generator(self, generator: Generator[None, None, None],
                      name: str = "gen") -> GeneratorTask:
        return self.add(GeneratorTask(generator, name=name))  # type: ignore[return-value]

    def run(self, max_ticks: int = 10_000_000) -> Outcome:
        outcome = Outcome()
        self.ticks = 0
        self._stale = True
        live: List[Task] = []
        while self.ticks < max_ticks:
            if self._stale:
                live = self._refresh()
                if not live:
                    break
            task = self._pick(live)
            try:
                task.step()
            except ProgramExit as program_exit:
                outcome.exit_code = program_exit.code
                break
            except CfiViolation as violation:
                outcome.violation = violation
                outcome.faulting_task = task.name
                break
            except (VMError, RuntimeError_) as fault:
                outcome.fault = fault
                outcome.faulting_task = task.name
                break
            self.ticks += 1
        else:
            raise VMError(f"scheduler exceeded {max_ticks} ticks")
        outcome.ticks = self.ticks
        return outcome
