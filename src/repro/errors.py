"""Exception hierarchy for the MCFI reproduction.

Every error raised by this package derives from :class:`ReproError`, so
callers can catch one base class at the API boundary.  Sub-hierarchies
mirror the subsystems: the TinyC frontend, the virtual machine, the MCFI
runtime, and the verifier.

Every class carries a stable, kebab-case :attr:`~ReproError.code`
(machine-matchable across refactors that rename the Python class) and a
:meth:`~ReproError.to_dict` payload in the same shape the result-store
records use, so an error can land in a JSONL trace or a service
response without per-call-site marshalling.
"""

from __future__ import annotations

from typing import Any, Dict


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package.

    ``code`` is the stable wire identifier; subclasses override it and
    extend :meth:`to_dict` with their structured fields.
    """

    code = "repro-error"

    def to_dict(self) -> Dict[str, Any]:
        """JSONL-friendly payload: stable code + class name + message."""
        return {
            "code": self.code,
            "type": type(self).__name__,
            "message": str(self),
        }


# ---------------------------------------------------------------------------
# TinyC frontend
# ---------------------------------------------------------------------------

class TinyCError(ReproError):
    """Base class for TinyC frontend errors."""

    code = "tinyc"

    def __init__(self, message: str, line: int = 0, column: int = 0) -> None:
        self.line = line
        self.column = column
        if line:
            message = f"{line}:{column}: {message}"
        super().__init__(message)


class LexError(TinyCError):
    """Raised when the lexer encounters an invalid character or literal."""

    code = "tinyc-lex"


class ParseError(TinyCError):
    """Raised when the parser encounters a syntax error."""

    code = "tinyc-parse"


class TypeError_(TinyCError):
    """Raised when the type checker rejects a program.

    Named with a trailing underscore to avoid shadowing the builtin.
    """

    code = "tinyc-type"


#: What callers catch around a whole compile: every diagnostic the TinyC
#: frontend raises for malformed source — lex, parse, and type errors
#: alike, all carrying a source location.  The frontend's contract is
#: that *no* input text escalates past this (no ``RecursionError``, no
#: raw tracebacks); the corpus robustness suite property-tests it.
CompileError = TinyCError


# ---------------------------------------------------------------------------
# Code generation and assembly
# ---------------------------------------------------------------------------

class CodegenError(ReproError):
    """Raised when lowering or code generation cannot proceed."""

    code = "codegen"


class AssemblerError(ReproError):
    """Raised for unresolved labels, bad alignment, or operand overflow."""

    code = "assembler"


class EncodingError(ReproError):
    """Raised when an instruction cannot be encoded or decoded."""

    code = "encoding"


# ---------------------------------------------------------------------------
# Virtual machine
# ---------------------------------------------------------------------------

class VMError(ReproError):
    """Base class for virtual machine faults."""

    code = "vm"


class MemoryFault(VMError):
    """Raised for an access to unmapped memory or a protection violation."""

    code = "memory-fault"

    def __init__(self, address: int, kind: str, message: str = "") -> None:
        self.address = address
        self.kind = kind
        detail = f" ({message})" if message else ""
        super().__init__(f"memory fault: {kind} at {address:#x}{detail}")

    def to_dict(self) -> Dict[str, Any]:
        out = super().to_dict()
        out.update(address=self.address, kind=self.kind)
        return out


class InvalidInstruction(VMError):
    """Raised when the CPU fetches bytes that do not decode."""

    code = "invalid-instruction"


class CfiViolation(VMError):
    """Raised when an MCFI check transaction halts the program.

    The ``hlt`` at the end of a check transaction maps to this exception:
    an indirect branch attempted a transfer not permitted by the CFG.
    """

    code = "cfi-violation"

    def __init__(self, branch_address: int, target_address: int,
                 reason: str) -> None:
        self.branch_address = branch_address
        self.target_address = target_address
        self.reason = reason
        super().__init__(
            f"CFI violation: branch at {branch_address:#x} -> "
            f"{target_address:#x} ({reason})")

    def to_dict(self) -> Dict[str, Any]:
        out = super().to_dict()
        out.update(branch_address=self.branch_address,
                   target_address=self.target_address, reason=self.reason)
        return out


# ---------------------------------------------------------------------------
# MCFI runtime, linking and verification
# ---------------------------------------------------------------------------

class RuntimeError_(ReproError):
    """Base class for MCFI runtime errors (loading, syscalls, W^X)."""

    code = "runtime"


class WxViolation(RuntimeError_):
    """Raised when a mapping would be both writable and executable."""

    code = "wx-violation"


class TableIntegrityError(RuntimeError_):
    """Raised when the ID tables cannot be trusted any longer.

    Two escalation paths lead here: a check transaction exhausting its
    bounded retry budget under sustained version churn (instead of
    spinning forever), and a table audit finding an entry whose stored
    ID disagrees with the trusted ECN assignment (e.g. after a fault
    injection flipped a bit).  Both are fail-safe: the runtime halts or
    quarantines rather than risking a forged edge.
    """

    code = "table-integrity"

    def __init__(self, message: str, index: int | None = None,
                 retries: int | None = None) -> None:
        self.index = index
        self.retries = retries
        super().__init__(message)

    def to_dict(self) -> Dict[str, Any]:
        out = super().to_dict()
        out.update(index=self.index, retries=self.retries)
        return out


class ServiceBackpressure(RuntimeError_):
    """Raised when the table service's update queue is at capacity.

    The :class:`repro.service.coalescer.UpdateCoalescer` bounds its
    pending-request queue; a submitter seeing this error must yield and
    retry (cooperative backpressure) instead of growing the queue
    without bound while commits fall behind.
    """

    code = "service-backpressure"

    def __init__(self, pending: int, limit: int) -> None:
        self.pending = pending
        self.limit = limit
        super().__init__(
            f"update queue full ({pending}/{limit} pending)")

    def to_dict(self) -> Dict[str, Any]:
        out = super().to_dict()
        out.update(pending=self.pending, limit=self.limit)
        return out


class DeadlineExceeded(RuntimeError_):
    """Raised when a request's logical-clock deadline budget lapses.

    Deadlines are scheduler ticks (deterministic, never wall time); a
    request still queued or parked past its ``deadline_tick`` fails
    with this error instead of waiting out a stalled shard forever.
    """

    code = "deadline-exceeded"

    def __init__(self, request_id: str, deadline_tick: int,
                 now_tick: int) -> None:
        self.request_id = request_id
        self.deadline_tick = deadline_tick
        self.now_tick = now_tick
        super().__init__(
            f"request {request_id} missed deadline tick "
            f"{deadline_tick} (now {now_tick})")

    def to_dict(self) -> Dict[str, Any]:
        out = super().to_dict()
        out.update(request_id=self.request_id,
                   deadline_tick=self.deadline_tick,
                   now_tick=self.now_tick)
        return out


class InjectedFault(ReproError):
    """Raised by the fault-injection plane (:mod:`repro.faults`).

    Carries the fault point so recovery code and tests can assert
    exactly which phase failed.  Never raised in production paths
    unless a :class:`repro.faults.plane.FaultPlane` armed the point.
    """

    code = "injected-fault"

    def __init__(self, point: str, detail: str = "") -> None:
        self.point = point
        self.detail = detail
        suffix = f": {detail}" if detail else ""
        super().__init__(f"injected fault at {point!r}{suffix}")

    def to_dict(self) -> Dict[str, Any]:
        out = super().to_dict()
        out.update(point=self.point, detail=self.detail)
        return out


class LinkError(ReproError):
    """Raised by the static or dynamic linker (e.g. unresolved symbols)."""

    code = "link"


class VerificationError(ReproError):
    """Raised when the modular verifier rejects a module."""

    code = "verification"

    def __init__(self, message: str, address: int | None = None) -> None:
        self.address = address
        if address is not None:
            message = f"{message} (at {address:#x})"
        super().__init__(message)


class UnitVerificationError(VerificationError):
    """Raised when a compilation unit fails the binary verifier.

    The build-cache publish gate: a unit artifact is published to the
    on-disk cache only after the machine-code verifier proves its
    check transactions, store masks and alignment intact.  ``report``
    carries the full :class:`repro.analysis.binverify.VerifyReport`
    when available.
    """

    code = "unit-verification"

    def __init__(self, message: str, unit: str | None = None,
                 report: object = None) -> None:
        self.unit = unit
        self.report = report
        super().__init__(message)

    def to_dict(self) -> Dict[str, Any]:
        out = super().to_dict()
        out.update(unit=self.unit)
        return out


class CfgGenerationError(ReproError):
    """Raised when CFG generation fails (e.g. unknown symbol types)."""

    code = "cfg-generation"
