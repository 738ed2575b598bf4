"""``python -m repro`` — the umbrella command-line interface.

One front door for the tool CLIs, with the shared flags hoisted to the
top level::

    python -m repro [--jobs N] [--cache-dir PATH] [--seed N]
                    [--trace PATH] <command> [tool args...]

    python -m repro spec fig5 --benchmarks gcc lbm --jobs 4
    python -m repro infra run --benchmarks libquantum bzip2
    python -m repro --trace trace.jsonl spec table1
    python -m repro obs demo --seed 0

Each subcommand delegates to the matching ``repro.tools.<command>``
module, whose ``python -m repro.tools.<command>`` entry point keeps
working unchanged — those modules *are* the implementations; this
module only hoists the shared flags and forwards them to the
subcommands that understand them:

* ``--jobs``/``--cache-dir`` are appended for the tools (and tool
  subcommands) that accept them, unless already given after the
  command.
* ``--cache-dir`` also configures the process-wide artifact cache, so
  it takes effect even for tools without their own flag.
* ``--seed`` forwards as ``--seeds N`` to ``faults campaign`` and as
  ``--seed N`` to ``obs demo``.
* ``--trace PATH`` enables :mod:`repro.obs` around the whole command
  (seeded by ``--seed`` when given) and exports the JSONL trace after
  it returns.  The tool's stdout is untouched — the one extra line
  goes to stderr.  ``obs`` subcommands manage tracing themselves and
  are never wrapped.
"""

from __future__ import annotations

import argparse
import importlib
import sys
from typing import Callable, List, Optional

#: subcommand -> repro.tools module name (all expose ``main(argv)``)
TOOLS = {
    "spec": "spec",
    "build": "build",
    "infra": "infra",
    "faults": "faults",
    "obs": "obs",
    "cc": "cc",
    "objdump": "objdump",
    "analyze": "analyze",
    "corpus": "corpus",
    "gadgets": "gadgets",
    "lint": "lint",
    "service": "service",
    "verify": "verify",
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="MCFI reproduction toolbox (umbrella CLI)",
        epilog="Run 'python -m repro <command> --help' for tool help.")
    parser.add_argument("--jobs", type=int, default=None, metavar="N",
                        help="parallel workers, forwarded to commands "
                             "that fan out")
    parser.add_argument("--cache-dir", default=None, metavar="PATH",
                        help="artifact cache directory (configures the "
                             "process-wide cache and is forwarded)")
    parser.add_argument("--seed", type=int, default=None, metavar="N",
                        help="determinism seed, forwarded to seeded "
                             "commands; also seeds --trace")
    parser.add_argument("--trace", default=None, metavar="PATH",
                        help="trace the whole command with repro.obs "
                             "and export JSONL here")
    parser.add_argument("command", choices=sorted(TOOLS),
                        help="tool to run")
    parser.add_argument("rest", nargs=argparse.REMAINDER,
                        help="arguments for the tool")
    return parser


def _load(command: str) -> Callable[[Optional[List[str]]], int]:
    module = importlib.import_module(f"repro.tools.{TOOLS[command]}")
    return module.main


def _has_flag(rest: List[str], flag: str) -> bool:
    return any(arg == flag or arg.startswith(flag + "=")
               for arg in rest)


def tool_argv(args: argparse.Namespace) -> List[str]:
    """The tool's argv: ``rest`` plus the shared flags it understands."""
    rest = list(args.rest)
    sub = rest[0] if rest and not rest[0].startswith("-") else None

    def add(flag: str, value: object) -> None:
        if value is not None and not _has_flag(rest, flag):
            rest.extend([flag, str(value)])

    if args.command == "spec":
        add("--jobs", args.jobs)
        add("--cache-dir", args.cache_dir)
    elif args.command == "build":
        add("--cache-dir", args.cache_dir)
    elif args.command == "infra":
        if sub in ("build", "run"):
            add("--jobs", args.jobs)
        add("--cache-dir", args.cache_dir)
    elif args.command == "faults":
        if sub == "campaign":
            add("--jobs", args.jobs)
            add("--seeds", args.seed)
    elif args.command == "verify":
        add("--cache-dir", args.cache_dir)
    elif args.command == "corpus":
        if sub == "run":
            add("--jobs", args.jobs)
            add("--cache-dir", args.cache_dir)
        elif sub in ("minimize", "generate"):
            add("--seed", args.seed)
    elif args.command == "obs":
        if sub == "demo":
            add("--seed", args.seed)
            add("--out", args.trace)
    elif args.command == "service":
        if sub in ("run", "scale", "trace", "chaos"):
            add("--seed", args.seed)
    return rest


def main(argv: List[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.cache_dir:
        from repro.infra.campaign import configure
        configure(args.cache_dir)
    run = _load(args.command)

    tracing = args.trace is not None and args.command != "obs"
    if not tracing:
        return run(tool_argv(args))

    from repro import obs
    obs.enable(seed=args.seed)
    try:
        code = run(tool_argv(args))
    finally:
        path = obs.export_trace(args.trace)
        spans = len(obs.OBS.tracer.spans)
        obs.disable()
        print(f"[obs] {spans} spans -> {path}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
