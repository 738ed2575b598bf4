"""`src/` keeps only what a path reaches.

A public definition in `src/repro` -- a module-level function, class or
UPPER_CASE constant, or a public method of a module-level class -- must
be named somewhere a real path runs: elsewhere in `src/`, in
`benchmarks/`, in `examples/` or in `.github/workflows/ci.yml`.  A use
is a `Name`, an attribute, an imported name or an identifier token of
a string literal.  A docstring is not a use, nor is a package
`__init__`'s re-export (its import line and its `__all__` entry), nor
anything inside the definition's own body.  What only tests reach is
either deleted or listed in `ALLOWED` with the reason tests need it.

Run `PYTHONPATH=src python -m tests.test_reachability` to list what the
check finds.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# Instruments and oracles the tests drive; nothing in src/ needs them.
ALLOWED = {
    "repro.vm.attacker.*":
        "the Sec. 4 attacker the attack tests drive",
    "repro.vm.memory.Memory.is_mapped":
        "W^X probe of the memory tests",
    "repro.vm.memory.Memory.is_writable":
        "W^X probe of the memory tests",
    "repro.vm.memory.Memory.is_executable":
        "W^X probe of the memory tests",
    "repro.vm.trace.BranchTracer.detach":
        "unhooks the tracer the conformance tests attach",
    "repro.vm.trace.ConformanceChecker":
        "checks executed branches against the CFG",
    "repro.vm.trace.ConformanceChecker.*":
        "checks executed branches against the CFG",
    "repro.vm.trace.site_map":
        "maps branch sites to the CFG for the conformance checker",
    "repro.core.transactions.tx_check":
        "the Python transcription of Fig. 4 the linearizability tests run",
    "repro.faults.injectors.faulty_job":
        "the pool's worker-fault instrument",
}

_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_CONSTANT = re.compile(r"[A-Z][A-Z0-9_]*")


def _docstrings(tree: ast.AST) -> set[int]:
    """ids of the Constant nodes that are docstrings."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                found.add(id(first.value))
    return found


def _reexports(tree: ast.AST) -> set[int]:
    """ids of an `__init__`'s import lines and `__all__` assignments."""
    found = set()
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            found.add(id(node))
        elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            if any(isinstance(t, ast.Name) and t.id == "__all__"
                   for t in targets):
                found.add(id(node))
    return found


def _uses(tree: ast.AST, skip: set[int]):
    """Yield (name, line) for every use in `tree` outside `skip`."""
    docs = _docstrings(tree)
    stack = [tree]
    while stack:
        node = stack.pop()
        if id(node) in skip:
            continue
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.alias):
            yield node.name.rsplit(".", 1)[-1], node.lineno
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and id(node) not in docs):
            for token in _IDENT.findall(node.value):
                yield token, node.lineno
        stack.extend(ast.iter_child_nodes(node))


def _is_public(name: str) -> bool:
    return not name.startswith("_")


def _lines(node: ast.AST) -> tuple:
    decorators = getattr(node, "decorator_list", [])
    return min([node.lineno] + [d.lineno for d in decorators]), \
        node.end_lineno


def _definitions(module: str, tree: ast.Module):
    """Yield (qualified name, bare name, first line, last line)."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    for node in tree.body:
        if isinstance(node, functions + (ast.ClassDef,)):
            if _is_public(node.name):
                yield (f"{module}.{node.name}", node.name, *_lines(node))
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, functions) and _is_public(item.name):
                    yield (f"{module}.{node.name}.{item.name}", item.name,
                           *_lines(item))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            for target in targets:
                if (isinstance(target, ast.Name)
                        and _CONSTANT.fullmatch(target.id)):
                    yield (f"{module}.{target.id}", target.id,
                           *_lines(node))


def _allowed(qualname: str, allowed) -> bool:
    return any(qualname == key or (key.endswith(".*")
                                   and qualname.startswith(key[:-1]))
               for key in allowed)


def unreached(root: Path, allowed=ALLOWED) -> list[str]:
    """Public definitions under `root/src/repro` that no path reaches.

    Each file is parsed once.  Uses are kept per name as (file, line)
    so a definition's own body can be left out.
    """
    root = Path(root)
    src = root / "src"
    uses: dict[str, list[tuple[str, int]]] = {}
    defs = []
    for path in sorted(src.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        rel = path.relative_to(src).with_suffix("")
        parts = list(rel.parts)
        is_init = parts[-1] == "__init__"
        if is_init:
            parts.pop()
        key = str(path)
        defs.extend((key, *d) for d in _definitions(".".join(parts), tree))
        skip = _reexports(tree) if is_init else set()
        for name, line in _uses(tree, skip):
            uses.setdefault(name, []).append((key, line))
    for base in ("benchmarks", "examples"):
        for path in sorted((root / base).rglob("*.py")):
            for name, _ in _uses(ast.parse(path.read_text()), set()):
                uses.setdefault(name, []).append(("", 0))
    ci = root / ".github" / "workflows" / "ci.yml"
    if ci.exists():
        for token in _IDENT.findall(ci.read_text()):
            uses.setdefault(token, []).append(("", 0))
    found = []
    for key, qualname, name, first, last in defs:
        if _allowed(qualname, allowed):
            continue
        if not any(path != key or not first <= line <= last
                   for path, line in uses.get(name, ())):
            found.append(qualname)
    return found


def test_every_public_definition_is_reached():
    assert unreached(ROOT) == []


def test_every_allowed_entry_names_a_definition():
    # Each entry still names a definition only tests reach; a stale
    # entry would exempt whatever later takes the name.
    everything = unreached(ROOT, allowed={})
    for key in ALLOWED:
        assert any(_allowed(q, {key: ""}) for q in everything), key


def _tree(tmp_path: Path, files: dict[str, str]) -> Path:
    for rel, text in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    return tmp_path


def test_string_literal_use_counts_and_docstring_does_not(tmp_path):
    root = _tree(tmp_path, {
        "src/repro/__init__.py": "",
        "src/repro/lib.py": (
            "def by_string():\n    pass\n\n"
            "def by_docstring():\n    pass\n\n"
            "def by_self():\n    return by_self()\n"),
        "src/repro/user.py": (
            '"""Calls by_docstring."""\n'
            "HANDLERS = {'repro.lib:by_string': None}\n"),
    })
    assert unreached(root, allowed={}) == [
        "repro.lib.by_docstring", "repro.lib.by_self", "repro.user.HANDLERS"]


def test_reexport_is_not_a_use_but_a_call_is(tmp_path):
    root = _tree(tmp_path, {
        "src/repro/__init__.py": "",
        "src/repro/pkg/__init__.py": (
            "from repro.pkg.mod import Exported, Called, Unused\n"
            "__all__ = ['Exported', 'Called', 'Unused']\n"),
        "src/repro/pkg/mod.py": (
            "class Exported:\n"
            "    def method(self):\n        pass\n\n"
            "class Called:\n    pass\n\n"
            "class Unused:\n    pass\n"),
        "benchmarks/bench_x.py": (
            "from repro.pkg import Exported\n"
            "Called().method()\n"),
    })
    assert unreached(root, allowed={}) == ["repro.pkg.mod.Unused"]


if __name__ == "__main__":
    for qualname in unreached(ROOT):
        print(qualname)
