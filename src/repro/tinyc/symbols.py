"""Scoped symbol table for the TinyC checker."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.errors import TypeError_
from repro.tinyc.types import Type


@dataclass
class Symbol:
    name: str            # source name
    unique: str          # mangled unique name (locals/params)
    ctype: Type
    kind: str            # 'local' | 'param' | 'global' | 'func'


class SymbolTable:
    """Nested lexical scopes with unique renaming of locals.

    Locals are renamed ``name$k`` so that after checking, every local
    in a function has a distinct flat name — the MIR lowering then needs
    no scope handling of its own.
    """

    def __init__(self) -> None:
        self._scopes: List[Dict[str, Symbol]] = [{}]
        self._counter = 0

    def fork(self) -> "SymbolTable":
        """An independent copy: declaring into it never changes this one."""
        twin = SymbolTable()
        twin._scopes = [dict(scope) for scope in self._scopes]
        twin._counter = self._counter
        return twin

    def push(self) -> None:
        self._scopes.append({})

    def pop(self) -> None:
        self._scopes.pop()

    def declare(self, name: str, ctype: Type, kind: str,
                line: int = 0) -> Symbol:
        scope = self._scopes[-1]
        if name in scope and kind in ("local", "param"):
            raise TypeError_(f"redeclaration of {name!r}", line)
        if kind in ("local", "param"):
            self._counter += 1
            unique = f"{name}${self._counter}"
        else:
            unique = name
        symbol = Symbol(name=name, unique=unique, ctype=ctype, kind=kind)
        scope[name] = symbol
        return symbol

    def lookup(self, name: str) -> Optional[Symbol]:
        for scope in reversed(self._scopes):
            if name in scope:
                return scope[name]
        return None
