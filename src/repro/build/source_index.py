"""Textual source index: top-level spans, body diffs, stub templates.

The incremental frontend avoids re-parsing a whole module when one
function body changed: a lexical scan splits the source into top-level
spans (function definitions vs everything else), two indexes are
diffed span-by-span, and a *stub source* is built in which every clean
function's body is replaced by a declaration (``head;``).  Parsing and
type-checking the stub sees the same global declarations and signatures
— so the dirty functions' MIR is identical to a full compile — at a
fraction of the frontend cost.

The scanner is deliberately conservative: anything it cannot classify
(unbalanced braces, trailing garbage) makes :func:`index_source` return
``None`` and the caller falls back to the full frontend.  Comments and
string/char literals are skipped, so braces inside them never confuse
the span structure.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import List, Optional, Set, Tuple


@dataclass(frozen=True)
class SourceSpan:
    """One top-level construct: a function definition or anything else."""

    kind: str           # 'func' | 'other'
    name: str           # function name; '' for 'other'
    head: str           # text up to (not including) the body '{'
    body: str           # the brace group '{...}'; '' for 'other'

    @property
    def text(self) -> str:
        return self.head + self.body


_NAME_RE = re.compile(r"([A-Za-z_]\w*)\s*$")


#: The only characters the scanner acts on: braces, semicolons, and the
#: starts of comments and string/char literals (each skipped whole; an
#: unterminated one runs to the end of the source).  Everything between
#: two matches is plain code.
_EVENT = re.compile(r"""
    //[^\n]*\n?
  | /\*.*?(?:\*/|\Z)
  | "(?:[^"\\]|\\.)*(?:"|\\?\Z)
  | '(?:[^'\\]|\\.)*(?:'|\\?\Z)
  | [{};/]
""", re.DOTALL | re.VERBOSE)


def index_source(source: str) -> Optional[List[SourceSpan]]:
    """Split ``source`` into top-level spans; ``None`` if unclassifiable."""
    spans: List[SourceSpan] = []
    start = 0
    depth = 0
    body_start = -1
    last_code = ""      # last non-whitespace code character seen at depth 0
    code_from = 0       # depth-0 code not yet folded into last_code
    for match in _EVENT.finditer(source):
        i = match.start()
        if depth == 0:
            tail = source[code_from:i].rstrip()
            if tail:
                last_code = tail[-1]
        text = match.group()
        if text == "{":
            if depth == 0:
                body_start = i
            depth += 1
        elif text == "}":
            depth -= 1
            if depth < 0:
                return None
            if depth == 0:
                head = source[start:body_start]
                body = source[body_start:i + 1]
                if last_code == ")":
                    # a top-level brace group directly after a parameter
                    # list is a function body
                    paren = head.find("(")
                    if paren < 0:
                        return None
                    name = _NAME_RE.search(head[:paren])
                    if name is None:
                        return None
                    spans.append(SourceSpan("func", name.group(1),
                                            head, body))
                    start = i + 1
                # else: global initializer braces etc.: wait for the ';'
        elif text == ";":
            if depth == 0:
                spans.append(SourceSpan("other", "", source[start:i + 1],
                                        ""))
                start = i + 1
        elif text == "/" and depth == 0:
            last_code = "/"
        if depth == 0:
            code_from = match.end()
    if depth != 0 or source[start:].strip():
        return None
    names = [span.name for span in spans if span.kind == "func"]
    if len(names) != len(set(names)):
        return None
    return spans


def diff_bodies(old: List[SourceSpan],
                new: List[SourceSpan]) -> Optional[Set[str]]:
    """Names of functions whose text changed between two indexes.

    Only *body-local* edits qualify: the two indexes must have the same
    span structure (same kinds, names, order) with every 'other' span
    and every function head textually identical.  Anything structural —
    added/removed/reordered functions, a changed signature, an edited
    global — returns ``None`` and the caller rebuilds the module.
    """
    if len(old) != len(new):
        return None
    dirty: Set[str] = set()
    for old_span, new_span in zip(old, new):
        if old_span.kind != new_span.kind or old_span.name != new_span.name:
            return None
        if old_span.kind == "other":
            if old_span.head != new_span.head:
                return None
        else:
            if old_span.head != new_span.head:
                return None
            if old_span.body != new_span.body:
                dirty.add(new_span.name)
    return dirty


def stub_source(spans: List[SourceSpan], keep: Set[str]) -> str:
    """Rebuild the source with every function body *not* in ``keep``
    replaced by a declaration (``head;``)."""
    parts: List[str] = []
    for span in spans:
        if span.kind == "func" and span.name not in keep:
            parts.append(span.head.rstrip() + ";\n")
        else:
            parts.append(span.text)
    return "".join(parts)
