"""Textual source index: top-level spans and body diffs.

The incremental frontend avoids re-parsing a whole module when one
function body changed: a lexical scan splits the source into top-level
spans (function definitions vs everything else), and two indexes are
diffed span-by-span.  The dirty spans are then parsed and checked
alone against the module's interface
(:class:`repro.toolchain.ModuleInterface`, itself parsed from the
spans with every function reduced to its declaration, ``head;``).

The scanner is deliberately conservative: anything it cannot classify
(unbalanced braces, code after the last definition) makes
:func:`index_source` return ``None`` and the caller falls back to the
full frontend.  Comments and string/char literals are skipped, so
braces inside them never confuse the span structure.

An edit of an indexed module is re-indexed by :func:`reindex_source`,
which rescans only the one function span the edit falls in; the full
scan stays for full rebuilds, as its fallback, and as its test oracle.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import List, Optional, Set


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
    if depth != 0 or not _blank(source[start:]):
        return None
    names = [span.name for span in spans if span.kind == "func"]
    if len(names) != len(set(names)):
        return None
    return spans


def _blank(text: str) -> bool:
    """Whether ``text`` holds nothing but whitespace and terminated
    comments (the scanner's own tokens, so a comment opener inside a
    string literal is not taken for one)."""
    end = 0
    for match in _EVENT.finditer(text):
        token = match.group()
        comment = token.startswith("//") or (
            token.startswith("/*") and len(token) >= 4
            and token.endswith("*/"))
        if not comment or text[end:match.start()].strip():
            return False
        end = match.end()
    return not text[end:].strip()


def reindex_source(old_source: str, old_spans: List[SourceSpan],
                   source: str) -> Optional[List[SourceSpan]]:
    """``index_source(source)`` for an edit of ``old_source``, whose index
    is ``old_spans``, rescanning only the one function span it edits.

    The spans that ``source`` still starts with are kept, and so is
    everything after the first span that differs, as long as ``source``
    ends with the text that followed that span in ``old_source``.  Only
    that span's new text is rescanned, and the result is accepted only
    when it is exactly one function span, the whole of that text, with
    the old head (hence the old name, so names stay unique).  Any other
    edit, including one in the text after the last span, gets the full
    scan.

    This is exact because a function head always ends in ``)`` before
    its ``{``, and the body is scanned at depth > 0.  So the only
    scanner state that crosses a function span's boundaries
    (``last_code``) is the same in both texts.  At the span's start the
    rescan differs from a full scan only in ``last_code``, and a span
    the rescan takes for a function set ``last_code`` from its own head
    before reading it.  At the span's end both scans stand at depth 0
    just after a ``}``, with ``last_code == ")"``.  A comment or literal
    left open in the span runs to the end of the rescanned text and
    swallows the closing ``}``, so the rescan rejects it.
    """
    offset = 0
    for index, span in enumerate(old_spans):
        text = span.text
        if not source.startswith(text, offset):
            break
        offset += len(text)
    else:
        return index_source(source)
    old_end = offset + len(text)
    new_end = len(source) - (len(old_source) - old_end)
    if span.kind == "func" and new_end >= offset \
            and source.endswith(old_source[old_end:]):
        region = source[offset:new_end]
        spans = index_source(region)
        if (spans is not None and len(spans) == 1
                and spans[0].kind == "func" and spans[0].head == span.head
                and spans[0].text == region):
            return old_spans[:index] + spans + old_spans[index + 1:]
    return index_source(source)


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
