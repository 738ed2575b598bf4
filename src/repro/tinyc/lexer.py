"""TinyC lexer.

Produces a flat token list.  TinyC is a C subset: no preprocessor
(modules are standalone sources; shared declarations are injected by
the driver), C89-style tokens plus ``//`` comments.

One compiled master regex does the scanning: every position of the
source matches exactly one of its alternatives (a final catch-all
reports the unexpected character), so :func:`tokenize` is a single
loop over ``finditer`` that only dispatches on the alternative's name.

Column convention (``Token.column``, 1-based): operator tokens carry
the column of their first character; every other token (identifier,
keyword, number, character, string) carries the column just past its
last character.  ``eof`` carries column 1.  Diagnostics (``LexError``)
point at the first character of the offending construct.
"""

from __future__ import annotations

import re
from typing import List, NamedTuple

from repro.errors import LexError

KEYWORDS = frozenset("""
    void char short int long unsigned signed double float
    struct union enum typedef
    if else while do for return break continue switch case default
    sizeof static extern const volatile
""".split())

class Token(NamedTuple):
    kind: str        # 'ident' | 'keyword' | 'int' | 'float' | 'char' | 'str' | 'op' | 'eof'
    text: str
    line: int
    column: int
    value: object = None

    def __repr__(self) -> str:
        return f"Token({self.kind}, {self.text!r}, line {self.line})"


_ESCAPES = {"n": 10, "t": 9, "r": 13, "0": 0, "\\": 92, "'": 39, '"': 34}

_STRING_BODY = r'"(?:[^"\\\n]|\\.)*'

#: One alternative per token class, after optional blanks.  Whatever
#: no token alternative takes whole (an unterminated comment or literal,
#: a stray character) falls to the catch-all ``other``, and
#: :func:`_raise_at` diagnoses it.
_MASTER = re.compile(r"[ \t\r]*(?:" + "|".join((
    r"(?P<nl>\n)",
    r"(?P<ident>[A-Za-z_]\w*)",
    # longest match first; '/', '/=' and '.' come after the comment
    # and number alternatives they prefix
    r"(?P<op>[(){};,\[\]~?:]|<<=?|>>=?|->|\+\+|--|&&|\|\|"
    r"|[-+*%&|^=!<>]=?|\.\.\.)",
    r"(?P<number>0[xX][0-9a-fA-F]*[uUlL]*"
    r"|(?=\.?\d)\d*(?:\.\d*)?(?:[eE][+-]?\d*)?[uUlLfF]*)",
    r"(?P<comment>//[^\n]*|/\*.*?\*/)",
    r"(?P<slash>/=|/(?!\*)|\.)",
    r"(?P<char>'(?:\\.|[^\\\n])')",
    r"(?P<str>" + _STRING_BODY + '")',
    r"(?P<uident>[^\W\d]\w*)",
    r"(?P<other>.)",
    r"(?P<end>\Z)",  # trailing blanks
)) + ")", re.DOTALL)

_GROUP = _MASTER.groupindex
_NL, _IDENT, _OP, _NUMBER, _COMMENT, _SLASH, _CHAR, _STR, _UIDENT, _END = (
    _GROUP[name] for name in ("nl", "ident", "op", "number", "comment",
                              "slash", "char", "str", "uident", "end"))

_STRING_PREFIX = re.compile(_STRING_BODY, re.DOTALL)
_ESCAPE = re.compile(r"\\(.)", re.DOTALL)


def tokenize(source: str) -> List[Token]:
    """Tokenize TinyC source, raising :class:`LexError` on bad input."""
    tokens: List[Token] = []
    append = tokens.append
    new = tuple.__new__
    keywords = KEYWORDS
    line = 1
    line_start = 0
    for match in _MASTER.finditer(source):
        group = match.lastindex
        if group == _IDENT:
            text = match[_IDENT]
            append(new(Token, ("keyword" if text in keywords else "ident",
                               text, line, match.end() - line_start + 1,
                               None)))
        elif group == _OP or group == _SLASH:
            text = match[group]
            append(new(Token, ("op", text, line,
                               match.end() - len(text) - line_start + 1,
                               None)))
        elif group == _NL:
            line += 1
            line_start = match.end()
        elif group == _NUMBER:
            append(_number(match[_NUMBER], line,
                           match.start(_NUMBER) - line_start + 1,
                           match.end() - line_start + 1))
        elif group == _COMMENT:
            text = match[_COMMENT]
            newlines = text.count("\n")
            if newlines:
                line += newlines
                line_start = match.start(_COMMENT) + text.rindex("\n") + 1
        elif group == _CHAR:
            text = match[_CHAR]
            value = ord(text[1])
            if value == 92:  # backslash
                value = _escape(text[2], line,
                                match.start(_CHAR) - line_start + 1)
            append(new(Token, ("char", "'", line,
                               match.end() - line_start + 1, value)))
        elif group == _STR:
            append(new(Token, ("str", "<string>", line,
                               match.end() - line_start + 1,
                               _string_value(match[_STR][1:-1], line,
                                             match.start(_STR) - line_start
                                             + 1))))
        elif group == _UIDENT and match[_UIDENT][0].isalpha():
            # identifiers may hold any letter, as str.isalpha() defines it
            append(new(Token, ("ident", match[_UIDENT], line,
                               match.end() - line_start + 1, None)))
        elif group != _END:
            pos = match.start(group)
            _raise_at(source, pos, line, pos - line_start + 1)
    append(new(Token, ("eof", "", line, 1, None)))
    return tokens


def _number(text: str, line: int, start_col: int, end_col: int) -> Token:
    try:
        if text.isdigit():
            return Token("int", text, line, end_col, int(text))
        if text[1:2] in ("x", "X"):
            return Token("int", text, line, end_col,
                         int(text.rstrip("uUlL"), 16))
        stripped = text.rstrip("uUlLfF")
        if any(char in text for char in ".eEfF"):
            return Token("float", text, line, end_col, float(stripped))
        return Token("int", text, line, end_col, int(stripped, 10))
    except ValueError:
        raise LexError(f"malformed number {text!r}", line,
                       start_col) from None


def _escape(char: str, line: int, col: int) -> int:
    value = _ESCAPES.get(char)
    if value is None:
        raise LexError(f"bad escape \\{char}", line, col)
    return value


def _string_value(body: str, line: int, col: int) -> bytes:
    if "\\" in body:
        body = _ESCAPE.sub(lambda m: chr(_escape(m.group(1), line, col)),
                           body)
    try:
        return body.encode("latin-1")
    except UnicodeEncodeError:
        raise LexError("character out of range in string literal",
                       line, col) from None


def _raise_at(source: str, pos: int, line: int, col: int) -> None:
    """Raise the diagnostic for a construct the master regex could not
    take whole: an unterminated comment, character or string literal,
    or a character that starts no token."""
    if source.startswith("/*", pos):
        raise LexError("unterminated comment", line, col)
    char = source[pos]
    if char == "'":
        following = source[pos + 1:pos + 2]
        if following == "\n":
            raise LexError("newline in character literal", line, col)
        if following == "\\" and pos + 2 < len(source):
            _escape(source[pos + 2], line, col)
        raise LexError("unterminated character literal", line, col)
    if char == '"':
        prefix = _STRING_PREFIX.match(source, pos).group()
        for escape in _ESCAPE.finditer(prefix):
            _escape(escape.group(1), line, col)
        if pos + len(prefix) < len(source) and \
                source[pos + len(prefix)] == "\n":
            raise LexError("newline in string literal", line, col)
        raise LexError("unterminated string literal", line, col)
    raise LexError(f"unexpected character {char!r}", line, col)
