"""TinyC recursive-descent parser.

Covers the C subset the MCFI evaluation depends on: full declarator
syntax (function pointers, pointer-to-pointer, arrays), struct/union/
enum/typedef, switch (lowered to jump tables), variadic prototypes, and
both explicit casts and the initializer forms whose implicit casts the
C1 analyzer inspects.

Deliberate omissions (documented in DESIGN.md): the preprocessor,
bitfields, K&R definitions, computed goto, and local brace
initializers.  ``const``/``volatile``/``extern``/``static`` are parsed
and (except for ``static`` on functions) ignored.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import ParseError
from repro.tinyc import ast
from repro.tinyc.lexer import Token, tokenize
from repro.tinyc.types import (
    ArrayType,
    CHAR,
    DOUBLE,
    FuncType,
    INT,
    IntType,
    LONG,
    PointerType,
    SHORT,
    StructType,
    Type,
    TypeTable,
    UCHAR,
    UINT,
    ULONG,
    USHORT,
    VOID,
)

_TYPE_KEYWORDS = frozenset("""
    void char short int long unsigned signed double float
    struct union enum
""".split())

_QUALIFIERS = frozenset(["const", "volatile"])
_STORAGE = frozenset(["static", "extern", "typedef"])


class Parser:
    """One-translation-unit parser; reusable via :func:`parse`.

    ``types`` and ``enums`` seed the struct tags, typedef names and enum
    constants the parse starts from; ``enums`` is copied.
    """

    def __init__(self, source: str, name: str = "unit",
                 types: Optional[TypeTable] = None,
                 enums: Optional[Dict[str, int]] = None) -> None:
        self.tokens = tokenize(source)
        self.pos = 0
        self.name = name
        self.types = types if types is not None else TypeTable()
        self.enum_constants: Dict[str, int] = dict(enums or {})
        #: raise at any type definition (see :func:`parse_definition`)
        self.refuse_types = False
        #: a type was defined inside a function body
        #: (:attr:`repro.tinyc.ast.TranslationUnit.local_types`)
        self.local_types = False
        self._in_body = False

    # -- token plumbing ------------------------------------------------------

    def peek(self, ahead: int = 0) -> Token:
        # ``pos`` never passes the closing eof token (see advance)
        if ahead:
            return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]
        return self.tokens[self.pos]

    def advance(self) -> Token:
        token = self.tokens[self.pos]
        if token.kind != "eof":
            self.pos += 1
        return token

    def accept(self, kind: str, text: Optional[str] = None) -> Optional[Token]:
        token = self.tokens[self.pos]
        if token.kind == kind and (text is None or token.text == text):
            return self.advance()
        return None

    def expect(self, kind: str, text: Optional[str] = None) -> Token:
        token = self.accept(kind, text)
        if token is None:
            actual = self.peek()
            wanted = text or kind
            raise ParseError(f"expected {wanted!r}, found {actual.text!r}",
                             actual.line, actual.column)
        return token

    def at_type_start(self) -> bool:
        token = self.peek()
        if token.kind == "keyword" and (token.text in _TYPE_KEYWORDS or
                                        token.text in _QUALIFIERS or
                                        token.text in _STORAGE):
            return True
        return token.kind == "ident" and self.types.is_typedef(token.text)

    # -- top level -----------------------------------------------------------

    def parse_unit(self) -> ast.TranslationUnit:
        unit = ast.TranslationUnit(name=self.name)
        while self.peek().kind != "eof":
            self.parse_external(unit)
        unit.local_types = self.local_types
        return unit

    def parse_external(self, unit: ast.TranslationUnit) -> None:
        """Parse one top-level declaration or definition into ``unit``."""
        line = self.peek().line
        typedef = self.accept("keyword", "typedef")
        if typedef:
            self._define_type(typedef)
            base = self.parse_type_specifiers()
            name, ctype = self.parse_declarator(base)
            if not name:
                raise ParseError("typedef needs a name", line, 0)
            self.types.typedef(name, ctype)
            self.expect("op", ";")
            return
        is_static = False
        while True:
            if self.accept("keyword", "static"):
                is_static = True
            elif self.accept("keyword", "extern"):
                pass
            else:
                break
        base = self.parse_type_specifiers()
        if self.accept("op", ";"):
            return  # bare struct/union/enum definition
        while True:
            name, ctype = self.parse_declarator(base)
            if isinstance(ctype, FuncType):
                if self.peek().kind == "op" and self.peek().text == "{":
                    param_names = list(self._last_param_names)
                    self._in_body = True
                    body = self.parse_block()
                    self._in_body = False
                    unit.funcs.append(ast.FuncDef(
                        line=line, name=name, ftype=ctype,
                        param_names=param_names,
                        body=body, is_static=is_static))
                    return
                unit.decls.append(ast.FuncDecl(line=line, name=name,
                                               ftype=ctype))
            else:
                init = None
                if self.accept("op", "="):
                    init = self.parse_initializer()
                unit.globals.append(ast.GlobalVar(
                    line=line, name=name, ctype=ctype, init=init,
                    is_static=is_static))
            if self.accept("op", ","):
                continue
            self.expect("op", ";")
            return

    def parse_initializer(self):
        if self.peek().kind == "op" and self.peek().text == "{":
            self.advance()
            items = []
            if not (self.peek().kind == "op" and self.peek().text == "}"):
                while True:
                    items.append(self.parse_initializer())
                    if not self.accept("op", ","):
                        break
                    if self.peek().kind == "op" and self.peek().text == "}":
                        break  # trailing comma
            self.expect("op", "}")
            return items
        return self.parse_assignment()

    # -- types and declarators -------------------------------------------------

    def parse_type_specifiers(self) -> Type:
        """Parse the specifier part: base type + struct/union/enum defs."""
        token = self.peek()
        line = token.line
        while self.peek().kind == "keyword" and \
                self.peek().text in _QUALIFIERS:
            self.advance()
        token = self.peek()
        if token.kind == "ident" and self.types.is_typedef(token.text):
            self.advance()
            return self.types.typedefs[token.text]
        if token.kind != "keyword":
            raise ParseError(f"expected type, found {token.text!r}",
                             token.line, token.column)
        if token.text in ("struct", "union"):
            return self._parse_struct_or_union()
        if token.text == "enum":
            return self._parse_enum()
        # Primitive type: collect keywords.
        words: List[str] = []
        while self.peek().kind == "keyword" and \
                self.peek().text in _TYPE_KEYWORDS and \
                self.peek().text not in ("struct", "union", "enum"):
            words.append(self.advance().text)
        while self.peek().kind == "keyword" and \
                self.peek().text in _QUALIFIERS:
            self.advance()
        if not words:
            raise ParseError("expected type specifier", line, 0)
        return _primitive_of(words, line)

    def _define_type(self, token: Token) -> None:
        """Note a type definition before it is made: a typedef, an enum
        body, or a struct/union with a body or without a tag (whose
        ``__anon`` tag depends on the token position)."""
        if self.refuse_types:
            raise ParseError("type defined in a definition parsed against "
                             "its module's interface", token.line,
                             token.column)
        if self._in_body:
            self.local_types = True

    def _parse_struct_or_union(self) -> Type:
        keyword_token = self.advance()
        is_union = keyword_token.text == "union"
        tag_token = self.accept("ident")
        has_body = self.peek().kind == "op" and self.peek().text == "{"
        if tag_token is None or has_body:
            self._define_type(keyword_token)
        tag = tag_token.text if tag_token else f"__anon{self.pos}"
        struct = self.types.struct(tag, is_union=is_union)
        if has_body:
            self.advance()
            fields: List[Tuple[str, Type]] = []
            while not (self.peek().kind == "op" and self.peek().text == "}"):
                base = self.parse_type_specifiers()
                while True:
                    name, ctype = self.parse_declarator(base)
                    fields.append((name, ctype))
                    if not self.accept("op", ","):
                        break
                self.expect("op", ";")
            self.expect("op", "}")
            struct.define(fields)
        return struct

    def _parse_enum(self) -> Type:
        keyword_token = self.advance()
        self.accept("ident")  # optional tag (enums are just ints)
        if self.peek().kind == "op" and self.peek().text == "{":
            self._define_type(keyword_token)
            self.advance()
            next_value = 0
            while not (self.peek().kind == "op" and self.peek().text == "}"):
                name = self.expect("ident").text
                if self.accept("op", "="):
                    next_value = self._parse_constant_int()
                self.enum_constants[name] = next_value
                next_value += 1
                if not self.accept("op", ","):
                    break
            self.expect("op", "}")
        return INT

    def _parse_constant_int(self) -> int:
        negative = bool(self.accept("op", "-"))
        token = self.peek()
        if token.kind == "int" or token.kind == "char":
            self.advance()
            value = int(token.value)  # type: ignore[arg-type]
        elif token.kind == "ident" and token.text in self.enum_constants:
            self.advance()
            value = self.enum_constants[token.text]
        else:
            raise ParseError("expected integer constant", token.line,
                             token.column)
        return -value if negative else value

    def parse_declarator(self, base: Type) -> Tuple[str, Type]:
        """Parse a (possibly abstract) declarator over ``base``.

        Returns ``(name, type)``; ``name`` is "" for abstract
        declarators (casts, parameter types without names).
        """
        self._last_param_names: List[str] = []
        name, wrap = self._declarator_inner(base)
        return name, wrap(base)

    def _declarator_inner(self, base: Type) -> Tuple[str, Callable[[Type], Type]]:
        # Pointer prefix: applies closest to the base type.
        pointers = 0
        while self.accept("op", "*"):
            pointers += 1
            while self.peek().kind == "keyword" and \
                    self.peek().text in _QUALIFIERS:
                self.advance()

        token = self.peek()
        inner_wrap: Optional[Callable[[Type], Type]] = None
        name = ""
        if token.kind == "ident" and not self.types.is_typedef(token.text):
            name = self.advance().text
        elif token.kind == "op" and token.text == "(" and \
                self._is_grouping_paren():
            self.advance()
            name, inner_wrap = self._declarator_inner(base)
            self.expect("op", ")")

        # Suffixes: arrays and parameter lists, applied left-to-right.
        suffixes: List[Callable[[Type], Type]] = []
        while True:
            if self.accept("op", "["):
                if self.peek().kind == "op" and self.peek().text == "]":
                    length = 0
                else:
                    length = self._parse_constant_int()
                self.expect("op", "]")
                suffixes.append(
                    lambda t, n=length: ArrayType(element=t, length=n))
            elif self.peek().kind == "op" and self.peek().text == "(" and \
                    self._paren_is_params():
                self.advance()
                params, variadic, param_names = self._parse_params()
                if not inner_wrap and name:
                    self._last_param_names = param_names
                suffixes.append(
                    lambda t, p=tuple(params), v=variadic:
                    FuncType(ret=t, params=p, variadic=v))
            else:
                break

        def wrap(ctype: Type) -> Type:
            for _ in range(pointers):
                ctype = PointerType(pointee=ctype)
            for suffix in reversed(suffixes):
                ctype = suffix(ctype)
            if inner_wrap is not None:
                ctype = inner_wrap(ctype)
            return ctype

        return name, wrap

    def _is_grouping_paren(self) -> bool:
        """After a pointer prefix, is ``(`` a grouped declarator?

        It is, unless it starts a parameter list (i.e. the next token is
        a type, ``)``, or ``...``) — that case belongs to the suffix
        loop of the *enclosing* declarator.
        """
        after = self.peek(1)
        if after.kind == "op" and after.text in (")", "..."):
            return False
        if after.kind == "keyword" and (after.text in _TYPE_KEYWORDS or
                                        after.text in _QUALIFIERS):
            return False
        if after.kind == "ident" and self.types.is_typedef(after.text):
            return False
        return True

    def _paren_is_params(self) -> bool:
        return True  # suffix '(' always starts a parameter list

    def _parse_params(self) -> Tuple[List[Type], bool, List[str]]:
        # Parsing each parameter runs a nested declarator, which resets
        # _last_param_names; save/restore so an enclosing declarator's
        # parameter names survive (e.g. functions returning function
        # pointers: ``long (*pick(int up))(long)``).
        saved_names = list(getattr(self, "_last_param_names", []))
        params: List[Type] = []
        names: List[str] = []
        variadic = False
        if self.accept("op", ")"):
            self._last_param_names = saved_names
            return params, variadic, names
        if self.peek().kind == "keyword" and self.peek().text == "void" and \
                self.peek(1).kind == "op" and self.peek(1).text == ")":
            self.advance()
            self.expect("op", ")")
            self._last_param_names = saved_names
            return params, variadic, names
        while True:
            if self.accept("op", "..."):
                variadic = True
                break
            base = self.parse_type_specifiers()
            pname, ctype = self.parse_declarator(base)
            from repro.tinyc.types import decay
            params.append(decay(ctype))
            names.append(pname)
            if not self.accept("op", ","):
                break
        self.expect("op", ")")
        self._last_param_names = saved_names
        return params, variadic, names

    # -- statements ------------------------------------------------------------

    def parse_block(self) -> ast.Block:
        open_token = self.expect("op", "{")
        block = ast.Block(line=open_token.line)
        while not (self.peek().kind == "op" and self.peek().text == "}"):
            block.stmts.extend(self.parse_statement())
        self.expect("op", "}")
        return block

    def parse_statement(self) -> List[ast.Stmt]:
        """Parse one statement; returns a list (declarations may expand)."""
        token = self.peek()
        if token.kind == "op" and token.text == "{":
            return [self.parse_block()]
        if token.kind == "op" and token.text == ";":
            self.advance()
            return []
        if token.kind == "keyword":
            handler = {
                "if": self._parse_if, "while": self._parse_while,
                "do": self._parse_do, "for": self._parse_for,
                "return": self._parse_return, "switch": self._parse_switch,
            }.get(token.text)
            if handler is not None:
                return [handler()]
            if token.text == "break":
                self.advance()
                self.expect("op", ";")
                return [ast.Break(line=token.line)]
            if token.text == "continue":
                self.advance()
                self.expect("op", ";")
                return [ast.Continue(line=token.line)]
        if self.at_type_start():
            return self._parse_decl_stmt()
        expr = self.parse_expression()
        self.expect("op", ";")
        return [ast.ExprStmt(line=token.line, expr=expr)]

    def _parse_decl_stmt(self) -> List[ast.Stmt]:
        line = self.peek().line
        while self.peek().kind == "keyword" and \
                self.peek().text in _STORAGE:
            token = self.advance()
            if token.text == "typedef":
                self._define_type(token)
        base = self.parse_type_specifiers()
        out: List[ast.Stmt] = []
        while True:
            name, ctype = self.parse_declarator(base)
            init = None
            if self.accept("op", "="):
                if self.peek().kind == "op" and self.peek().text == "{":
                    raise ParseError(
                        "brace initializers are only supported for globals",
                        self.peek().line, self.peek().column)
                init = self.parse_assignment()
            out.append(ast.DeclStmt(line=line, name=name, ctype=ctype,
                                    init=init))
            if not self.accept("op", ","):
                break
        self.expect("op", ";")
        return out

    def _parse_if(self) -> ast.Stmt:
        token = self.advance()
        self.expect("op", "(")
        cond = self.parse_expression()
        self.expect("op", ")")
        then = ast.Block(stmts=self.parse_statement())
        other = None
        if self.accept("keyword", "else"):
            other = ast.Block(stmts=self.parse_statement())
        return ast.If(line=token.line, cond=cond, then=then, other=other)

    def _parse_while(self) -> ast.Stmt:
        token = self.advance()
        self.expect("op", "(")
        cond = self.parse_expression()
        self.expect("op", ")")
        body = ast.Block(stmts=self.parse_statement())
        return ast.While(line=token.line, cond=cond, body=body)

    def _parse_do(self) -> ast.Stmt:
        token = self.advance()
        body = ast.Block(stmts=self.parse_statement())
        self.expect("keyword", "while")
        self.expect("op", "(")
        cond = self.parse_expression()
        self.expect("op", ")")
        self.expect("op", ";")
        return ast.DoWhile(line=token.line, body=body, cond=cond)

    def _parse_for(self) -> ast.Stmt:
        token = self.advance()
        self.expect("op", "(")
        init: Optional[ast.Stmt] = None
        if not (self.peek().kind == "op" and self.peek().text == ";"):
            if self.at_type_start():
                stmts = self._parse_decl_stmt()
                init = ast.Block(stmts=stmts)
            else:
                init = ast.ExprStmt(expr=self.parse_expression())
                self.expect("op", ";")
        else:
            self.advance()
        cond = None
        if not (self.peek().kind == "op" and self.peek().text == ";"):
            cond = self.parse_expression()
        self.expect("op", ";")
        step = None
        if not (self.peek().kind == "op" and self.peek().text == ")"):
            step = self.parse_expression()
        self.expect("op", ")")
        body = ast.Block(stmts=self.parse_statement())
        return ast.For(line=token.line, init=init, cond=cond, step=step,
                       body=body)

    def _parse_return(self) -> ast.Stmt:
        token = self.advance()
        value = None
        if not (self.peek().kind == "op" and self.peek().text == ";"):
            value = self.parse_expression()
        self.expect("op", ";")
        return ast.Return(line=token.line, value=value)

    def _parse_switch(self) -> ast.Stmt:
        token = self.advance()
        self.expect("op", "(")
        expr = self.parse_expression()
        self.expect("op", ")")
        self.expect("op", "{")
        cases: List[ast.SwitchCase] = []
        current: Optional[ast.SwitchCase] = None
        while not (self.peek().kind == "op" and self.peek().text == "}"):
            if self.accept("keyword", "case"):
                value = self._parse_constant_int()
                self.expect("op", ":")
                current = ast.SwitchCase(line=token.line, value=value)
                cases.append(current)
                continue
            if self.accept("keyword", "default"):
                self.expect("op", ":")
                current = ast.SwitchCase(line=token.line, value=None)
                cases.append(current)
                continue
            if current is None:
                raise ParseError("statement before first case label",
                                 self.peek().line, self.peek().column)
            current.stmts.extend(self.parse_statement())
        self.expect("op", "}")
        return ast.Switch(line=token.line, expr=expr, cases=cases)

    # -- expressions -------------------------------------------------------------

    def parse_expression(self) -> ast.Expr:
        expr = self.parse_assignment()
        while self.accept("op", ","):
            right = self.parse_assignment()
            expr = ast.Comma(line=expr.line, left=expr, right=right)
        return expr

    _ASSIGN_OPS = {"=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=",
                   "<<=", ">>="}

    def parse_assignment(self) -> ast.Expr:
        left = self.parse_conditional()
        token = self.peek()
        if token.kind == "op" and token.text in self._ASSIGN_OPS:
            self.advance()
            value = self.parse_assignment()
            return ast.Assign(line=token.line, op=token.text, target=left,
                              value=value)
        return left

    def parse_conditional(self) -> ast.Expr:
        cond = self.parse_binary()
        if self.accept("op", "?"):
            then = self.parse_expression()
            self.expect("op", ":")
            other = self.parse_conditional()
            return ast.Cond(line=cond.line, cond=cond, then=then, other=other)
        return cond

    #: Binary operator -> precedence (higher binds tighter).  Every
    #: binary operator is left-associative.
    _BINARY_PRECEDENCE = {
        "||": 1, "&&": 2, "|": 3, "^": 4, "&": 5,
        "==": 6, "!=": 6, "<": 7, "<=": 7, ">": 7, ">=": 7,
        "<<": 8, ">>": 8, "+": 9, "-": 9, "*": 10, "/": 10, "%": 10,
    }

    def parse_binary(self, min_precedence: int = 1) -> ast.Expr:
        """Precedence climbing over :attr:`_BINARY_PRECEDENCE`: parse a
        unary operand, then fold in every following operator that binds
        at least as tightly as ``min_precedence``."""
        left = self.parse_unary()
        precedence_of = self._BINARY_PRECEDENCE
        tokens = self.tokens
        while True:
            token = tokens[self.pos]
            precedence = precedence_of.get(token.text) \
                if token.kind == "op" else None
            if precedence is None or precedence < min_precedence:
                return left
            self.advance()
            right = self.parse_binary(precedence + 1)
            left = ast.Binary(line=token.line, op=token.text, left=left,
                              right=right)

    def parse_unary(self) -> ast.Expr:
        token = self.peek()
        if token.kind == "op" and token.text in ("-", "!", "~", "*", "&",
                                                 "++", "--"):
            self.advance()
            operand = self.parse_unary()
            return ast.Unary(line=token.line, op=token.text, operand=operand)
        if token.kind == "keyword" and token.text == "sizeof":
            self.advance()
            if self.peek().kind == "op" and self.peek().text == "(" and \
                    self._paren_starts_type(1):
                self.advance()
                base = self.parse_type_specifiers()
                _, ctype = self.parse_declarator(base)
                self.expect("op", ")")
                return ast.SizeofType(line=token.line, query=ctype)
            operand = self.parse_unary()
            return ast.SizeofType(line=token.line, query=None,
                                  operand=operand)
        if token.kind == "op" and token.text == "(" and \
                self._paren_starts_type(1):
            self.advance()
            base = self.parse_type_specifiers()
            _, ctype = self.parse_declarator(base)
            self.expect("op", ")")
            operand = self.parse_unary()
            return ast.Cast(line=token.line, target_type=ctype,
                            operand=operand, explicit=True)
        return self.parse_postfix()

    def _paren_starts_type(self, ahead: int) -> bool:
        token = self.peek(ahead)
        if token.kind == "keyword" and (token.text in _TYPE_KEYWORDS or
                                        token.text in _QUALIFIERS):
            return True
        return token.kind == "ident" and self.types.is_typedef(token.text)

    def parse_postfix(self) -> ast.Expr:
        expr = self.parse_primary()
        while True:
            token = self.peek()
            if token.kind != "op":
                return expr
            if token.text == "(":
                self.advance()
                args: List[ast.Expr] = []
                if not (self.peek().kind == "op" and self.peek().text == ")"):
                    while True:
                        args.append(self.parse_assignment())
                        if not self.accept("op", ","):
                            break
                self.expect("op", ")")
                expr = ast.Call(line=token.line, callee=expr, args=args)
            elif token.text == "[":
                self.advance()
                index = self.parse_expression()
                self.expect("op", "]")
                expr = ast.Index(line=token.line, base=expr, index=index)
            elif token.text == ".":
                self.advance()
                name = self.expect("ident").text
                expr = ast.Member(line=token.line, base=expr, name=name,
                                  arrow=False)
            elif token.text == "->":
                self.advance()
                name = self.expect("ident").text
                expr = ast.Member(line=token.line, base=expr, name=name,
                                  arrow=True)
            elif token.text in ("++", "--"):
                self.advance()
                expr = ast.Unary(line=token.line, op=token.text,
                                 operand=expr, postfix=True)
            else:
                return expr

    def parse_primary(self) -> ast.Expr:
        token = self.peek()
        if token.kind == "int":
            self.advance()
            return ast.IntLit(line=token.line, value=int(token.value))
        if token.kind == "char":
            self.advance()
            return ast.IntLit(line=token.line, value=int(token.value))
        if token.kind == "float":
            self.advance()
            return ast.FloatLit(line=token.line, value=float(token.value))
        if token.kind == "str":
            self.advance()
            return ast.StrLit(line=token.line, value=bytes(token.value))
        if token.kind == "ident":
            self.advance()
            if token.text in self.enum_constants:
                return ast.IntLit(line=token.line,
                                  value=self.enum_constants[token.text])
            return ast.Ident(line=token.line, name=token.text)
        if token.kind == "op" and token.text == "(":
            self.advance()
            expr = self.parse_expression()
            self.expect("op", ")")
            return expr
        raise ParseError(f"unexpected token {token.text!r}", token.line,
                         token.column)


@contextmanager
def deep_nesting(error=ParseError):
    """Run a recursive frontend pass with room for deep nesting.

    Recursive descent needs stack proportional to expression nesting;
    raise the interpreter limit so deeply parenthesized programs parse.
    Nesting beyond even the raised limit is a *diagnostic*, not a
    crash: the ``RecursionError`` converts to a clean ``error``.
    """
    import sys
    limit = sys.getrecursionlimit()
    if limit < 20000:
        sys.setrecursionlimit(20000)
    try:
        yield
    except RecursionError:
        raise error("program nesting too deep") from None
    finally:
        sys.setrecursionlimit(limit)


def parse(source: str, name: str = "unit",
          types: Optional[TypeTable] = None) -> ast.TranslationUnit:
    """Parse TinyC source text into a :class:`TranslationUnit`."""
    with deep_nesting():
        return Parser(source, name=name, types=types).parse_unit()


def parse_definition(source: str, name: str = "unit",
                     types: Optional[TypeTable] = None,
                     enums: Optional[Dict[str, int]] = None) -> ast.FuncDef:
    """Parse ``source`` as exactly one function definition.

    ``types`` and ``enums`` seed what is in scope: the struct tags,
    typedef names and enum constants a module interface sees at the
    function's position (:class:`repro.toolchain.ModuleInterface`).
    Such a definition could not share a new type with its module, so
    defining one is a :class:`ParseError`, and so is any text that is
    not one function definition.
    """
    with deep_nesting():
        parser = Parser(source, name=name, types=types, enums=enums)
        parser.refuse_types = True
        unit = parser.parse_unit()
    if len(unit.funcs) != 1 or unit.decls or unit.globals:
        raise ParseError("expected exactly one function definition")
    return unit.funcs[0]


def _primitive_of(words: List[str], line: int) -> Type:
    """Map a bag of primitive type keywords to a TinyC type."""
    bag = set(words)
    unsigned = "unsigned" in bag
    bag.discard("unsigned")
    bag.discard("signed")
    if bag == {"void"}:
        return VOID
    if bag == {"char"}:
        return UCHAR if unsigned else CHAR
    if bag == {"short"} or bag == {"short", "int"}:
        return USHORT if unsigned else SHORT
    if bag in ({"long"}, {"long", "int"}, {"long", "long"},
               {"long", "long", "int"}):
        return ULONG if unsigned else LONG
    if bag in (set(), {"int"}):
        return UINT if unsigned else INT
    if bag in ({"double"}, {"float"}, {"long", "double"}):
        return DOUBLE
    raise ParseError(f"unsupported type {' '.join(words)!r}", line, 0)
