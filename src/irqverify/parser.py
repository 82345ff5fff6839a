"""Parser for the textual program format (`.irq` files).

Grammar sketch::

    program     := (global_decl | handler)*
    global_decl := "global" IDENT "=" INT ";"
    handler     := "handler" IDENT "priority" INT "{" stmt* "}"
    stmt        := IDENT "=" expr ";"
                 | "local" IDENT "=" expr ";"
                 | "assert" "(" cond ")" ";"
                 | "if" "(" cond_or_star ")" block ("else" block)?
                 | "while" "(" cond_or_star ")" block
                 | "havoc" IDENT ";"
                 | "skip" ";"
    cond        := expr REL expr          REL in { == != < <= > >= }
    expr        := affine arithmetic: +, -, unary -, constant * expr

Lexical rules: only space, tab, carriage return and newline separate tokens;
`//` starts a comment running to end of line. An identifier starts with a
letter (any Unicode letter) or `_` and goes on with letters, `_` and numeric
characters; an integer is a run of decimal digits (any Unicode decimal digit,
so `٣` reads as 3). Any other character, such as `²` outside an identifier, is
an `unexpected character` error. The lexer is one compiled pattern with one
group per class, and a token's kind is "ident", "int", "eof", or else the
keyword or punctuation text itself.

Multiplication is restricted to a constant literal times an expression so
every expression stays affine.
Locals are declared with `local name = expr;`, exactly once per handler, and
before any use on every path.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from .ir import (
    Add,
    Assert,
    Assign,
    CMP_OPS,
    Cmp,
    Cond,
    Const,
    Expr,
    Handler,
    Havoc,
    If,
    Mul,
    NONDET,
    Program,
    Skip,
    Stmt,
    Sub,
    VarRef,
    While,
)

_KEYWORDS = {"global", "handler", "priority", "local", "assert", "if", "else", "while", "havoc", "skip"}

# One alternative per lexical class; `bad` catches any other single character.
_TOKEN_RE = re.compile(r"""
      (?P<ws>[ \t\r]+)
    | (?P<comment>//[^\n]*)
    | (?P<newline>\n)
    | (?P<int>\d+)
    | (?P<word>\w+)
    | (?P<punct>==|!=|<=|>=|[<>=+\-*(){};])
    | (?P<bad>.)
""", re.VERBOSE)


class ParseError(Exception):
    """Syntax or well-formedness error, with a 1-based source position."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.message = message
        self.line = line
        self.col = col


class _Token(NamedTuple):
    kind: str  # "ident" | "int" | "eof", or the keyword or punctuation text itself
    text: str
    line: int
    col: int


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    line, line_start = 1, 0
    for m in _TOKEN_RE.finditer(text):
        group = m.lastgroup
        if group == "ws" or group == "comment":
            continue
        if group == "newline":
            line, line_start = line + 1, m.end()
            continue
        word = m.group()
        col = m.start() - line_start + 1
        if group == "word":
            # `\w` also matches digits that are not decimal, such as '²'
            if not (word[0].isalpha() or word[0] == "_"):
                raise ParseError(f"unexpected character {word[0]!r}", line, col)
            kind = word if word in _KEYWORDS else "ident"
        elif group == "int":
            kind = "int"
        elif group == "punct":
            kind = word
        else:
            raise ParseError(f"unexpected character {word!r}", line, col)
        tokens.append(_Token(kind, word, line, col))
    tokens.append(_Token("eof", "", line, len(text) - line_start + 1))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token], globals_: dict[str, int]):
        self.tokens = tokens
        self.pos = 0
        self.globals = globals_
        # Scope state for the handler currently being parsed.
        self.handler_locals: set[str] = set()
        self.assert_count = 0
        self.handler_name = ""

    # -- token plumbing ----------------------------------------------------

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        t = self.tokens[self.pos]
        self.pos += 1
        return t

    def fail(self, message: str, tok: _Token | None = None) -> ParseError:
        tok = tok or self.peek()
        return ParseError(message, tok.line, tok.col)

    def expect(self, kind: str) -> _Token:
        t = self.peek()
        if t.kind != kind:
            raise self.fail(f"expected {kind!r}, found {t.text!r}" if t.kind != "eof"
                            else f"expected {kind!r}, found end of input")
        return self.next()

    def at(self, kind: str) -> bool:
        return self.tokens[self.pos].kind == kind

    # -- program structure -------------------------------------------------

    def program(self) -> Program:
        handlers: list[Handler] = []
        handler_names: set[str] = set()
        global_order: list[tuple[str, int]] = []
        seen_globals: set[str] = set()
        while self.peek().kind != "eof":
            if self.at("global"):
                tok = self.next()
                name = self.expect("ident")
                self.expect("=")
                init = self.int_literal()
                self.expect(";")
                if name.text in seen_globals:
                    raise self.fail(f"duplicate global '{name.text}'", name)
                seen_globals.add(name.text)
                global_order.append((name.text, init))
            elif self.at("handler"):
                h = self.handler_decl()
                if h.name in handler_names:
                    raise self.fail(f"duplicate handler '{h.name}'")
                handler_names.add(h.name)
                handlers.append(h)
            else:
                raise self.fail("expected 'global' or 'handler' declaration")
        if not handlers:
            last = self.tokens[-1]
            raise ParseError("program declares no handlers", last.line, last.col)
        return Program(globals=tuple(global_order), handlers=tuple(handlers))

    def int_literal(self) -> int:
        neg = False
        if self.at("-"):
            self.next()
            neg = True
        value = self.int_value(self.expect("int"))
        return -value if neg else value

    def int_value(self, tok: _Token) -> int:
        try:
            return int(tok.text)
        except ValueError:  # beyond the interpreter's integer-string digit limit
            raise self.fail(f"integer literal too long ({len(tok.text)} digits)", tok) from None

    def handler_decl(self) -> Handler:
        self.expect("handler")
        name = self.expect("ident")
        self.expect("priority")
        pr_tok = self.peek()
        priority = self.int_literal()
        if priority < 0:
            raise self.fail("priority must be non-negative", pr_tok)
        self.handler_locals = set()
        self.assert_count = 0
        self.handler_name = name.text
        body = self.block(declared=set())
        return Handler(name=name.text, priority=priority, body=body)

    def block(self, declared: set[str]) -> tuple[Stmt, ...]:
        """Parse `{ stmt* }`; `declared` is the definitely-assigned local set."""
        self.expect("{")
        stmts: list[Stmt] = []
        while not self.at("}"):
            stmts.append(self.statement(declared))
        self.expect("}")
        return tuple(stmts)

    # -- statements ----------------------------------------------------------

    def statement(self, declared: set[str]) -> Stmt:
        t = self.peek()
        kind = t.kind
        if kind == "ident":
            name = self.next()
            self.expect("=")
            expr = self.expression(declared)
            self.expect(";")
            target = self.var_ref(name, declared, is_read=False)
            if not target.is_global and target.name not in declared:
                raise self.fail(f"local '{target.name}' assigned before declaration", name)
            return Assign(target, expr)
        if kind == "skip":
            self.next()
            self.expect(";")
            return Skip()
        if kind == "havoc":
            self.next()
            name = self.expect("ident")
            self.expect(";")
            return Havoc(self.var_ref(name, declared))
        if kind == "assert":
            self.next()
            self.expect("(")
            cond = self.comparison(declared)
            self.expect(")")
            self.expect(";")
            uid = f"{self.handler_name}#{self.assert_count}"
            self.assert_count += 1
            return Assert(cond, uid)
        if kind == "local":
            self.next()
            name = self.expect("ident")
            if name.text in self.globals:
                raise self.fail(f"local '{name.text}' shadows a global", name)
            if name.text in self.handler_locals:
                raise self.fail(f"duplicate local '{name.text}'", name)
            self.expect("=")
            expr = self.expression(declared)
            self.expect(";")
            self.handler_locals.add(name.text)
            declared.add(name.text)
            return Assign(VarRef(name.text, "local"), expr)
        if kind == "if":
            self.next()
            self.expect("(")
            cond = self.cond_or_star(declared)
            self.expect(")")
            then = self.block(set(declared))
            orelse: tuple[Stmt, ...] = ()
            if self.at("else"):
                self.next()
                orelse = self.block(set(declared))
            return If(cond, then, orelse)
        if kind == "while":
            self.next()
            self.expect("(")
            cond = self.cond_or_star(declared)
            self.expect(")")
            body = self.block(set(declared))
            return While(cond, body)
        if kind in _KEYWORDS:
            raise self.fail(f"unexpected keyword '{t.text}'")
        raise self.fail(f"expected a statement, found {t.text!r}")

    def var_ref(self, tok: _Token, declared: set[str], *, is_read: bool = True) -> VarRef:
        if tok.text in self.globals:
            return VarRef(tok.text, "global")
        if tok.text in self.handler_locals:
            if is_read and tok.text not in declared:
                raise self.fail(f"local '{tok.text}' may be uninitialized here", tok)
            return VarRef(tok.text, "local")
        raise self.fail(f"undeclared variable '{tok.text}'", tok)

    # -- conditions and expressions -------------------------------------------

    def cond_or_star(self, declared: set[str]) -> Cond:
        if self.at("*"):
            self.next()
            return NONDET
        return self.comparison(declared)

    def comparison(self, declared: set[str]) -> Cmp:
        left = self.expression(declared)
        t = self.peek()
        if t.kind not in CMP_OPS:
            raise self.fail("expected a comparison operator")
        self.next()
        right = self.expression(declared)
        return Cmp(t.kind, left, right)  # type: ignore[arg-type]

    def expression(self, declared: set[str]) -> Expr:
        e = self.term(declared)
        while self.peek().kind in ("+", "-"):
            op = self.next().kind
            rhs = self.term(declared)
            e = Add(e, rhs) if op == "+" else Sub(e, rhs)
        return e

    def term(self, declared: set[str]) -> Expr:
        e = self.factor(declared)
        while self.at("*"):
            star = self.next()
            rhs = self.factor(declared)
            if isinstance(e, Const):
                e = Mul(e.value, rhs)
            elif isinstance(rhs, Const):
                e = Mul(rhs.value, e)
            else:
                raise self.fail("non-affine expression: one multiplication operand must be a constant", star)
        return e

    def factor(self, declared: set[str]) -> Expr:
        t = self.next()
        kind = t.kind
        if kind == "ident":
            return self.var_ref(t, declared)
        if kind == "int":
            return Const(self.int_value(t))
        if kind == "-":
            inner = self.factor(declared)
            if isinstance(inner, Const):
                return Const(-inner.value)
            return Mul(-1, inner)
        if kind == "(":
            e = self.expression(declared)
            self.expect(")")
            return e
        raise self.fail(f"expected an expression, found {t.text!r}" if kind != "eof"
                        else "expected an expression, found end of input", t)


def _collect_globals(tokens: list[_Token]) -> dict[str, int]:
    """Pre-scan for top-level `global` declarations so handlers may precede them."""
    out: dict[str, int] = {}
    depth = 0
    i = 0
    while tokens[i].kind != "eof":
        kind = tokens[i].kind
        if kind == "{":
            depth += 1
        elif kind == "}":
            depth = max(0, depth - 1)
        elif depth == 0 and kind == "global":
            if tokens[i + 1].kind == "ident":
                name = tokens[i + 1].text
                if name not in out:
                    out[name] = 0  # real value filled in by the main pass
        i += 1
    return out


def parse_program(text: str) -> Program:
    """Parse source text into a well-formed program.

    Raises ParseError (with line and column) on syntax errors, duplicate
    names, undeclared variables, or non-affine expressions. The result always
    passes `validate` with no diagnostics.
    """
    tokens = _tokenize(text)
    globals_ = _collect_globals(tokens)
    return _Parser(tokens, globals_).program()


def parse_file(path: str) -> Program:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_program(fh.read())
