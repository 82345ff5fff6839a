"""Core IR for interrupt-driven programs.

A program is a set of integer global variables plus a set of interrupt
handlers. Every handler has a non-negative integer priority: a handler may
preempt another only if its priority is strictly higher, and handlers with
equal priority never preempt each other. The main routine, if any, is modeled
as just another handler (by convention the lowest priority one).

Handler bodies are structured statements (sequences, branches, loops) over
affine integer expressions. All values are unbounded mathematical integers.
Locals are scoped to one handler invocation and must be initialized at their
declaration; globals carry an explicit initial value.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Literal, Union

# ---------------------------------------------------------------------------
# Expressions and conditions
# ---------------------------------------------------------------------------

VarKind = Literal["global", "local"]


@dataclass(frozen=True)
class VarRef:
    """A resolved variable reference; `kind` says whether it names a global."""

    name: str
    kind: VarKind

    @property
    def is_global(self) -> bool:
        return self.kind == "global"


@dataclass(frozen=True)
class Const:
    value: int


@dataclass(frozen=True)
class Add:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Sub:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Mul:
    """Multiplication by a compile-time constant; keeps expressions affine."""

    coeff: int
    arg: "Expr"


Expr = Union[Const, VarRef, Add, Sub, Mul]

CmpOp = Literal["==", "!=", "<", "<=", ">", ">="]

CMP_OPS: tuple[CmpOp, ...] = ("==", "!=", "<", "<=", ">", ">=")

NEGATED: dict[str, CmpOp] = {
    "==": "!=",
    "!=": "==",
    "<": ">=",
    "<=": ">",
    ">": "<=",
    ">=": "<",
}


@dataclass(frozen=True)
class Cmp:
    op: CmpOp
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Nondet:
    """The `*` condition: both outcomes are possible, nothing is read."""


NONDET = Nondet()

Cond = Union[Cmp, Nondet]


def negate_cond(cond: Cond) -> Cond:
    if isinstance(cond, Nondet):
        return cond
    return Cmp(NEGATED[cond.op], cond.left, cond.right)


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Assign:
    target: VarRef
    expr: Expr


@dataclass(frozen=True)
class Assume:
    """Branch-arm filter. Never written in source; produced by CFG lowering."""

    cond: Cond


@dataclass(frozen=True)
class Assert:
    cond: Cmp
    uid: str


@dataclass(frozen=True)
class Havoc:
    target: VarRef


@dataclass(frozen=True)
class Skip:
    pass


@dataclass(frozen=True)
class If:
    cond: Cond
    then: tuple["Stmt", ...]
    orelse: tuple["Stmt", ...] = ()


@dataclass(frozen=True)
class While:
    cond: Cond
    body: tuple["Stmt", ...]


Stmt = Union[Assign, Assume, Assert, Havoc, Skip, If, While]

#: Statements that survive CFG lowering, one per node.
Instr = Union[Assign, Assume, Assert, Havoc, Skip]


@dataclass(frozen=True)
class Handler:
    name: str
    priority: int
    body: tuple[Stmt, ...]


@dataclass(frozen=True)
class Program:
    globals: tuple[tuple[str, int], ...]
    handlers: tuple[Handler, ...]

    def global_names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.globals)

    def initial_env(self) -> dict[str, int]:
        return dict(self.globals)

    def handler(self, name: str) -> Handler:
        for h in self.handlers:
            if h.name == name:
                return h
        raise KeyError(name)


# ---------------------------------------------------------------------------
# Structural queries
# ---------------------------------------------------------------------------


def expr_vars(e: Expr) -> Iterator[VarRef]:
    if isinstance(e, VarRef):
        yield e
    elif isinstance(e, (Add, Sub)):
        yield from expr_vars(e.left)
        yield from expr_vars(e.right)
    elif isinstance(e, Mul):
        yield from expr_vars(e.arg)


def cond_vars(c: Cond) -> Iterator[VarRef]:
    if isinstance(c, Cmp):
        yield from expr_vars(c.left)
        yield from expr_vars(c.right)


def instr_reads(ins: Instr) -> Iterator[VarRef]:
    """Variables whose value the instruction observes."""
    if isinstance(ins, Assign):
        yield from expr_vars(ins.expr)
    elif isinstance(ins, Assume):
        yield from cond_vars(ins.cond)
    elif isinstance(ins, Assert):
        yield from cond_vars(ins.cond)


def instr_write(ins: Instr) -> VarRef | None:
    """The variable the instruction writes, if any."""
    if isinstance(ins, (Assign, Havoc)):
        return ins.target
    return None


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Diagnostic:
    code: str
    message: str
    where: str

    def __str__(self) -> str:
        return f"{self.where}: {self.message} [{self.code}]"


def validate(program: Program) -> list[Diagnostic]:
    """Check every structural invariant; an empty list means well-formed.

    Covers: at least one handler, unique global/handler names, non-negative
    priorities, consistent global/local variable kinds, locals assigned before
    use on every path, unique assertion ids, and no lowering-internal
    statements (assume) in source bodies.
    """
    out: list[Diagnostic] = []
    global_names = set()
    for name, _ in program.globals:
        if name in global_names:
            out.append(Diagnostic("duplicate-global", f"global '{name}' declared twice", "program"))
        global_names.add(name)

    if not program.handlers:
        out.append(Diagnostic("no-handlers", "program declares no handlers", "program"))

    handler_names = set()
    assert_ids = set()
    for h in program.handlers:
        where = f"handler {h.name}"
        if h.name in handler_names:
            out.append(Diagnostic("duplicate-handler", f"handler '{h.name}' declared twice", "program"))
        handler_names.add(h.name)
        if h.priority < 0:
            out.append(Diagnostic("negative-priority", "priority must be non-negative", where))
        _check_body(h.body, set(), set(), global_names, assert_ids, where, out)
    return out


def _check_var(v: VarRef, definite: set[str], global_names: set[str], where: str,
               out: list[Diagnostic], *, is_read: bool) -> None:
    if v.is_global:
        if v.name not in global_names:
            out.append(Diagnostic("undeclared-variable", f"'{v.name}' is not a declared global", where))
    else:
        if v.name in global_names:
            out.append(Diagnostic("kind-mismatch", f"'{v.name}' is a global but marked local", where))
        elif is_read and v.name not in definite:
            out.append(Diagnostic("use-before-init",
                                  f"local '{v.name}' may be read before initialization", where))


def _check_body(stmts: tuple[Stmt, ...], definite: set[str], declared: set[str],
                global_names: set[str], assert_ids: set[str], where: str,
                out: list[Diagnostic]) -> set[str]:
    """Definite-assignment walk; returns the locals assigned on every path.

    The first assignment to a local (in document order) acts as its
    declaration; every later assignment or read must be dominated by it, so
    the pretty-printed form re-parses to the same program.
    """
    for st in stmts:
        if isinstance(st, Assign):
            for v in expr_vars(st.expr):
                _check_var(v, definite, global_names, where, out, is_read=True)
            _check_var(st.target, definite, global_names, where, out, is_read=False)
            if not st.target.is_global:
                name = st.target.name
                if name not in declared:
                    declared.add(name)
                    definite.add(name)
                elif name not in definite:
                    out.append(Diagnostic("use-before-init",
                                          f"local '{name}' assigned outside its declaration scope", where))
        elif isinstance(st, Havoc):
            # A havoc of a never-initialized local has no printable source form.
            _check_var(st.target, definite, global_names, where, out, is_read=True)
        elif isinstance(st, Assert):
            for v in cond_vars(st.cond):
                _check_var(v, definite, global_names, where, out, is_read=True)
            if st.uid in assert_ids:
                out.append(Diagnostic("duplicate-assert-id", f"assertion id '{st.uid}' reused", where))
            assert_ids.add(st.uid)
        elif isinstance(st, Skip):
            pass
        elif isinstance(st, Assume):
            out.append(Diagnostic("internal-statement", "assume cannot appear in a source body", where))
        elif isinstance(st, If):
            for v in cond_vars(st.cond):
                _check_var(v, definite, global_names, where, out, is_read=True)
            a_then = _check_body(st.then, set(definite), declared, global_names, assert_ids, where, out)
            a_else = _check_body(st.orelse, set(definite), declared, global_names, assert_ids, where, out)
            definite |= a_then & a_else
        elif isinstance(st, While):
            for v in cond_vars(st.cond):
                _check_var(v, definite, global_names, where, out, is_read=True)
            # Zero iterations are possible: body assignments are not definite.
            _check_body(st.body, set(definite), declared, global_names, assert_ids, where, out)
    return definite


# ---------------------------------------------------------------------------
# Pretty printer
# ---------------------------------------------------------------------------

_PREC_ATOM = 2
_PREC_MUL = 1
_PREC_SUM = 0


def format_expr(e: Expr, prec: int = _PREC_SUM) -> str:
    if isinstance(e, Const):
        text, mine = str(e.value), _PREC_ATOM if e.value >= 0 else _PREC_MUL
    elif isinstance(e, VarRef):
        text, mine = e.name, _PREC_ATOM
    elif isinstance(e, Mul):
        text, mine = f"{e.coeff} * {format_expr(e.arg, _PREC_MUL + 1)}", _PREC_MUL
    elif isinstance(e, Add):
        text, mine = f"{format_expr(e.left, _PREC_SUM)} + {format_expr(e.right, _PREC_SUM + 1)}", _PREC_SUM
    elif isinstance(e, Sub):
        text, mine = f"{format_expr(e.left, _PREC_SUM)} - {format_expr(e.right, _PREC_SUM + 1)}", _PREC_SUM
    else:
        raise TypeError(f"not an expression: {e!r}")
    return f"({text})" if mine < prec else text


def format_cond(c: Cond) -> str:
    if isinstance(c, Nondet):
        return "*"
    return f"{format_expr(c.left)} {c.op} {format_expr(c.right)}"


def format_instr(ins: Instr) -> str:
    """One-line rendering used by CFG dumps and diagnostics."""
    if isinstance(ins, Assign):
        return f"{ins.target.name} = {format_expr(ins.expr)}"
    if isinstance(ins, Havoc):
        return f"havoc {ins.target.name}"
    if isinstance(ins, Assert):
        return f"assert({format_cond(ins.cond)})"
    if isinstance(ins, Assume):
        return f"assume({format_cond(ins.cond)})"
    if isinstance(ins, Skip):
        return "skip"
    raise TypeError(f"not an instruction: {ins!r}")


def format_program(program: Program) -> str:
    """Render a program in the textual syntax accepted by the parser.

    Round-trips: parsing the output reproduces the program structurally. The
    first assignment to each local is rendered as its declaration.
    """
    lines: list[str] = []
    for name, init in program.globals:
        lines.append(f"global {name} = {init};")
    if program.globals:
        lines.append("")
    for h in program.handlers:
        lines.append(f"handler {h.name} priority {h.priority} {{")
        _format_body(h.body, lines, "  ", set())
        lines.append("}")
        lines.append("")
    while lines and not lines[-1]:
        lines.pop()
    return "\n".join(lines) + "\n"


def _format_body(stmts: tuple[Stmt, ...], lines: list[str], indent: str, declared: set[str]) -> None:
    for st in stmts:
        if isinstance(st, Assign):
            prefix = ""
            if not st.target.is_global and st.target.name not in declared:
                declared.add(st.target.name)
                prefix = "local "
            lines.append(f"{indent}{prefix}{st.target.name} = {format_expr(st.expr)};")
        elif isinstance(st, Havoc):
            lines.append(f"{indent}havoc {st.target.name};")
        elif isinstance(st, Assert):
            lines.append(f"{indent}assert({format_cond(st.cond)});")
        elif isinstance(st, Skip):
            lines.append(f"{indent}skip;")
        elif isinstance(st, If):
            lines.append(f"{indent}if ({format_cond(st.cond)}) {{")
            _format_body(st.then, lines, indent + "  ", declared)
            if st.orelse:
                lines.append(f"{indent}}} else {{")
                _format_body(st.orelse, lines, indent + "  ", declared)
            lines.append(f"{indent}}}")
        elif isinstance(st, While):
            lines.append(f"{indent}while ({format_cond(st.cond)}) {{")
            _format_body(st.body, lines, indent + "  ", declared)
            lines.append(f"{indent}}}")
        else:
            raise ValueError(f"statement has no source form: {st!r}")
