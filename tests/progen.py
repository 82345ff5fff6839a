"""Deterministic random program generator for the property suites.

Programs stay small on purpose: 2-3 handlers (or a given count, for the
four-handler sweep), at most two globals, at most a couple of locals, one
loop level. That keeps the concrete oracle exhaustive within its budgets
while still exercising branches, loops, interference, and priority ties.
"""

from __future__ import annotations

import random

from irqverify.ir import (
    Add,
    Assert,
    Assign,
    Cmp,
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

GLOBAL_NAMES = ("x", "y")
CMP_CHOICES = ("==", "!=", "<", "<=", ">", ">=")


class _HandlerGen:
    def __init__(self, rng: random.Random, globals_: tuple[str, ...], handler: str):
        self.rng = rng
        self.globals = globals_
        self.handler = handler
        self.locals: list[str] = []
        self.asserts = 0

    def var(self) -> VarRef:
        pool = [VarRef(g, "global") for g in self.globals]
        pool += [VarRef(l, "local") for l in self.locals]
        return self.rng.choice(pool)

    def expr(self, depth: int = 0) -> Expr:
        roll = self.rng.random()
        if roll < 0.35 or depth >= 2:
            return Const(self.rng.randint(-2, 3))
        if roll < 0.65:
            return self.var()
        if roll < 0.8:
            return Add(self.expr(depth + 1), self.expr(depth + 1))
        if roll < 0.92:
            return Sub(self.expr(depth + 1), self.expr(depth + 1))
        return Mul(self.rng.choice((-1, 2, 3)), self.expr(depth + 1))

    def cmp(self) -> Cmp:
        return Cmp(self.rng.choice(CMP_CHOICES), self.expr(1), self.expr(1))

    def statement(self, depth: int) -> Stmt:
        roll = self.rng.random()
        if roll < 0.30:
            return Assign(VarRef(self.rng.choice(self.globals), "global"), self.expr())
        if roll < 0.42:
            if len(self.locals) < 2 and self.rng.random() < 0.6 and depth == 0:
                name = f"t{len(self.locals)}"
                init = self.expr()  # may not reference the local being declared
                self.locals.append(name)
                return Assign(VarRef(name, "local"), init)
            if self.locals:
                return Assign(VarRef(self.rng.choice(self.locals), "local"), self.expr())
            return Assign(VarRef(self.rng.choice(self.globals), "global"), self.expr())
        if roll < 0.62:
            uid = f"{self.handler}#{self.asserts}"
            self.asserts += 1
            return Assert(self.cmp(), uid)
        if roll < 0.78:
            cond = NONDET if self.rng.random() < 0.5 else self.cmp()
            then = tuple(self.statement(depth + 1) for _ in range(self.rng.randint(1, 2)))
            orelse = ()
            if self.rng.random() < 0.4:
                orelse = tuple(self.statement(depth + 1) for _ in range(1))
            return If(cond, then, orelse)
        if roll < 0.86 and depth == 0:
            cond = NONDET if self.rng.random() < 0.7 else self.cmp()
            body = tuple(self.statement(depth + 1) for _ in range(self.rng.randint(1, 2)))
            return While(cond, body)
        if roll < 0.92:
            return Havoc(self.var())
        return Skip()

    def body(self, size: int) -> tuple[Stmt, ...]:
        return tuple(self.statement(0) for _ in range(size))


def random_program(rng: random.Random, handler_count: int | None = None) -> Program:
    """Draw a program; `handler_count` fixes the number of handlers, which is
    otherwise drawn (2-3). Without it the draws are those every pinned seed
    relies on."""
    n_globals = rng.choice((1, 2, 2))
    globals_ = tuple((name, rng.randint(-1, 2)) for name in GLOBAL_NAMES[:n_globals])
    n_handlers = rng.choice((2, 2, 2, 3)) if handler_count is None else handler_count
    handlers = []
    for i in range(n_handlers):
        gen = _HandlerGen(rng, tuple(g for g, _ in globals_), f"h{i}")
        handlers.append(Handler(f"h{i}", rng.randint(0, 2), gen.body(rng.randint(1, 6))))
    return Program(globals_, tuple(handlers))


def oracle_budget(rng: random.Random, program: Program) -> int:
    return 1 if len(program.handlers) >= 3 else rng.randint(1, 2)
