"""The frozen-dataclass IR that the `NamedTuple` nodes replaced, kept as a test reference.

The classes below copy the node and `Diagnostic` definitions of
`irqverify.ir` as they were when every one was a `@dataclass(frozen=True)`;
only the docstrings are dropped. `to_reference` rebuilds a package node, with
everything below it, out of these classes, so `test_ir.py` can check that the
package's nodes keep the `repr`, equality and hashing of the dataclasses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal, Union

VarKind = Literal["global", "local"]


@dataclass(frozen=True)
class VarRef:
    name: str
    kind: VarKind


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
    coeff: int
    arg: "Expr"


Expr = Union[Const, VarRef, Add, Sub, Mul]


@dataclass(frozen=True)
class Cmp:
    op: str
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Nondet:
    pass


Cond = Union[Cmp, Nondet]


@dataclass(frozen=True)
class Assign:
    target: VarRef
    expr: Expr


@dataclass(frozen=True)
class Assume:
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


@dataclass(frozen=True)
class Handler:
    name: str
    priority: int
    body: tuple[Stmt, ...]


@dataclass(frozen=True)
class Program:
    globals: tuple[tuple[str, int], ...]
    handlers: tuple[Handler, ...]


@dataclass(frozen=True)
class Diagnostic:
    code: str
    message: str
    where: str

    def __str__(self) -> str:
        return f"{self.where}: {self.message} [{self.code}]"


#: The node classes, by name; `Diagnostic` is a record, not a node.
NODE_CLASSES = {cls.__name__: cls for cls in (
    VarRef, Const, Add, Sub, Mul, Cmp, Nondet, Assign, Assume, Assert, Havoc, Skip, If, While,
    Handler, Program)}


def to_reference(value):
    """`value` with every package node in it rebuilt from the class of the same name here."""
    cls = NODE_CLASSES.get(type(value).__name__)
    if cls is not None:
        return cls(*map(to_reference, value))
    if type(value) is tuple:
        return tuple(map(to_reference, value))
    return value
