"""Interval abstract domain over unbounded integers.

An interval bound of None stands for the corresponding infinity, and an
interval is never empty. Abstract states map variable names to intervals; an
absent variable is unconstrained (top). The one unreachable value is the
bottom state: an interval operation whose result would be empty returns None
instead, and binding None to a variable collapses the state to bottom.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping, NamedTuple

from .ir import (
    Add,
    Assert,
    Assign,
    Assume,
    Cmp,
    Cond,
    Const,
    Expr,
    Havoc,
    Instr,
    Mul,
    NEGATED,
    Nondet,
    Skip,
    Sub,
    VarRef,
)

Bound = int | None  # None encodes -inf for lows and +inf for highs


def _badd(a: Bound, b: Bound) -> Bound:
    return None if a is None or b is None else a + b


class Interval(NamedTuple("Interval", [("lo", Bound), ("hi", Bound)])):
    """Non-empty integer interval [lo, hi]; lo=None means -inf, hi=None means +inf."""

    __slots__ = ()

    def __new__(cls, lo: Bound, hi: Bound):
        if lo is not None and hi is not None and lo > hi:
            raise ValueError(f"invalid interval [{lo}, {hi}]")
        return tuple.__new__(cls, (lo, hi))

    @staticmethod
    def const(value: int) -> "Interval":
        return Interval(value, value)

    def is_top(self) -> bool:
        return self.lo is None and self.hi is None

    def is_const(self) -> bool:
        return self.lo is not None and self.lo == self.hi

    def contains(self, value: int) -> bool:
        return (self.lo is None or self.lo <= value) and (self.hi is None or value <= self.hi)

    def join(self, other: "Interval") -> "Interval":
        lo = None if self.lo is None or other.lo is None else min(self.lo, other.lo)
        hi = None if self.hi is None or other.hi is None else max(self.hi, other.hi)
        if lo == self.lo and hi == self.hi:
            return self
        if lo == other.lo and hi == other.hi:
            return other
        return Interval(lo, hi)

    def meet(self, other: "Interval") -> "Interval | None":
        """The intersection, or None when the two are disjoint."""
        lo = other.lo if self.lo is None else (self.lo if other.lo is None else max(self.lo, other.lo))
        hi = other.hi if self.hi is None else (self.hi if other.hi is None else min(self.hi, other.hi))
        if lo is not None and hi is not None and lo > hi:
            return None
        return Interval(lo, hi)

    def leq(self, other: "Interval") -> bool:
        lo_ok = other.lo is None or (self.lo is not None and self.lo >= other.lo)
        hi_ok = other.hi is None or (self.hi is not None and self.hi <= other.hi)
        return lo_ok and hi_ok

    def widen(self, newer: "Interval") -> "Interval":
        """Unstable bounds escape to the infinities; result covers the join."""
        lo = self.lo if self.lo is not None and newer.lo is not None and newer.lo >= self.lo else None
        hi = self.hi if self.hi is not None and newer.hi is not None and newer.hi <= self.hi else None
        return Interval(lo, hi)

    def add(self, other: "Interval") -> "Interval":
        return Interval(_badd(self.lo, other.lo), _badd(self.hi, other.hi))

    def sub(self, other: "Interval") -> "Interval":
        return self.add(other.neg())

    def neg(self) -> "Interval":
        return Interval(None if self.hi is None else -self.hi,
                        None if self.lo is None else -self.lo)

    def scale(self, coeff: int) -> "Interval":
        if coeff == 0:
            return Interval.const(0)
        if coeff < 0:
            return self.neg().scale(-coeff)
        return Interval(None if self.lo is None else self.lo * coeff,
                        None if self.hi is None else self.hi * coeff)

    def __repr__(self) -> str:
        lo = "-inf" if self.lo is None else str(self.lo)
        hi = "+inf" if self.hi is None else str(self.hi)
        return f"[{lo}, {hi}]"


TOP = Interval(None, None)


class AbstractState:
    """Immutable map from variable names to intervals.

    Missing variables are top. The bottom state (no concretization) is the
    `AbstractState.bottom()` singleton; binding any variable to None, the
    empty result of an interval operation, collapses to it.
    """

    __slots__ = ("_bindings", "_bottom")

    _BOTTOM_SINGLETON: "AbstractState | None" = None

    def __init__(self, bindings: Mapping[str, Interval | None] | None = None, *,
                 _bottom: bool = False):
        if _bottom:
            self._bindings: dict[str, Interval] = {}
            self._bottom = True
            return
        clean: dict[str, Interval] = {}
        for name, iv in (bindings or {}).items():
            if iv is None:
                self._bindings = {}
                self._bottom = True
                return
            if not iv.is_top():
                clean[name] = iv
        self._bindings = clean
        self._bottom = False

    @classmethod
    def top(cls) -> "AbstractState":
        return cls({})

    @classmethod
    def bottom(cls) -> "AbstractState":
        if cls._BOTTOM_SINGLETON is None:
            cls._BOTTOM_SINGLETON = cls(_bottom=True)
        return cls._BOTTOM_SINGLETON

    @property
    def is_bottom(self) -> bool:
        return self._bottom

    def get(self, name: str) -> Interval:
        """The interval bound to `name`; only for states that are not bottom."""
        return self._bindings.get(name, TOP)

    @classmethod
    def _clean(cls, bindings: dict[str, Interval]) -> "AbstractState":
        """A state over bindings already free of None and top intervals."""
        s = object.__new__(cls)
        s._bindings = bindings
        s._bottom = False
        return s

    def set(self, name: str, iv: Interval | None) -> "AbstractState":
        """This state with `name` bound to `iv`; `self` when the binding is unchanged.

        Binding None gives the bottom state.
        """
        if self._bottom:
            return self
        if iv is None:
            return AbstractState.bottom()
        current = self._bindings.get(name)
        if iv.is_top():
            if current is None:
                return self
            new = dict(self._bindings)
            del new[name]
        else:
            if current is iv or current == iv:
                return self
            new = dict(self._bindings)
            new[name] = iv
        return AbstractState._clean(new)

    def restrict(self, names: Iterable[str]) -> "AbstractState":
        """Forget every variable outside `names` (projection onto globals)."""
        if self._bottom:
            return self
        keep = set(names)
        return AbstractState({k: v for k, v in self._bindings.items() if k in keep})

    def items(self) -> Iterator[tuple[str, Interval]]:
        return iter(sorted(self._bindings.items()))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AbstractState):
            return NotImplemented
        return self._bottom == other._bottom and self._bindings == other._bindings

    def __hash__(self) -> int:
        return hash((self._bottom, tuple(sorted(self._bindings.items()))))

    def __repr__(self) -> str:
        if self._bottom:
            return "<bottom>"
        inner = ", ".join(f"{k}:{v!r}" for k, v in self.items())
        return f"{{{inner}}}"


def join(a: AbstractState, b: AbstractState) -> AbstractState:
    """Pointwise least upper bound; bottom is the identity.

    Returns `a` itself, without allocating, when `b` adds nothing to it
    (`leq(b, a)`), so callers can test for change by identity first.
    """
    if b._bottom or a is b:
        return a
    if a._bottom:
        return b
    others = b._bindings
    for k, iv in a._bindings.items():
        other = others.get(k)
        if other is not iv and (other is None or iv.join(other) is not iv):
            break
    else:
        return a
    out: dict[str, Interval] = {}
    for k, iv in a._bindings.items():
        other = others.get(k)
        if other is None:
            continue
        hull = iv if other is iv else iv.join(other)
        if hull.lo is not None or hull.hi is not None:
            out[k] = hull
    return AbstractState._clean(out)


def leq(a: AbstractState, b: AbstractState) -> bool:
    """Pointwise interval containment; bottom is below everything."""
    if a.is_bottom:
        return True
    if b.is_bottom:
        return False
    return all(a.get(k).leq(iv) for k, iv in b._bindings.items())


def widen(older: AbstractState, newer: AbstractState) -> AbstractState:
    """Pointwise interval widening; the result covers join(older, newer)."""
    if older.is_bottom:
        return newer
    if newer.is_bottom:
        return older
    keys = older._bindings.keys() & newer._bindings.keys()
    return AbstractState({k: older._bindings[k].widen(newer._bindings[k]) for k in keys})


# ---------------------------------------------------------------------------
# Expression evaluation and condition handling
# ---------------------------------------------------------------------------


def eval_expr(e: Expr, s: AbstractState) -> Interval:
    """The values `e` may take in `s`; only for states that are not bottom."""
    if isinstance(e, Const):
        return Interval.const(e.value)
    if isinstance(e, VarRef):
        return s.get(e.name)
    if isinstance(e, Add):
        return eval_expr(e.left, s).add(eval_expr(e.right, s))
    if isinstance(e, Sub):
        return eval_expr(e.left, s).sub(eval_expr(e.right, s))
    if isinstance(e, Mul):
        return eval_expr(e.arg, s).scale(e.coeff)
    raise TypeError(f"not an expression: {e!r}")


def _definitely_true(op: str, a: Interval, b: Interval) -> bool:
    """Does the comparison hold for every pair of concrete values?"""
    if op == "==":
        return a.is_const() and b.is_const() and a.lo == b.lo
    if op == "!=":
        return a.meet(b) is None
    if op == "<":
        return a.hi is not None and b.lo is not None and a.hi < b.lo
    if op == "<=":
        return a.hi is not None and b.lo is not None and a.hi <= b.lo
    if op == ">":
        return _definitely_true("<", b, a)
    if op == ">=":
        return _definitely_true("<=", b, a)
    raise ValueError(op)


def _refine(op: str, current: Interval, bound: Interval) -> Interval | None:
    """`current` narrowed to the values v for which `v OP bound` may hold.

    None when no value is left. `!=` narrows only when `bound` is a constant
    at a finite endpoint of `current`.
    """
    if op == "==":
        return current.meet(bound)
    if op == "!=":
        c = bound.lo
        if not bound.is_const() or c not in (current.lo, current.hi):
            return current
        if current.is_const():
            return None
        return Interval(c + 1, current.hi) if current.lo == c else Interval(current.lo, c - 1)
    if op in ("<", "<="):
        if bound.hi is None:
            return current
        return current.meet(Interval(None, bound.hi - 1 if op == "<" else bound.hi))
    if op in (">", ">="):
        if bound.lo is None:
            return current
        return current.meet(Interval(bound.lo + 1 if op == ">" else bound.lo, None))
    raise ValueError(op)


_FLIP = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "==": "==", "!=": "!="}


def assume_cond(cond: Cond, s: AbstractState) -> AbstractState:
    """Refine a state by a branch condition; `*` changes nothing.

    Unsatisfiable conditions give bottom. Refinement narrows a side only when
    it is a bare variable; anything else falls back to the satisfiability
    check, which is still sound.
    """
    if s.is_bottom or isinstance(cond, Nondet):
        return s
    a = eval_expr(cond.left, s)
    b = eval_expr(cond.right, s)
    if _definitely_true(NEGATED[cond.op], a, b):
        return AbstractState.bottom()
    out = s
    for side, op, other in ((cond.left, cond.op, b), (cond.right, _FLIP[cond.op], a)):
        if isinstance(side, VarRef) and not out.is_bottom:
            out = out.set(side.name, _refine(op, out.get(side.name), other))
    return out


def transfer(ins: Instr, s: AbstractState) -> AbstractState:
    """Abstract effect of one instruction; bottom maps to bottom.

    Assignments evaluate in interval arithmetic, assumes refine, havoc forgets
    the target, and asserts leave the state unchanged (checking them is the
    analyzer's job).
    """
    if s.is_bottom:
        return s
    if isinstance(ins, Assign):
        return s.set(ins.target.name, eval_expr(ins.expr, s))
    if isinstance(ins, Havoc):
        return s.set(ins.target.name, TOP)
    if isinstance(ins, Assume):
        return assume_cond(ins.cond, s)
    if isinstance(ins, (Assert, Skip)):
        return s
    raise TypeError(f"not an instruction: {ins!r}")


def check_assert(cond: Cmp, s: AbstractState) -> bool:
    """Whether the assertion is proved: its condition holds in every concretization of the state.

    The bottom state is unreachable, so anything asserted there is vacuously
    proved.
    """
    return s.is_bottom or _definitely_true(cond.op, eval_expr(cond.left, s), eval_expr(cond.right, s))
