import random

import pytest

from irqverify.domain import (
    TOP,
    AbstractState,
    Interval,
    _refine,
    assume_cond,
    check_assert,
    eval_expr,
    join,
    leq,
    transfer,
    widen,
)
from irqverify.ir import Add, Assert, Assign, Assume, Cmp, Const, Havoc, Mul, NONDET, Skip, Sub, VarRef


def iv(lo, hi):
    return Interval(lo, hi)


def state(**kv):
    return AbstractState({k: Interval(*v) for k, v in kv.items()})


G = lambda name: VarRef(name, "global")  # noqa: E731


# ---------------------------------------------------------------------------
# Lattice operations: pinned examples
# ---------------------------------------------------------------------------


def test_join_is_interval_hull():
    assert join(state(x=(0, 0)), state(x=(1, 1))) == state(x=(0, 1))
    assert join(state(x=(0, 5)), state(x=(3, 9))) == state(x=(0, 9))


def test_join_bottom_identity():
    s = state(x=(1, 2))
    assert join(AbstractState.bottom(), s) == s
    assert join(s, AbstractState.bottom()) == s


def test_leq_examples():
    assert leq(state(x=(1, 2)), state(x=(0, 3)))
    assert not leq(state(x=(1, 4)), state(x=(2, 3)))
    assert leq(AbstractState.bottom(), AbstractState.bottom())
    assert leq(AbstractState.bottom(), state(x=(0, 0)))
    assert not leq(state(x=(0, 0)), AbstractState.bottom())


def test_widen_examples():
    assert widen(state(x=(0, 1)), state(x=(0, 2))) == state(x=(0, None))
    s = state(x=(0, 5), y=(None, 3))
    assert widen(s, s) == s
    assert widen(state(x=(0, 5)), state(x=(-1, 5))) == state(x=(None, 5))


def test_missing_variable_is_top():
    s = state(x=(0, 1))
    assert s.get("zzz") == TOP
    assert s.set("x", TOP).get("x") == TOP


def test_bottom_binding_collapses_state():
    assert state(x=(0, 1)).set("x", None) is AbstractState.bottom()
    assert AbstractState({"x": None, "y": iv(0, 1)}) is not AbstractState.bottom()
    assert AbstractState({"x": None, "y": iv(0, 1)}) == AbstractState.bottom()
    assert AbstractState.bottom().set("x", iv(0, 1)) is AbstractState.bottom()


def test_disjoint_meet_is_none():
    assert iv(0, 1).meet(iv(2, 3)) is None
    assert iv(None, -1).meet(iv(0, None)) is None
    assert iv(0, 2).meet(iv(2, None)) == iv(2, 2)
    assert TOP.meet(iv(1, 1)) == iv(1, 1)


def test_interval_has_only_its_bounds():
    assert Interval._fields == ("lo", "hi")
    assert iv(1, 2) == iv(1, 2) and hash(iv(1, 2)) == hash(iv(1, 2))
    assert iv(None, 2) != iv(1, 2)


# ---------------------------------------------------------------------------
# Lattice laws over seeded random elements
# ---------------------------------------------------------------------------


def random_interval(rng):
    lo = None if rng.random() < 0.2 else rng.randint(-10, 10)
    hi = None if rng.random() < 0.2 else rng.randint(-10, 10)
    if lo is not None and hi is not None and lo > hi:
        lo, hi = hi, lo
    return Interval(lo, hi)


def random_state(rng):
    if rng.random() < 0.05:
        return AbstractState.bottom()
    names = ("x", "y", "z")
    return AbstractState({n: random_interval(rng) for n in names if rng.random() < 0.7})


def test_lattice_laws():
    rng = random.Random(0)
    for _ in range(400):
        a, b, c = random_state(rng), random_state(rng), random_state(rng)
        assert join(a, b) == join(b, a)
        assert join(a, join(b, c)) == join(join(a, b), c)
        assert join(a, a) == a
        assert leq(a, join(a, b)) and leq(b, join(a, b))
        # partial order
        assert leq(a, a)
        if leq(a, b) and leq(b, a):
            assert a == b
        if leq(a, b) and leq(b, c):
            assert leq(a, c)
        # widening covers the join
        assert leq(join(a, b), widen(a, b))


def reference_interval_join(a, b):
    """Hull of two intervals, always built anew."""
    lo = None if a.lo is None or b.lo is None else min(a.lo, b.lo)
    hi = None if a.hi is None or b.hi is None else max(a.hi, b.hi)
    return Interval(lo, hi)


def reference_join(a, b):
    """Pointwise hull over every variable either side binds; unbound is top."""
    if a.is_bottom:
        return b
    if b.is_bottom:
        return a
    names = {n for n, _ in a.items()} | {n for n, _ in b.items()}
    return AbstractState({n: reference_interval_join(a.get(n), b.get(n)) for n in names})


def reference_set(s, name, value):
    """The state with one binding replaced, built anew."""
    if s.is_bottom:
        return s
    return AbstractState({**dict(s.items()), name: value})


def assert_clean(s):
    """No state holds a top or a None binding."""
    assert all(v is not None and not v.is_top() for _, v in s.items()), s


def test_fast_paths_match_pointwise_reference():
    rng = random.Random(9)
    kept = 0
    for _ in range(2000):
        i, j = random_interval(rng), random_interval(rng)
        hull = i.join(j)
        assert hull == reference_interval_join(i, j)
        if j.leq(i):
            assert hull is i
        a, b = random_state(rng), random_state(rng)
        roll = rng.random()
        if roll < 0.25:
            a = join(a, b)  # b adds nothing to a
        elif roll < 0.35 and not a.is_bottom:
            b = AbstractState(dict(a.items()))  # equal to a, another object
        joined = join(a, b)
        assert joined == reference_join(a, b), (a, b)
        # the result is a itself exactly when b adds nothing to it
        assert (joined is a) == leq(b, a), (a, b)
        kept += joined is a
        assert join(a, a) is a
        assert_clean(joined)
        name, value = rng.choice(("x", "y", "z", "w")), random_interval(rng)
        roll = rng.random()
        if roll < 0.3 and not a.is_bottom:
            value = a.get(name)  # rebinding to the current value
        elif roll > 0.92:
            value = None  # an empty meet: the state collapses
        updated = a.set(name, value)
        assert updated == reference_set(a, name, value), (a, name, value)
        assert (updated is a) == (a.is_bottom or a.get(name) == value), (a, name, value)
        if value is None:
            assert updated.is_bottom, (a, name)
        assert_clean(updated)
    assert 500 < kept < 1500  # both outcomes of the join are exercised


def test_widening_chains_stabilize_within_two_steps():
    # per interval: at most one escape per bound
    rng = random.Random(1)
    for _ in range(300):
        current = random_interval(rng)
        widenings = 0
        for _ in range(20):
            nxt = random_interval(rng)
            widened = current.widen(current.join(nxt))
            if widened != current:
                widenings += 1
                current = widened
        assert widenings <= 2


# ---------------------------------------------------------------------------
# Transfer: pinned examples
# ---------------------------------------------------------------------------


def test_transfer_assign_interval_arithmetic():
    s = transfer(Assign(G("x"), Add(G("y"), Const(1))), state(y=(0, 2)))
    assert s == state(y=(0, 2), x=(1, 3))


def test_transfer_assume_equality_refines():
    s = transfer(Assume(Cmp("==", G("x"), Const(1))), state(x=(0, 5)))
    assert s == state(x=(1, 1))


def test_transfer_assume_unsatisfiable_gives_bottom():
    s = transfer(Assume(Cmp("<", G("x"), Const(0))), state(x=(0, 5)))
    assert s.is_bottom


def test_transfer_assume_nondet_is_identity():
    s = state(x=(0, 5))
    assert transfer(Assume(NONDET), s) == s


def test_transfer_inequality_trims_endpoint():
    s = transfer(Assume(Cmp("!=", G("x"), Const(0))), state(x=(0, 5)))
    assert s == state(x=(1, 5))
    s2 = transfer(Assume(Cmp("!=", G("x"), Const(3))), state(x=(0, 5)))
    assert s2 == state(x=(0, 5))  # interior point: no refinement
    s3 = transfer(Assume(Cmp("!=", G("x"), Const(2))), state(x=(2, 2)))
    assert s3.is_bottom
    s4 = transfer(Assume(Cmp("!=", Const(5), G("x"))), state(x=(2, 5)))
    assert s4 == state(x=(2, 4))  # the constant on the left trims the high end


def test_refine_not_equal_trims_endpoints_only():
    assert _refine("!=", iv(2, 2), iv(2, 2)) is None  # the last value goes
    assert _refine("!=", iv(2, 5), iv(2, 2)) == iv(3, 5)
    assert _refine("!=", iv(None, 5), iv(5, 5)) == iv(None, 4)
    assert _refine("!=", iv(2, 5), iv(3, 3)) == iv(2, 5)
    assert _refine("!=", iv(2, 5), iv(2, 3)) == iv(2, 5)


def test_transfer_comparison_refines_both_sides():
    s = transfer(Assume(Cmp("<", G("x"), G("y"))), state(x=(0, 9), y=(0, 5)))
    assert s == state(x=(0, 4), y=(1, 5))


def test_transfer_havoc_forgets():
    s = transfer(Havoc(G("x")), state(x=(1, 1), y=(2, 2)))
    assert s == state(y=(2, 2))


def test_transfer_assert_and_skip_identity():
    s = state(x=(0, 1))
    assert transfer(Assert(Cmp("==", G("x"), Const(0)), "a#0"), s) == s
    assert transfer(Skip(), s) == s


def test_transfer_bottom_to_bottom():
    bot = AbstractState.bottom()
    assert transfer(Assign(G("x"), Const(1)), bot).is_bottom


def test_eval_expr_scaling_and_negation():
    s = state(x=(1, 3))
    assert eval_expr(Mul(2, G("x")), s) == iv(2, 6)
    assert eval_expr(Mul(-1, G("x")), s) == iv(-3, -1)
    assert eval_expr(Mul(0, G("x")), s) == iv(0, 0)
    assert eval_expr(Sub(Const(0), G("x")), s) == iv(-3, -1)
    assert eval_expr(Mul(2, VarRef("unbound", "global")), s) == TOP


# ---------------------------------------------------------------------------
# Assert checking: pinned examples
# ---------------------------------------------------------------------------


def test_check_assert_examples():
    assert check_assert(Cmp("==", G("x"), Const(1)), state(x=(1, 1))) is True
    assert check_assert(Cmp("==", G("x"), Const(0)), state(x=(0, 1))) is False
    assert check_assert(Cmp("==", G("y"), Const(0)), AbstractState.bottom()) is True
    assert check_assert(Cmp("!=", G("x"), Const(5)), state(x=(0, 4))) is True
    assert check_assert(Cmp("<", G("x"), G("y")), state(x=(0, 1), y=(2, 9))) is True
    assert check_assert(Cmp("<=", G("x"), G("y")), state(x=(0, 2), y=(2, 9))) is True
    assert check_assert(Cmp(">", G("x"), Const(0)), state(x=(0, 5))) is False


# ---------------------------------------------------------------------------
# Soundness of transfer against concrete execution
# ---------------------------------------------------------------------------


def _concretize(rng, s):
    env = {}
    for name in ("x", "y", "z"):
        interval = s.get(name)
        lo = interval.lo if interval.lo is not None else -20
        hi = interval.hi if interval.hi is not None else 20
        env[name] = rng.randint(min(lo, hi), max(lo, hi))
    return env


def _eval_concrete(e, env):
    if isinstance(e, Const):
        return e.value
    if isinstance(e, VarRef):
        return env[e.name]
    if isinstance(e, Add):
        return _eval_concrete(e.left, env) + _eval_concrete(e.right, env)
    if isinstance(e, Sub):
        return _eval_concrete(e.left, env) - _eval_concrete(e.right, env)
    if isinstance(e, Mul):
        return e.coeff * _eval_concrete(e.arg, env)
    raise TypeError(e)


def random_expr(rng, depth=0):
    roll = rng.random()
    if roll < 0.4 or depth >= 2:
        return Const(rng.randint(-3, 3))
    if roll < 0.7:
        return G(rng.choice(("x", "y", "z")))
    if roll < 0.85:
        return Add(random_expr(rng, depth + 1), random_expr(rng, depth + 1))
    if roll < 0.95:
        return Sub(random_expr(rng, depth + 1), random_expr(rng, depth + 1))
    return Mul(rng.choice((-2, -1, 2, 3)), random_expr(rng, depth + 1))


def test_transfer_soundness_against_concrete_steps():
    rng = random.Random(2)
    ops = ("==", "!=", "<", "<=", ">", ">=")
    for _ in range(600):
        s = random_state(rng)
        if s.is_bottom:
            continue
        env = _concretize(rng, s)
        roll = rng.random()
        if roll < 0.5:
            target = G(rng.choice(("x", "y", "z")))
            e = random_expr(rng)
            ins = Assign(target, e)
            new_env = dict(env)
            new_env[target.name] = _eval_concrete(e, env)
        else:
            cond = Cmp(rng.choice(ops), random_expr(rng), random_expr(rng))
            a = _eval_concrete(cond.left, env)
            b = _eval_concrete(cond.right, env)
            holds = {"==": a == b, "!=": a != b, "<": a < b, "<=": a <= b,
                     ">": a > b, ">=": a >= b}[cond.op]
            if not holds:
                continue  # concrete execution does not take this branch
            ins = Assume(cond)
            new_env = env
        out = transfer(ins, s)
        assert not out.is_bottom
        for name, value in new_env.items():
            assert out.get(name).contains(value), (ins, s, env, out)


def test_assume_refinement_is_sound_for_var_cases():
    rng = random.Random(3)
    for _ in range(400):
        lo = rng.randint(-5, 5)
        hi = lo + rng.randint(0, 6)
        s = state(x=(lo, hi))
        op = rng.choice(("==", "!=", "<", "<=", ">", ">="))
        c = rng.randint(-6, 8)
        refined = assume_cond(Cmp(op, G("x"), Const(c)), s)
        for v in range(lo, hi + 1):
            holds = {"==": v == c, "!=": v != c, "<": v < c, "<=": v <= c,
                     ">": v > c, ">=": v >= c}[op]
            if holds:
                assert refined.get("x").contains(v)


def test_interval_invalid_bounds_rejected():
    with pytest.raises(ValueError):
        Interval(3, 1)
