import random

import pytest

from irqverify import ParseError, format_program, parse_program, validate
from irqverify.ir import (
    Add,
    Assert,
    Assign,
    Assume,
    Cmp,
    Const,
    Handler,
    Havoc,
    If,
    Mul,
    NONDET,
    Nondet,
    Program,
    Skip,
    Sub,
    VarRef,
    While,
    negate_cond,
)

import ir_reference
from conftest import CORPUS_NAMES, load_corpus
from progen import random_program

NODE_CLASSES = (VarRef, Const, Add, Sub, Mul, Cmp, Nondet, Assign, Assume, Assert, Havoc, Skip,
                If, While, Handler, Program)


def test_parse_minimal_program():
    p = parse_program("global x = 0; handler h priority 0 { }")
    assert p.global_names() == ("x",)
    assert len(p.handlers) == 1
    assert p.handlers[0].body == ()


def test_parse_assigns_priorities_and_order():
    p = load_corpus("three_priorities")
    assert [h.name for h in p.handlers] == ["irq_H", "irq_L", "irq_M"]
    assert {h.name: h.priority for h in p.handlers} == {"irq_H": 2, "irq_L": 0, "irq_M": 1}
    assert dict(p.globals) == {"x": 0, "y": 0}
    # three asserts with per-handler ids
    asserts = [st for h in p.handlers for st in h.body if isinstance(st, Assert)]
    assert sorted(a.uid for a in asserts) == ["irq_H#0", "irq_L#0", "irq_M#0"]


def test_parse_structured_statements():
    p = parse_program(
        """
        global x = 0;
        handler h priority 1 {
          local t = x + 1;
          if (t <= 3) {
            x = 2 * t;
          } else {
            havoc x;
          }
          while (*) {
            x = x - 1;
          }
          skip;
          assert(x != 5);
        }
        """
    )
    body = p.handlers[0].body
    assert isinstance(body[0], Assign) and body[0].target == VarRef("t", "local")
    assert isinstance(body[1], If) and isinstance(body[1].orelse[0], Havoc)
    assert isinstance(body[2], While) and body[2].cond is NONDET
    assert isinstance(body[3], Skip)
    assert isinstance(body[4], Assert)


def test_undeclared_variable_is_parse_error_with_location():
    with pytest.raises(ParseError) as err:
        parse_program("handler h priority 0 { y = 1; }")
    assert err.value.line == 1
    assert "y" in err.value.message


@pytest.mark.parametrize(
    "source, fragment",
    [
        ("global x = 0; global x = 1; handler h priority 0 { }", "duplicate global"),
        ("global x = 0; handler h priority 0 { } handler h priority 1 { }", "duplicate handler"),
        ("global x = 0; handler h priority 0 { x = y; }", "undeclared"),
        ("global x = 0; handler h priority 0 { x = x * x; }", "non-affine"),
        ("global x = 0; handler h priority 0 { local x = 1; }", "shadows"),
        ("global x = 0; handler h priority 0 { local t = 1; local t = 2; }", "duplicate local"),
        ("global x = 0; handler h priority 0 { if (*) { local t = 1; } t = 2; }", "declaration"),
        ("global x = 0; handler h priority 0 { x = 1 }", "expected"),
        ("global x = 0;", "no handlers"),
        ("global x = 0; handler h priority 0 { assert(*); }", "expression"),
    ],
)
def test_parse_errors(source, fragment):
    with pytest.raises(ParseError) as err:
        parse_program(source)
    assert fragment in err.value.message


def test_comments_and_whitespace_ignored():
    p = parse_program("// leading\nglobal x = 0; // trailing\nhandler h priority 0 { // body\n }\n")
    assert p.global_names() == ("x",)


def test_negative_literals():
    p = parse_program("global x = -3; handler h priority 0 { x = -x + -2; }")
    assert dict(p.globals) == {"x": -3}


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_corpus_round_trips_and_validates(name):
    p = load_corpus(name)
    assert validate(p) == []
    assert parse_program(format_program(p)) == p


def test_random_programs_round_trip_and_validate():
    for seed in range(300):
        p = random_program(random.Random(seed))
        assert validate(p) == [], f"seed {seed}"
        assert parse_program(format_program(p)) == p, f"seed {seed}"


def test_validate_duplicate_handler_names():
    h = Handler("a", 0, ())
    diags = validate(Program((), (h, h)))
    assert any(d.code == "duplicate-handler" for d in diags)


def test_validate_requires_a_handler():
    diags = validate(Program((("x", 0),), ()))
    assert any(d.code == "no-handlers" for d in diags)


def test_validate_use_before_init():
    body = (Assign(VarRef("x", "global"), VarRef("t", "local")),)
    diags = validate(Program((("x", 0),), (Handler("h", 0, body),)))
    assert any(d.code == "use-before-init" for d in diags)


def test_validate_local_only_definite_on_one_branch():
    # declared in one branch, used after the join: rejected
    decl = Assign(VarRef("t", "local"), Const(1))
    use = Assign(VarRef("x", "global"), VarRef("t", "local"))
    body = (If(NONDET, (decl,), ()), use)
    diags = validate(Program((("x", 0),), (Handler("h", 0, body),)))
    assert any(d.code == "use-before-init" for d in diags)


def test_validate_rejects_source_level_assume():
    body = (Assume(NONDET),)
    diags = validate(Program((("x", 0),), (Handler("h", 0, body),)))
    assert any(d.code == "internal-statement" for d in diags)


def test_validate_kind_mismatch():
    body = (Assign(VarRef("x", "local"), Const(1)),)
    diags = validate(Program((("x", 0),), (Handler("h", 0, body),)))
    assert any(d.code == "kind-mismatch" for d in diags)


def test_negate_cond_involution():
    c = Cmp("<", VarRef("x", "global"), Const(3))
    assert negate_cond(negate_cond(c)) == c
    assert negate_cond(NONDET) is NONDET
    ops = {"==": "!=", "<": ">=", "<=": ">", ">": "<=", ">=": "<", "!=": "=="}
    for op, want in ops.items():
        assert negate_cond(Cmp(op, Const(0), Const(1))).op == want


# ---------------------------------------------------------------------------
# Node semantics: NamedTuples that behave like the frozen dataclasses they replaced
# ---------------------------------------------------------------------------


def _nodes(node):
    """`node` and every node below it, in document order."""
    yield node
    for value in node:
        for item in value if type(value) is tuple else (value,):
            if type(item).__name__ in ir_reference.NODE_CLASSES:
                yield from _nodes(item)


def _semantics_programs():
    programs = [(name, load_corpus(name)) for name in CORPUS_NAMES]
    return programs + [(f"progen seed {seed}", random_program(random.Random(seed)))
                       for seed in range(200)]


def test_node_classes_are_the_reference_ones():
    assert set(ir_reference.NODE_CLASSES) == {cls.__name__ for cls in NODE_CLASSES}
    for cls in NODE_CLASSES:
        assert cls._fields == tuple(ir_reference.NODE_CLASSES[cls.__name__].__dataclass_fields__)


def test_nodes_keep_the_dataclass_repr_equality_and_hashing():
    seen = set()
    for label, p in _semantics_programs():
        ref = ir_reference.to_reference(p)
        assert repr(p) == repr(ref), label
        nodes = list(_nodes(p))
        for node, previous in zip(nodes, nodes[-1:] + nodes[:-1]):
            cls = type(node)
            seen.add(cls)
            copy = cls(*node)
            assert copy == node and not copy != node and hash(copy) == hash(node), label
            assert node != tuple(node) and not node == tuple(node), label
            # a neighbour compares as its reference copy does
            same = ir_reference.to_reference(node) == ir_reference.to_reference(previous)
            assert (node == previous) is same and (node != previous) is not same, label
            if same:
                assert hash(node) == hash(previous), label
            for other in NODE_CLASSES:
                if other is not cls and len(other._fields) == len(cls._fields):
                    twin = other(*node)
                    assert twin != node and not twin == node, (label, cls, other)
    assert seen == set(NODE_CLASSES) - {Assume}  # lowering makes assumes; no source has one


def test_nodes_of_different_types_with_the_same_fields_differ():
    a, b = VarRef("x", "global"), Const(1)
    assert Add(a, b) != Sub(a, b) and not Add(a, b) == Sub(a, b)
    assert hash(Add(a, b)) != hash(Sub(a, b))
    assert Skip() != NONDET and Assume(NONDET) != Havoc(NONDET)
    assert len({Add(a, b), Sub(a, b), Add(a, b)}) == 2


def test_nodes_are_immutable_and_truthy():
    x = VarRef("x", "global")
    body = (Assign(x, Const(1)), Skip())
    program = Program((("x", 0),), (Handler("h", 0, body),))
    for node in _nodes(program):
        for field in node._fields:
            with pytest.raises(AttributeError):
                setattr(node, field, None)
        with pytest.raises(AttributeError):
            node.extra = 1
        assert node
    assert Skip() and NONDET and bool(Skip()) is True and bool(NONDET) is True
    assert If(Cmp("<", x, Const(3)), body).orelse == ()


def test_diagnostics_keep_the_dataclass_repr():
    body = (Assign(VarRef("x", "local"), Const(1)), Assume(NONDET))
    diags = validate(Program((("x", 0), ("x", 1)), (Handler("h", -1, body),)))
    assert len(diags) == 4
    for d in diags:
        ref = ir_reference.Diagnostic(*d)
        assert repr(d) == repr(ref) and str(d) == str(ref)
