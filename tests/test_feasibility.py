import random
import sys

import pytest

from irqverify import (
    analyze,
    covered_loads,
    extract_facts,
    intercepted_stores,
    must_not_read_from,
    no_preempt,
    parse_program,
    rejected_pairs,
)
from irqverify import feasibility
from irqverify.cfg import build_all, dominance_pairs
from irqverify.cli import main
from irqverify.feasibility import cross_pairs, dump_facts
from irqverify.ir import Assert, Assign, Handler, format_program

from conftest import CORPUS_NAMES, corpus_path, load_corpus
from progen import random_program


def facts_of(program):
    cfgs, infos = build_all(program)
    return extract_facts(program, cfgs, infos), cfgs


def find_node(cfgs, handler, predicate):
    for g in cfgs:
        if g.handler != handler:
            continue
        matches = [n for n in g.nodes if predicate(g.instr[n])]
        assert len(matches) == 1, matches
        return matches[0]
    raise AssertionError(handler)


def store_node(cfgs, handler, var, value):
    return find_node(cfgs, handler, lambda i: isinstance(i, Assign)
                     and i.target.name == var and getattr(i.expr, "value", None) == value)


def assert_node_of(cfgs, handler):
    return find_node(cfgs, handler, lambda i: isinstance(i, Assert))


# ---------------------------------------------------------------------------
# Fact extraction
# ---------------------------------------------------------------------------


def test_priorities_attach_to_every_node_of_a_handler():
    fb, cfgs = facts_of(load_corpus("three_priorities"))
    want = {"irq_H": 2, "irq_L": 0, "irq_M": 1}
    assert fb.priority == want
    pri_lines = [line for line in dump_facts(fb, must_not_read_from(fb)) if line.startswith("Pri(")]
    assert sorted(pri_lines) == sorted(f"Pri({n}, {want[g.handler]})" for g in cfgs for n in g.nodes)


def test_dominance_facts_never_cross_handlers():
    fb, _ = facts_of(load_corpus("three_priorities"))
    for a, b in dominance_pairs(fb.dom) | dominance_pairs(fb.postdom):
        assert a.handler == b.handler


def test_load_store_facts_loop_program():
    p = load_corpus("loop_store_overwrite")
    fb, cfgs = facts_of(p)
    copy = find_node(cfgs, "irq0", lambda i: isinstance(i, Assign) and i.target.name == "b")
    check = assert_node_of(cfgs, "irq0")
    s1 = store_node(cfgs, "irq1", "x", 1)
    s0 = store_node(cfgs, "irq1", "x", 0)
    assert fb.store == {(copy, "b"), (s1, "x"), (s0, "x")}
    assert fb.load == {(copy, "x"), (check, "b")}


# ---------------------------------------------------------------------------
# NoPreempt
# ---------------------------------------------------------------------------


def test_no_preempt_orientation():
    fb, cfgs = facts_of(load_corpus("three_priorities"))
    by_handler = {g.handler: g.nodes for g in cfgs}
    assert set(by_handler) == {"irq_H", "irq_L", "irq_M"}
    np = no_preempt(fb)
    # the low handler can never preempt the medium one...
    for a in by_handler["irq_L"]:
        for b in by_handler["irq_M"]:
            assert (a, b) in np
    # ...but the high handler can preempt the low one
    for a in by_handler["irq_H"]:
        for b in by_handler["irq_L"]:
            assert (a, b) not in np
    # same-handler pairs are out of scope
    for h, nodes in by_handler.items():
        for a in nodes:
            for b in nodes:
                assert (a, b) not in np


def test_no_preempt_equal_priorities_is_symmetric_and_total():
    p = parse_program(
        "global x = 0;"
        "handler a priority 1 { x = 1; }"
        "handler b priority 1 { x = 2; }"
        "handler c priority 1 { x = 3; }"
    )
    fb, cfgs = facts_of(p)
    np = no_preempt(fb)
    nodes = sorted(n for g in cfgs for n in g.nodes)
    for a in nodes:
        for b in nodes:
            if a.handler != b.handler:
                assert (a, b) in np and (b, a) in np


def test_no_preempt_monotone_under_handler_addition():
    for seed in range(40):
        rng = random.Random(seed)
        p = random_program(rng)
        fb, cfgs = facts_of(p)
        base = no_preempt(fb)
        extra = Handler("zz_extra", rng.randint(0, 3), ())
        grown = p.__class__(p.globals, p.handlers + (extra,))
        fb2, _ = facts_of(grown)
        old_nodes = {n for g in cfgs for n in g.nodes}
        restricted = {(a, b) for (a, b) in no_preempt(fb2) if a in old_nodes and b in old_nodes}
        assert base <= restricted


# ---------------------------------------------------------------------------
# CoveredLoad / InterceptedStore
# ---------------------------------------------------------------------------


def test_covered_load_cases():
    p = load_corpus("covered_and_intercepted")
    fb, cfgs = facts_of(p)
    assert (assert_node_of(cfgs, "irq0"), "x") in covered_loads(fb)

    q = load_corpus("branch_overwrites")
    fbq, cq = facts_of(q)
    covered = covered_loads(fbq)
    assert (assert_node_of(cq, "irq_H"), "y") not in covered  # no same-handler store of y
    assert (assert_node_of(cq, "irq_L"), "y") in covered

    r = load_corpus("three_priorities")
    fbr, cr = facts_of(r)
    assert (assert_node_of(cr, "irq_M"), "x") in covered_loads(fbr)


def test_compound_node_does_not_cover_its_own_load():
    p = parse_program("global x = 0; handler h priority 0 { x = x + 1; local t = x; }")
    fb, cfgs = facts_of(p)
    covered = covered_loads(fb)
    bump = find_node(cfgs, "h", lambda i: isinstance(i, Assign) and i.target.name == "x")
    copy = find_node(cfgs, "h", lambda i: isinstance(i, Assign) and i.target.name == "t")
    assert (bump, "x") not in covered  # its own store does not cover it
    assert (copy, "x") in covered      # but it covers the next load


def test_intercepted_store_cases():
    p = load_corpus("loop_store_overwrite")
    fb, cfgs = facts_of(p)
    intercepted = intercepted_stores(fb)
    assert (store_node(cfgs, "irq1", "x", 1), "x") in intercepted
    assert (store_node(cfgs, "irq1", "x", 0), "x") not in intercepted  # last on some path

    q = load_corpus("branch_overwrites")
    fbq, cq = facts_of(q)
    iq = intercepted_stores(fbq)
    assert (store_node(cq, "irq_M", "y", 0), "y") in iq
    assert (store_node(cq, "irq_M", "y", 1), "y") not in iq


# ---------------------------------------------------------------------------
# MustNotReadFrom
# ---------------------------------------------------------------------------


def quadrant_program(covered: bool, intercepted: bool, irq1_higher: bool):
    load_stmt = "x = 1;\n  assert(x == 1);" if covered else "skip;\n  assert(x == 0);"
    store_stmt = "x = 2;\n  x = 3;" if intercepted else "skip;\n  x = 3;"
    p0, p1 = (0, 1) if irq1_higher else (1, 0)
    return parse_program(
        f"global x = 0;\n"
        f"handler irq0 priority {p0} {{\n  {load_stmt}\n}}\n"
        f"handler irq1 priority {p1} {{\n  {store_stmt}\n}}\n"
    )


def quadrant_target(cfgs, intercepted: bool):
    load = assert_node_of(cfgs, "irq0")
    store = store_node(cfgs, "irq1", "x", 2 if intercepted else 3)
    return load, store


REJECTION_MATRIX = [
    # covered, intercepted, irq1 can preempt irq0 -> pair must be rejected
    (True, True, True, True),
    (True, True, False, True),
    (True, False, True, False),
    (True, False, False, True),
    (False, True, True, True),
    (False, True, False, False),
    (False, False, True, False),
    (False, False, False, False),
]


@pytest.mark.parametrize("covered, intercepted, higher, want", REJECTION_MATRIX)
def test_rejection_matrix(covered, intercepted, higher, want):
    p = quadrant_program(covered, intercepted, higher)
    fb, cfgs = facts_of(p)
    result = must_not_read_from(fb)
    load, store = quadrant_target(cfgs, intercepted)
    assert ((load, store, "x") in rejected_pairs(result)) == want


def test_three_priorities_rejections():
    p = load_corpus("three_priorities")
    fb, cfgs = facts_of(p)
    rejected = rejected_pairs(must_not_read_from(fb))
    m_assert = assert_node_of(cfgs, "irq_M")
    l_store = store_node(cfgs, "irq_L", "x", 0)
    h_assert = assert_node_of(cfgs, "irq_H")
    m_store_y = store_node(cfgs, "irq_M", "y", 1)
    assert (m_assert, l_store, "x") in rejected
    # sequential flow into the high handler's read stays possible
    assert (h_assert, m_store_y, "y") not in rejected
    assert len(rejected) == 1


def test_rejections_are_cross_handler_same_variable():
    for name in ("three_priorities", "branch_overwrites", "loop_store_overwrite"):
        p = load_corpus(name)
        fb, _ = facts_of(p)
        rejected = rejected_pairs(must_not_read_from(fb))
        for (l, s, v) in rejected:
            assert l.handler != s.handler
            assert (l, v) in fb.load and (s, v) in fb.store
        assert rejected <= cross_pairs(fb)


def test_single_handler_has_no_cross_pairs():
    p = parse_program("global x = 0; handler h priority 0 { x = 1; assert(x == 1); }")
    fb, _ = facts_of(p)
    assert cross_pairs(fb) == frozenset()
    assert rejected_pairs(must_not_read_from(fb)) == frozenset()


def test_every_rejection_is_justified_by_a_rule():
    for seed in range(60):
        p = random_program(random.Random(seed))
        fb, _ = facts_of(p)
        result = must_not_read_from(fb)
        covered = covered_loads(fb)
        intercepted = intercepted_stores(fb)
        np = no_preempt(fb)
        for (l, s, v) in rejected_pairs(result):
            r1 = (l, v) in covered and (s, v) in intercepted
            r2 = (l, v) in covered and (s, l) in np
            r3 = (s, v) in intercepted and (l, s) in np
            assert r1 or r2 or r3


def test_dump_facts_is_sorted_and_complete():
    p = load_corpus("three_priorities")
    fb, _ = facts_of(p)
    lines = dump_facts(fb, must_not_read_from(fb))
    assert lines == sorted(lines)
    assert any(line.startswith("MustNotReadFrom(") for line in lines)
    assert any(line.startswith("Pri(") for line in lines)


# ---------------------------------------------------------------------------
# Lazy relations
# ---------------------------------------------------------------------------


def test_facts_runs_no_fixpoint(monkeypatch, capsys):
    def no_fixpoint(*args, **kwargs):
        raise AssertionError("facts must not run the fixpoint")

    monkeypatch.setattr("irqverify.analyzer.analyze_local", no_fixpoint)
    assert main(["facts", str(corpus_path("three_priorities"))]) == 0
    assert "MustNotReadFrom(" in capsys.readouterr().out


def test_facts_decides_no_preempt_per_handler_pair(monkeypatch, capsys, tmp_path):
    """The facts run evaluates the priority rule at most once per ordered handler pair.

    Calls made inside `rejects` are left out of the count: the rejection
    rules consult the priority rule once per pair of classes, and are
    bounded by those, not by the node pairs NoPreempt prints.
    """
    eight = tmp_path / "eight.irq"
    eight.write_text(format_program(random_program(random.Random(3), handler_count=8)))
    real_cannot_preempt, real_rejects = feasibility._cannot_preempt, feasibility.rejects
    in_rejects = calls = 0

    def counting_cannot_preempt(*args):
        nonlocal calls
        calls += in_rejects == 0
        return real_cannot_preempt(*args)

    def marking_rejects(*args):
        nonlocal in_rejects
        in_rejects += 1
        try:
            return real_rejects(*args)
        finally:
            in_rejects -= 1

    for path, handlers in ((corpus_path("three_priorities"), 3), (eight, 8)):
        assert main(["facts", str(path)]) == 0
        want = capsys.readouterr().out
        with monkeypatch.context() as m:
            m.setattr(feasibility, "_cannot_preempt", counting_cannot_preempt)
            m.setattr(feasibility, "rejects", marking_rejects)
            calls = 0
            assert main(["facts", str(path)]) == 0
        assert capsys.readouterr().out == want
        assert 0 < calls <= handlers ** 2, (path, calls)


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_rejects_runs_once_per_class_pair(monkeypatch, capsys, name):
    """`compare` (one prepare, two analyses) and `facts` each decide every pair of classes once.

    `rejects` is patched in every module that binds it, and the classes are
    counted here from the facts, not from the feasibility result.
    """
    fb, _ = facts_of(load_corpus(name))
    covered, intercepted = covered_loads(fb), intercepted_stores(fb)
    load_classes = {(v, l.handler, (l, v) in covered) for l, v in fb.load}
    store_classes = {(v, s.handler, (s, v) in intercepted) for s, v in fb.store}
    want = sum(1 for v, lh, _ in load_classes for w, sh, _ in store_classes if v == w and lh != sh)

    real_rejects = feasibility.rejects
    calls = 0

    def counting_rejects(*args):
        nonlocal calls
        calls += 1
        return real_rejects(*args)

    for module_name, module in list(sys.modules.items()):
        if module_name.partition(".")[0] == "irqverify" and getattr(module, "rejects", None) is real_rejects:
            monkeypatch.setattr(module, "rejects", counting_rejects)
    path = str(corpus_path(name))
    for command in ("compare", "facts"):
        calls = 0
        assert main([command, path]) == 0
        assert calls == want, (command, calls, want)
    capsys.readouterr()


def test_pairs_total_counts_cross_pairs():
    for seed in range(50):
        fb, _ = facts_of(random_program(random.Random(seed)))
        assert must_not_read_from(fb).pairs_total == len(cross_pairs(fb)), f"seed {seed}"


def test_pairs_pruned_counts_rejected_pairs():
    for seed in range(50):
        fb, _ = facts_of(random_program(random.Random(seed)))
        result = must_not_read_from(fb)
        assert result.pairs_pruned == len(rejected_pairs(result)), f"seed {seed}"


def test_analysis_builds_no_pair_triples(monkeypatch, capsys):
    def no_triples(*args, **kwargs):
        raise AssertionError("the analysis must not enumerate (load, store, var) triples")

    monkeypatch.setattr("irqverify.feasibility.cross_pairs", no_triples)
    monkeypatch.setattr("irqverify.feasibility.rejected_pairs", no_triples)
    path = str(corpus_path("three_priorities"))
    assert main(["analyze", path]) == 1
    assert "pairs: total=3 pruned=1" in capsys.readouterr().out
    assert main(["compare", "--json", path]) == 0
    report = analyze(load_corpus("three_priorities")).report
    assert (report.pairs_total, report.pairs_pruned) == (3, 1)


def test_no_preempt_matches_brute_force_over_handlers():
    for seed in range(50):
        p = random_program(random.Random(seed))
        fb, cfgs = facts_of(p)
        priority = {h.name: h.priority for h in p.handlers}
        want = {
            (a, b)
            for g1 in cfgs
            for g2 in cfgs
            if g1.handler != g2.handler and priority[g2.handler] >= priority[g1.handler]
            for a in g1.nodes
            for b in g2.nodes
        }
        assert no_preempt(fb) == want, f"seed {seed}"
