import gc
import random

import pytest

from irqverify import (
    NodeId,
    OracleConfig,
    OracleLimitError,
    collect_traces,
    enumerate_executions,
    parse_program,
    rejected_pairs,
    thread_enumerate,
)
from irqverify.analyzer import analyze
from irqverify.cfg import build_all
from irqverify.ir import Assume, Nondet, Skip, cond_vars
from irqverify.oracle import _Enumerator

from conftest import CORPUS_NAMES, load_corpus
from progen import random_program
from test_oracle_reference import INVISIBLE_NODE_SHAPES, _Unreduced


def first_action(program, handler):
    """NodeId of the handler's first assignment (entry skip is node 0)."""
    return NodeId(handler, 1)


# ---------------------------------------------------------------------------
# Trace enumeration
# ---------------------------------------------------------------------------


def test_trace_counts_interrupts_vs_threads():
    p = load_corpus("trace_subset")
    cfg = OracleConfig(max_invocations=1)
    start = first_action(p, "run0")

    def full_traces(traces):
        return {t for t in traces if len(t) == 4 and t[0] == start}

    interrupt = full_traces(collect_traces(p, cfg))
    threads = full_traces(collect_traces(p, cfg, threads=True))

    a1, a2 = NodeId("run0", 1), NodeId("run0", 2)
    b1, b2 = NodeId("run1", 1), NodeId("run1", 2)
    assert interrupt == {(a1, a2, b1, b2), (a1, b1, b2, a2)}
    assert threads == interrupt | {(a1, b1, a2, b2)}


def test_equal_priorities_interleave_only_sequentially():
    p = parse_program(
        "global x = 0;"
        "handler a priority 1 { x = 1; x = 2; }"
        "handler b priority 1 { x = 3; x = 4; }"
    )
    traces = collect_traces(p, OracleConfig(max_invocations=1))
    full = {t for t in traces if len(t) == 4}
    a1, a2 = NodeId("a", 1), NodeId("a", 2)
    b1, b2 = NodeId("b", 1), NodeId("b", 2)
    assert full == {(a1, a2, b1, b2), (b1, b2, a1, a2)}


# ---------------------------------------------------------------------------
# Violations
# ---------------------------------------------------------------------------


def test_three_priorities_violations_with_budget_one():
    p = load_corpus("three_priorities")
    result = enumerate_executions(p, OracleConfig(max_invocations=1, track_flows=True))
    assert result.violated == {"irq_H#0", "irq_L#0"}
    assert not result.truncated


def test_single_deterministic_handler_is_one_execution():
    p = parse_program("global x = 0; handler h priority 0 { x = 1; x = x + 1; }")
    result = enumerate_executions(p, OracleConfig(max_invocations=1, track_flows=True))
    assert result.executions == 1
    # the only cross-instruction flow reads the handler's own first store
    assert result.flows == {(NodeId("h", 2), NodeId("h", 1), "x")}


def test_flows_from_initial_values_are_not_pairs():
    p = parse_program("global x = 0; handler h priority 0 { local t = x; }")
    result = enumerate_executions(p, OracleConfig(max_invocations=1, track_flows=True))
    assert result.flows == frozenset()


@pytest.mark.parametrize("enumerate_fn", [enumerate_executions, thread_enumerate])
def test_a_failing_branch_condition_records_no_flow(enumerate_fn):
    # `lo` reads x at both arms' conditions, but only the arm whose condition
    # holds steps, so only that read is a flow
    p = parse_program(
        "global x = 0;"
        "handler lo priority 0 { if (x == 5) { skip; } else { skip; } }"
        "handler hi priority 1 { x = 1; }"
    )
    result = enumerate_fn(p, OracleConfig(max_invocations=1, track_flows=True))
    assert result.flows == {(NodeId("lo", 2), NodeId("hi", 1), "x")}


def test_branch_both_arms_explored_and_dead_arm_pruned():
    p = parse_program(
        "global x = 0; global y = 0;"
        "handler h priority 0 { if (*) { x = 1; } if (x == 5) { y = 1; } assert(y == 0); }"
    )
    result = enumerate_executions(p, OracleConfig(max_invocations=1))
    assert result.violated == frozenset()  # x never becomes 5
    q = parse_program(
        "global x = 0; global y = 0;"
        "handler h priority 0 { if (*) { x = 5; } if (x == 5) { y = 1; } assert(y == 0); }"
    )
    r2 = enumerate_executions(q, OracleConfig(max_invocations=1))
    assert r2.violated == {"h#0"}


def test_havoc_explores_sampled_values():
    p = parse_program("global x = 0; handler h priority 0 { havoc x; assert(x >= 0); }")
    result = enumerate_executions(p, OracleConfig(max_invocations=1))
    assert result.violated == {"h#0"}  # -1 is sampled


def test_loop_truncation_sets_flag():
    p = load_corpus("loop_store_overwrite")
    result = enumerate_executions(p, OracleConfig(max_invocations=1, unroll=1))
    assert result.truncated
    assert result.violated == frozenset()


def test_execution_ceiling_raises():
    p = load_corpus("three_priorities")
    with pytest.raises(OracleLimitError):
        enumerate_executions(p, OracleConfig(max_invocations=2, max_executions=3))


@pytest.mark.parametrize("option", ["track_flows", "record_traces", "record_assert_values"])
def test_violations_only_records_nothing_else(option):
    # the search that keeps only violations drops the states that would record the rest
    with pytest.raises(ValueError):
        OracleConfig(violations_only=True, **{option: True})
    assert getattr(OracleConfig(**{option: True}), option)


def test_trace_collection_checks_the_copied_config():
    # collect_traces turns on record_traces in a copy, which must pass the same checks
    with pytest.raises(ValueError, match="violations_only records no flows"):
        collect_traces(load_corpus("three_priorities"), OracleConfig(violations_only=True))


def test_nested_invocations_reach_all_three_levels():
    # the low handler's late assert can observe writes of both higher handlers
    p = parse_program(
        "global x = 0;"
        "handler low priority 0 { skip; assert(x == 0); }"
        "handler mid priority 1 { x = 1; }"
        "handler high priority 2 { x = 2; }"
    )
    result = enumerate_executions(p, OracleConfig(max_invocations=1, track_flows=True))
    check = NodeId("low", 2)
    assert (check, NodeId("mid", 1), "x") in result.flows
    assert (check, NodeId("high", 1), "x") in result.flows


def test_interrupt_behavior_is_subset_of_threads_random():
    # budget 1 keeps the thread-side state space tame; the preemption
    # differences the property is about show up already at one invocation
    for seed in range(60):
        rng = random.Random(seed)
        p = random_program(rng)
        cfg = OracleConfig(max_invocations=1, unroll=2,
                           track_flows=True, max_executions=400_000)
        interrupt = enumerate_executions(p, cfg)
        threads = thread_enumerate(p, cfg)
        assert interrupt.flows <= threads.flows, f"seed {seed}"
        assert interrupt.violated <= threads.violated, f"seed {seed}"


def test_interrupt_behavior_is_subset_of_threads_corpus():
    for name in ("trace_subset", "loop_store_overwrite", "covered_and_intercepted",
                 "covered_only", "intercepted_only", "uncovered_pair"):
        p = load_corpus(name)
        cfg = OracleConfig(max_invocations=2, unroll=2, track_flows=True)
        interrupt = enumerate_executions(p, cfg)
        threads = thread_enumerate(p, cfg)
        assert interrupt.flows <= threads.flows, name
        assert interrupt.violated <= threads.violated, name


def test_rejected_pairs_never_observed_on_corpus():
    for name in ("three_priorities", "branch_overwrites", "loop_store_overwrite",
                 "covered_and_intercepted", "covered_only", "intercepted_only",
                 "uncovered_pair"):
        p = load_corpus(name)
        result = analyze(p)
        oracle = enumerate_executions(p, OracleConfig(max_invocations=2, unroll=2,
                                                      track_flows=True))
        assert oracle.flows & rejected_pairs(result.feasibility) == frozenset()


def test_observed_flows_pair_same_variable_loads_and_stores():
    p = load_corpus("three_priorities")
    cfgs, infos = build_all(p)
    loads = {(g.nodes[i], v) for g, info in zip(cfgs, infos) for i, vs in enumerate(info.loads) for v in vs}
    stores = {(g.nodes[i], v) for g, info in zip(cfgs, infos) for i, v in enumerate(info.store) if v}
    result = enumerate_executions(p, OracleConfig(max_invocations=2, track_flows=True))
    for (l, s, v) in result.flows:
        assert (l, v) in loads
        assert (s, v) in stores


def test_deterministic_results():
    p = load_corpus("branch_overwrites")
    cfg = OracleConfig(max_invocations=2, track_flows=True)
    a = enumerate_executions(p, cfg)
    b = enumerate_executions(p, cfg)
    assert a == b


@pytest.mark.parametrize("enumerate_fn", [enumerate_executions, thread_enumerate])
def test_reduction_keeps_invocations_at_a_dead_end_step(enumerate_fn):
    # `t = 1` is local-only, and on the third pass its back edge exceeds the
    # unroll bound; `hi` can still preempt there and see x == 3
    p = parse_program(
        "global x = 0;"
        "handler lo priority 0 { local t = 0; while (*) { x = x + 1; t = 1; } }"
        "handler hi priority 1 { assert(x <= 2); }"
    )
    result = enumerate_fn(p, OracleConfig(max_invocations=1, unroll=2,
                                          record_assert_values=True))
    assert "hi#0" in result.violated
    assert (NodeId("hi", 1), "x", 3) in result.assert_values


def test_a_store_conflicts_with_a_handler_that_only_reads_it():
    # `hi` writes nothing, but it may read x between the two stores of `lo`,
    # so neither store may step alone while `hi` has budget left
    p = parse_program(
        "global x = 0;"
        "handler lo priority 0 { x = 1; x = 2; }"
        "handler hi priority 1 { assert(x >= 0); }"
    )
    result = enumerate_executions(p, OracleConfig(max_invocations=1, track_flows=True))
    assert {(load, store) for load, store, _ in result.flows} == {
        (NodeId("hi", 1), NodeId("lo", 1)), (NodeId("hi", 1), NodeId("lo", 2))}


def test_threads_interleave_live_frames_after_every_budget_is_spent():
    # `b` sees x == 1 only if it starts, and so spends the last budget, while
    # `a` sits between its stores; from there both frames must still interleave
    p = parse_program(
        "global x = 0;"
        "handler a priority 0 { x = 1; x = 0; }"
        "handler b priority 0 { assert(x == 0); }"
    )
    assert "b#0" in thread_enumerate(p, OracleConfig(max_invocations=1)).violated
    assert "b#0" not in enumerate_executions(p, OracleConfig(max_invocations=1)).violated


def _nearest_visible(g, i, invisible):
    """The nodes reached from node i's successors over invisible nodes only, by a walk."""
    found, todo, walked = set(), list(g.succs[i]), set()
    while todo:
        n = todo.pop()
        if n not in walked:
            walked.add(n)
            if n in invisible:
                todo.extend(g.succs[n])
            else:
                found.add(n)
    return found


def test_step_targets_are_the_nearest_visible_nodes():
    # Every row's targets and every handler's starts are the nearest visible
    # nodes (-1 for the exit), each listed once, with the flags of the edge
    # into them; no target and no start is an invisible node.
    programs = ([load_corpus(name) for name in CORPUS_NAMES]
                + [parse_program(text) for text in INVISIBLE_NODE_SHAPES.values()]
                + [random_program(random.Random(seed)) for seed in range(200)])
    shapes = {"several starts": 0, "a start at the exit": 0, "a target reached twice": 0,
              "an invisible arm whose condition holds": 0}
    for p in programs:
        enumerator = _Enumerator(p, OracleConfig(), interrupt=True)
        walk = _Unreduced(p, OracleConfig(), True)._eval_cmp
        for g, rows, (_, starts) in zip(enumerator.cfgs, enumerator.table, enumerator.starts):
            last = len(g.nodes) - 1
            # assumptions on `*`, or on a condition that reads no variable and holds
            holds = {i for i, ins in enumerate(g.instr) if type(ins) is Assume and (
                type(ins.cond) is Nondet or (not any(cond_vars(ins.cond))
                                             and walk(ins.cond, (), ())))}
            invisible = {
                i for i, ins in enumerate(g.instr)
                if i != last and not any((i, s) in g.back_edges for s in g.succs[i])
                and ((type(ins) is Skip and i not in g.loop_heads)
                     or (i in holds and i not in g.loop_exits))}
            shapes["an invisible arm whose condition holds"] += any(
                type(g.instr[i].cond) is not Nondet for i in holds & invisible)

            def nodes(targets):
                found = [last if t < 0 else t for t in targets]
                assert len(set(found)) == len(found), (g.handler, targets)
                assert not invisible & set(found), (g.handler, targets)
                return set(found)

            for i, (_, _, steps, *_) in enumerate(rows):
                want = _nearest_visible(g, i, invisible)
                assert nodes(t for t, _, _ in steps) == want, (g.handler, i)
                for t, back, exited in steps:
                    assert back == ((i, t) in g.back_edges), (g.handler, i, t)
                    assert exited == g.loop_exits.get(t, -1), (g.handler, i, t)
                shapes["a target reached twice"] += len(steps) < sum(
                    len(_nearest_visible(g, s, invisible)) if s in invisible else 1
                    for s in g.succs[i])
            assert nodes(starts) == _nearest_visible(g, 0, invisible), g.handler
            shapes["several starts"] += len(starts) > 1
            shapes["a start at the exit"] += -1 in starts
    assert all(shapes.values()), shapes


@pytest.mark.parametrize("enumerate_fn", [enumerate_executions, thread_enumerate])
@pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
def test_search_restores_the_callers_gc_setting(enumerate_fn, enabled):
    # the search pauses the cyclic collector; it must hand back the caller's setting
    p = load_corpus("three_priorities")
    was = gc.isenabled()
    try:
        if enabled:
            gc.enable()
        else:
            gc.disable()
        enumerate_fn(p, OracleConfig(max_invocations=1))
        assert gc.isenabled() is enabled
        with pytest.raises(OracleLimitError):
            enumerate_fn(p, OracleConfig(max_invocations=2, max_states=10))
        assert gc.isenabled() is enabled
    finally:
        if was:
            gc.enable()
        else:
            gc.disable()
