import json
import random

import pytest

from irqverify import (
    AnalysisConfig,
    OracleConfig,
    analyze,
    analyze_local,
    collect_interferences,
    enumerate_executions,
    leq,
    parse_program,
)
from irqverify.analyzer import admitted_hulls, plan_handler, prepare
from irqverify.cfg import NodeId
from irqverify.domain import AbstractState, Interval
from irqverify.ir import Assert

from conftest import CORPUS_NAMES, load_corpus, load_expected
from progen import random_program


def verdict_map(report):
    return {v.assertion_id: v.verdict for v in report.verdicts}


# ---------------------------------------------------------------------------
# Golden corpus verdicts
# ---------------------------------------------------------------------------


def test_corpus_verdicts_match_expected(corpus_name):
    p = load_corpus(corpus_name)
    expected = load_expected(corpus_name)
    on = analyze(p, AnalysisConfig(pruning=True)).report
    off = analyze(p, AnalysisConfig(pruning=False)).report
    assert verdict_map(on) == expected["verdicts"]
    assert verdict_map(off) == expected["verdicts_no_pruning"]
    assert {"total": on.pairs_total, "pruned": on.pairs_pruned} == expected["pairs"]


def test_pair_statistics_detail():
    p = load_corpus("three_priorities")
    report = analyze(p).report
    assert (report.pairs_total, report.pairs_pruned) == (3, 1)
    assert report.pairs_ratio == pytest.approx(1 / 3)
    single = parse_program("global x = 0; handler h priority 0 { x = 1; assert(x == 1); }")
    r = analyze(single).report
    assert (r.pairs_total, r.pairs_pruned, r.pairs_ratio) == (0, 0, 0.0)


# ---------------------------------------------------------------------------
# Local analysis
# ---------------------------------------------------------------------------


def handler_plan(program, handler, pruning=True):
    """The plan `analyze` builds for one handler of program."""
    cfgs, _, feasibility = prepare(program)
    return plan_handler(next(g for g in cfgs if g.handler == handler), feasibility, pruning)


def local_states(plan, interference, entry):
    """analyze_local on a plan and the hulls it admits of `interference`, as a node -> state map."""
    admitted = admitted_hulls(plan, interference)
    return dict(zip(plan.graph.nodes, analyze_local(plan, admitted, AnalysisConfig(), entry)))


def assert_node(plan):
    """The one assertion node of a plan's graph."""
    (check,) = (n for n, ins in zip(plan.graph.nodes, plan.graph.instr) if isinstance(ins, Assert))
    return check


def test_local_analysis_without_interference_is_sequential():
    p = parse_program(
        "global x = 0; global y = 0;"
        "handler h priority 0 { x = 1; y = x + 2; if (*) { y = 0; } assert(y <= 3); }"
    )
    plan = handler_plan(p, "h")
    entry = AbstractState({"x": Interval.const(0), "y": Interval.const(0)})
    states = local_states(plan, {}, entry)
    check = assert_node(plan)
    assert states[check].get("y") == Interval(0, 3)
    assert states[check].get("x") == Interval.const(1)


def test_local_analysis_joins_interference_at_loads():
    p = load_corpus("loop_store_overwrite")
    load_node = NodeId("irq0", 1)
    # irq1's store classes: irq1:4 is intercepted and writes 1, irq1:5 is not
    # and writes 0
    store_one = ("x", "irq1", True)
    store_zero = ("x", "irq1", False)
    interference = {store_one: Interval.const(1), store_zero: Interval.const(0)}
    entry = AbstractState({"x": Interval.const(0), "b": Interval.const(0)})
    check = NodeId("irq0", 2)

    # irq0:1 is uncovered; rule 3 rejects the intercepted store_one because
    # the lower-priority irq0 cannot preempt irq1 between its two stores
    pruned_plan = handler_plan(p, "irq0")
    load_class = ("x", "irq0", False)
    assert pruned_plan.reads[load_node.index] == (load_class,)
    assert pruned_plan.sources[load_class] == (store_zero,)
    pruned = local_states(pruned_plan, interference, entry)
    assert pruned[check].get("b") == Interval.const(0)

    plain_plan = handler_plan(p, "irq0", pruning=False)
    assert set(plain_plan.sources[load_class]) == {store_one, store_zero}
    plain = local_states(plain_plan, interference, entry)
    assert plain[check].get("b") == Interval(0, 1)


def test_loop_widening_and_narrowing_terminate_with_bounds():
    p = parse_program(
        "global x = 0;"
        "handler h priority 0 { while (x < 10) { x = x + 1; } assert(x >= 10); }"
    )
    plan = handler_plan(p, "h")
    entry = AbstractState({"x": Interval.const(0)})
    states = local_states(plan, {}, entry)
    check = assert_node(plan)
    # narrowing recovers the exact exit value after widening to +inf
    assert states[check].get("x") == Interval.const(10)


def test_collect_interferences_values_and_unreachable_stores():
    plan = handler_plan(load_corpus("three_priorities"), "irq_M")
    entry = AbstractState({"x": Interval.const(0), "y": Interval.const(0)})
    states = analyze_local(plan, {}, AnalysisConfig(), entry)
    assert plan.stores == ((1, ("y", "irq_M", False)), (2, ("x", "irq_M", False)))
    assert collect_interferences(plan, states) == {
        ("x", "irq_M", False): Interval.const(1),
        ("y", "irq_M", False): Interval.const(1),
    }

    q = parse_program(
        "global x = 0;"
        "handler h priority 0 { if (0 == 1) { x = 5; } if (*) { x = 2; } }"
    )
    plan_q = handler_plan(q, "h")
    sq = analyze_local(plan_q, {}, AnalysisConfig(), AbstractState({"x": Interval.const(0)}))
    assert len(plan_q.stores) == 2
    # the reachable branch store is the whole hull: the dead x = 5 adds nothing
    assert collect_interferences(plan_q, sq) == {("x", "h", False): Interval.const(2)}


# ---------------------------------------------------------------------------
# Whole-program behavior
# ---------------------------------------------------------------------------


def test_reports_are_deterministic():
    p = load_corpus("branch_overwrites")
    a = analyze(p).report
    b = analyze(p).report
    assert a == b
    assert a.to_json() == b.to_json()


def test_report_json_schema():
    p = load_corpus("three_priorities")
    payload = json.loads(analyze(p).report.to_json())
    assert list(payload.keys()) == ["verdicts", "pairs", "iterations", "pruning_enabled"]
    assert list(payload["pairs"].keys()) == ["total", "pruned", "ratio"]
    assert payload["pruning_enabled"] is True
    assert all(list(v.keys()) == ["assertion_id", "handler", "verdict"] for v in payload["verdicts"])


def test_config_validation():
    with pytest.raises(ValueError):
        AnalysisConfig(max_outer=0)
    with pytest.raises(ValueError):
        AnalysisConfig(widen_delay=0)


def test_self_reinvocation_is_modeled():
    # a handler observing its own previous run through a fresh invocation
    p = parse_program("global x = 0; handler h priority 0 { x = x + 1; assert(x <= 1); }")
    report = analyze(p).report
    assert verdict_map(report) == {"h#0": "Warning"}
    oracle = enumerate_executions(p, OracleConfig(max_invocations=2))
    assert "h#0" in oracle.violated  # second invocation sees x == 1, stores 2


def test_cross_round_widening_terminates_unbounded_growth():
    p = parse_program("global x = 0; handler h priority 0 { x = x + 1; }")
    report = analyze(p, AnalysisConfig(max_outer=4)).report
    assert report.iterations <= 10


def test_higher_priority_warning_survives_pruning():
    p = load_corpus("branch_overwrites")
    result = analyze(p)
    states = result.node_states
    nodes = {ins.uid: n for g in result.cfgs for n, ins in zip(g.nodes, g.instr)
             if isinstance(ins, Assert)}
    # the high handler reads y while the medium one may have left y = 0
    assert states[nodes["irq_H#0"]].get("y") == Interval(0, 1)
    # the medium handler's read of x is pinned to 1 by pruning
    assert states[nodes["irq_M#0"]].get("x") == Interval.const(1)


def test_pruning_refines_on_corpus_and_random_programs():
    programs = [load_corpus(name) for name in CORPUS_NAMES]
    programs += [random_program(random.Random(seed)) for seed in range(40)]
    for p in programs:
        with_pruning = analyze(p, AnalysisConfig(pruning=True))
        without = analyze(p, AnalysisConfig(pruning=False))
        for node, state in with_pruning.node_states.items():
            assert leq(state, without.node_states[node])
        proved_without = {v.assertion_id for v in without.report.verdicts if v.verdict == "Proved"}
        proved_with = {v.assertion_id for v in with_pruning.report.verdicts if v.verdict == "Proved"}
        assert proved_without <= proved_with


class _NoMemo(dict):
    """A memo that keeps nothing, so every `analyze_local` call runs."""

    def __setitem__(self, key, value):
        pass


def test_shared_memo_is_exact():
    # compare's two analyses share one memo, and a third with another widening delay
    # joins them here; each must equal a run that computes every call
    programs = [(name, load_corpus(name)) for name in CORPUS_NAMES]
    programs += [(f"progen seed {seed}", random_program(random.Random(seed))) for seed in range(200)]
    configs = [AnalysisConfig(), AnalysisConfig(pruning=False), AnalysisConfig(widen_delay=1)]
    for label, p in programs:
        prepared = prepare(p)
        memo = {}
        for config in configs:
            shared = analyze(p, config, prepared, memo)
            alone = analyze(p, config, prepared, _NoMemo())
            assert shared.report == alone.report, (label, config)
            assert shared.node_states == alone.node_states, (label, config)


@pytest.mark.parametrize("name", ["covered_only", "uncovered_pair"])
def test_shared_memo_skips_the_plain_fixpoint_when_nothing_is_pruned(name, monkeypatch):
    import irqverify.analyzer as analyzer_mod

    calls = []
    real = analyzer_mod.analyze_local

    def counted(*args):
        calls.append(args[0].graph.handler)
        return real(*args)

    monkeypatch.setattr(analyzer_mod, "analyze_local", counted)
    p = load_corpus(name)
    prepared = prepare(p)
    memo = {}
    pruned = analyze(p, AnalysisConfig(), prepared, memo)
    assert pruned.report.pairs_pruned == 0 and calls
    calls.clear()
    analyze(p, AnalysisConfig(pruning=False), prepared, memo)
    assert calls == []


def test_analysis_sound_against_oracle_on_corpus():
    for name in CORPUS_NAMES:
        p = load_corpus(name)
        expected = load_expected(name)
        oracle = enumerate_executions(
            p, OracleConfig(max_invocations=expected["oracle"]["budget"], unroll=2,
                            track_flows=True, record_assert_values=True))
        for config in (AnalysisConfig(pruning=True), AnalysisConfig(pruning=False)):
            result = analyze(p, config)
            proved = {v.assertion_id for v in result.report.verdicts if v.verdict == "Proved"}
            assert proved & oracle.violated == set()
            nodes = result.node_states
            for (node, var, value) in oracle.assert_values:
                assert nodes[node].get(var).contains(value), (name, node, var, value)
