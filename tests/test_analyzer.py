import json
import random

import pytest

from irqverify import (
    AnalysisConfig,
    OracleConfig,
    analyze,
    analyze_local,
    analyze_program,
    build_cfg,
    collect_interferences,
    enumerate_executions,
    leq,
    parse_program,
)
from irqverify.analyzer import assert_nodes, plan_handler
from irqverify.cfg import NodeId
from irqverify.domain import AbstractState, Interval
from irqverify.feasibility import FeasibilityResult
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
    on = analyze_program(p, AnalysisConfig(pruning=True))
    off = analyze_program(p, AnalysisConfig(pruning=False))
    assert verdict_map(on) == expected["verdicts"]
    assert verdict_map(off) == expected["verdicts_no_pruning"]
    assert {"total": on.pairs_total, "pruned": on.pairs_pruned} == expected["pairs"]


def test_pair_statistics_detail():
    p = load_corpus("three_priorities")
    report = analyze_program(p)
    assert (report.pairs_total, report.pairs_pruned) == (3, 1)
    assert report.pairs_ratio == pytest.approx(1 / 3)
    single = parse_program("global x = 0; handler h priority 0 { x = 1; assert(x == 1); }")
    r = analyze_program(single)
    assert (r.pairs_total, r.pairs_pruned, r.pairs_ratio) == (0, 0, 0.0)


def test_interference_sizes_reported():
    p = load_corpus("three_priorities")
    report = analyze_program(p)
    assert report.interference_sizes == {"x": 2, "y": 1}


# ---------------------------------------------------------------------------
# Local analysis
# ---------------------------------------------------------------------------


def local_states(g, interference, feasibility, entry):
    """analyze_local on g's plan, as a node -> state map."""
    plan = plan_handler(g, feasibility)
    return dict(zip(plan.nodes, analyze_local(plan, interference, AnalysisConfig(), entry)))


def test_local_analysis_without_interference_is_sequential():
    p = parse_program(
        "global x = 0; global y = 0;"
        "handler h priority 0 { x = 1; y = x + 2; if (*) { y = 0; } assert(y <= 3); }"
    )
    g = build_cfg(p.handlers[0])
    entry = AbstractState({"x": Interval.const(0), "y": Interval.const(0)})
    states = local_states(g, {}, None, entry)
    check = next(n for n in g.nodes if isinstance(g.instr[n], Assert))
    assert states[check].get("y") == Interval(0, 3)
    assert states[check].get("x") == Interval.const(1)


def test_local_analysis_joins_interference_at_loads():
    p = load_corpus("loop_store_overwrite")
    g = build_cfg(p.handler("irq0"))
    load_node = NodeId("irq0", 1)
    store_one = NodeId("irq1", 4)
    # irq1's store classes: store_one (irq1:4) is intercepted and writes 1,
    # store_zero (irq1:5) is not and writes 0
    interference = {"irq1": {("x", True): Interval.const(1), ("x", False): Interval.const(0)}}
    entry = AbstractState({"x": Interval.const(0), "b": Interval.const(0)})
    # the covered load rejects the intercepted store_one and admits store_zero
    rejecting = FeasibilityResult(covered_load=frozenset({(load_node, "x")}),
                                  intercepted_store=frozenset({(store_one, "x")}),
                                  priority={"irq0": 0, "irq1": 1},
                                  pairs_total=2, pairs_pruned=1)
    assert plan_handler(g, rejecting).reads[load_node.index] == (("x", True),)
    check = NodeId("irq0", 2)

    pruned = local_states(g, interference, rejecting, entry)
    assert pruned[check].get("b") == Interval.const(0)

    plain = local_states(g, interference, None, entry)
    assert plain[check].get("b") == Interval(0, 1)


def test_loop_widening_and_narrowing_terminate_with_bounds():
    p = parse_program(
        "global x = 0;"
        "handler h priority 0 { while (x < 10) { x = x + 1; } assert(x >= 10); }"
    )
    g = build_cfg(p.handlers[0])
    entry = AbstractState({"x": Interval.const(0)})
    states = local_states(g, {}, None, entry)
    check = next(n for n in g.nodes if isinstance(g.instr[n], Assert))
    # narrowing recovers the exact exit value after widening to +inf
    assert states[check].get("x") == Interval.const(10)


def test_collect_interferences_values_and_unreachable_stores():
    p = load_corpus("three_priorities")
    g = build_cfg(p.handler("irq_M"))
    plan = plan_handler(g, None)
    entry = AbstractState({"x": Interval.const(0), "y": Interval.const(0)})
    states = analyze_local(plan, {}, AnalysisConfig(), entry)
    assert plan.stores == ((1, ("y", False)), (2, ("x", False)))
    assert collect_interferences(plan, states) == {
        ("x", False): Interval.const(1),
        ("y", False): Interval.const(1),
    }

    q = parse_program(
        "global x = 0;"
        "handler h priority 0 { if (0 == 1) { x = 5; } if (*) { x = 2; } }"
    )
    plan_q = plan_handler(build_cfg(q.handlers[0]), None)
    sq = analyze_local(plan_q, {}, AnalysisConfig(), AbstractState({"x": Interval.const(0)}))
    assert len(plan_q.stores) == 2
    # the reachable branch store is the whole hull: the dead x = 5 adds nothing
    assert collect_interferences(plan_q, sq) == {("x", False): Interval.const(2)}


# ---------------------------------------------------------------------------
# Whole-program behavior
# ---------------------------------------------------------------------------


def test_reports_are_deterministic():
    p = load_corpus("branch_overwrites")
    a = analyze_program(p)
    b = analyze_program(p)
    assert a == b
    assert a.to_json() == b.to_json()


def test_report_json_schema():
    p = load_corpus("three_priorities")
    payload = json.loads(analyze_program(p).to_json())
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
    report = analyze_program(p)
    assert verdict_map(report) == {"h#0": "Warning"}
    oracle = enumerate_executions(p, OracleConfig(max_invocations=2))
    assert "h#0" in oracle.violated  # second invocation sees x == 1, stores 2


def test_cross_round_widening_terminates_unbounded_growth():
    p = parse_program("global x = 0; handler h priority 0 { x = x + 1; }")
    report = analyze_program(p, AnalysisConfig(max_outer=4))
    assert report.iterations <= 10


def test_higher_priority_warning_survives_pruning():
    p = load_corpus("branch_overwrites")
    result = analyze(p)
    states = result.node_states
    nodes = assert_nodes(result.cfgs)
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
