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
from irqverify.analyzer import admitted_hulls, prepare
from irqverify.cfg import NodeId
from irqverify.cli import _render_report
from irqverify.domain import AbstractState, Interval
from irqverify.ir import Assert

from certificate import certificate_problems
from conftest import CORPUS_NAMES, load_corpus, load_expected, node_states
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


def handler_table(program, handler):
    """One handler's graph and the class table `analyze` reads it with."""
    facts, feasibility = prepare(program)
    return next(f.graph for f in facts if f.handler == handler), feasibility


def unpruned_sources(feasibility):
    """Every load class's store classes, admitted or rejected: what it reads without pruning."""
    return {cls: ok + feasibility.rejected[cls] for cls, ok in feasibility.admitted.items()}


def local_states(g, feasibility, interference, entry, sources=None):
    """analyze_local on g and the hulls its load classes read of `interference`
    (from `sources`, the admitted store classes by default), as a node -> state map."""
    load_classes = feasibility.load_classes[g.handler]
    admitted = admitted_hulls(load_classes, sources or feasibility.admitted, interference)
    return dict(zip(g.nodes, analyze_local(g, load_classes, admitted, AnalysisConfig(), entry)))


def assert_node(g):
    """The one assertion node of a graph."""
    (check,) = (n for n, ins in zip(g.nodes, g.instr) if isinstance(ins, Assert))
    return check


def test_local_analysis_without_interference_is_sequential():
    p = parse_program(
        "global x = 0; global y = 0;"
        "handler h priority 0 { x = 1; y = x + 2; if (*) { y = 0; } assert(y <= 3); }"
    )
    g, feasibility = handler_table(p, "h")
    entry = AbstractState({"x": Interval.const(0), "y": Interval.const(0)})
    states = local_states(g, feasibility, {}, entry)
    check = assert_node(g)
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
    g, feasibility = handler_table(p, "irq0")
    load_class = ("x", "irq0", False)
    assert [cls for cls, sites in feasibility.load_classes["irq0"].items()
            if load_node.index in sites] == [load_class]
    assert feasibility.admitted[load_class] == [store_zero]
    pruned = local_states(g, feasibility, interference, entry)
    assert pruned[check].get("b") == Interval.const(0)

    sources = unpruned_sources(feasibility)
    assert set(sources[load_class]) == {store_one, store_zero}
    plain = local_states(g, feasibility, interference, entry, sources)
    assert plain[check].get("b") == Interval(0, 1)


def test_loop_widening_and_narrowing_terminate_with_bounds():
    p = parse_program(
        "global x = 0;"
        "handler h priority 0 { while (x < 10) { x = x + 1; } assert(x >= 10); }"
    )
    g, feasibility = handler_table(p, "h")
    entry = AbstractState({"x": Interval.const(0)})
    states = local_states(g, feasibility, {}, entry)
    check = assert_node(g)
    # narrowing recovers the exact exit value after widening to +inf
    assert states[check].get("x") == Interval.const(10)


def test_loop_free_handler_transfers_each_reachable_node_once(monkeypatch):
    import irqverify.analyzer as analyzer_mod

    calls = []
    real = analyzer_mod.transfer

    def counted(ins, state):
        calls.append(ins)
        return real(ins, state)

    monkeypatch.setattr(analyzer_mod, "transfer", counted)
    p = parse_program(
        "global x = 0;"
        "handler h priority 0 { x = 1; if (x == 2) { x = 3; } else { skip; }"
        " if (*) { x = x + 1; } else { x = x - 1; } local t = x; assert(t <= 2); }"
    )
    g, feasibility = handler_table(p, "h")
    assert not g.loop_heads
    states = list(local_states(g, feasibility, {}, AbstractState({"x": Interval.const(0)})).values())
    # a node is reachable when its incoming state is not bottom; `x = 3` is not
    reachable = [i for i in range(len(g.nodes))
                 if i == 0 or any(not states[p].is_bottom for p in g.preds[i])]
    assert len(reachable) == len(g.nodes) - 1
    # widening never ran, so the descending pass recomputes nothing
    assert len(calls) == len(reachable)


def test_widen_early_reference_programs_overshoot_and_do_not(monkeypatch):
    """The reference comparison under `widen-early` reaches both branches of the
    descending pass: local solves where widening overshot the join (stale
    nodes are recomputed) and solves where it never did (every node is skipped)."""
    import irqverify.analyzer as analyzer_mod
    from test_feasibility_reference import _fixpoint_programs

    solves = {"overshot": 0, "exact": 0}
    overshot = []
    real_local, real_widen = analyzer_mod.analyze_local, analyzer_mod.widen

    def local(*args):
        overshot.clear()
        states = real_local(*args)
        solves["overshot" if overshot else "exact"] += 1
        return states

    def widen(older, newer):
        out = real_widen(older, newer)
        if out != newer:
            overshot.append(out)
        return out

    monkeypatch.setattr(analyzer_mod, "analyze_local", local)
    monkeypatch.setattr(analyzer_mod, "widen", widen)
    config = AnalysisConfig(widen_delay=1, max_outer=1)
    for _, program in _fixpoint_programs():
        analyze(program, config)
    assert solves["overshot"] > 0 and solves["exact"] > 0, solves


def test_collect_interferences_values_and_unreachable_stores():
    g, feasibility = handler_table(load_corpus("three_priorities"), "irq_M")
    entry = AbstractState({"x": Interval.const(0), "y": Interval.const(0)})
    states = analyze_local(g, feasibility.load_classes["irq_M"], {}, AnalysisConfig(), entry)
    store_classes = feasibility.store_classes["irq_M"]
    assert store_classes == {("y", "irq_M", False): [1], ("x", "irq_M", False): [2]}
    assert collect_interferences(store_classes, states) == {
        ("x", "irq_M", False): Interval.const(1),
        ("y", "irq_M", False): Interval.const(1),
    }

    q = parse_program(
        "global x = 0;"
        "handler h priority 0 { if (0 == 1) { x = 5; } if (*) { x = 2; } }"
    )
    gq, feasibility_q = handler_table(q, "h")
    sq = analyze_local(gq, feasibility_q.load_classes["h"], {}, AnalysisConfig(),
                       AbstractState({"x": Interval.const(0)}))
    store_classes_q = feasibility_q.store_classes["h"]
    assert [len(sites) for sites in store_classes_q.values()] == [2]
    # the reachable branch store is the whole hull: the dead x = 5 adds nothing
    assert collect_interferences(store_classes_q, sq) == {("x", "h", False): Interval.const(2)}


# ---------------------------------------------------------------------------
# Whole-program behavior
# ---------------------------------------------------------------------------


def test_reports_are_deterministic():
    p = load_corpus("branch_overwrites")
    a = analyze(p).report
    b = analyze(p).report
    assert a == b
    assert _render_report(a, True) == _render_report(b, True)


def test_report_json_schema():
    p = load_corpus("three_priorities")
    payload = json.loads(_render_report(analyze(p).report, True))
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
    states = node_states(result)
    nodes = {ins.uid: n for f in result.facts for n, ins in zip(f.graph.nodes, f.graph.instr)
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
        plain_states = node_states(without)
        for node, state in node_states(with_pruning).items():
            assert leq(state, plain_states[node])
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
            assert node_states(shared) == node_states(alone), (label, config)


@pytest.mark.parametrize("name", ["covered_only", "uncovered_pair"])
def test_shared_memo_skips_the_plain_fixpoint_when_nothing_is_pruned(name, monkeypatch):
    import irqverify.analyzer as analyzer_mod

    calls = []
    real = analyzer_mod.analyze_local

    def counted(*args):
        calls.append(args[0].handler)
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



def test_converged_round_merges_only_recomputed_handlers(monkeypatch):
    # a memo hit on the key a handler had the round before returns the list it
    # merged then, which its states already cover: the merge is skipped, so the
    # converged round joins only the nodes of handlers whose fixpoint it recomputed
    import irqverify.analyzer as analyzer_mod

    events = []  # per analysis: "round", a recomputed graph, or None for a join outside analyze_local
    inside = []
    real_join, real_local = analyzer_mod.join, analyzer_mod.analyze_local
    real_collect = analyzer_mod.collect_interferences

    def counted_join(a, b):
        if not inside:
            events.append(None)
        return real_join(a, b)

    def marked_local(g, *args):
        events.append(g)
        inside.append(g)
        try:
            return real_local(g, *args)
        finally:
            inside.pop()

    def marked_collect(*args):  # called once per handler after the round's entry joins
        events.append("round")
        return real_collect(*args)

    monkeypatch.setattr(analyzer_mod, "join", counted_join)
    monkeypatch.setattr(analyzer_mod, "analyze_local", marked_local)
    monkeypatch.setattr(analyzer_mod, "collect_interferences", marked_collect)
    programs = [load_corpus(name) for name in CORPUS_NAMES]
    programs += [random_program(random.Random(seed)) for seed in range(200)]
    runs = quiet = 0
    for p in programs:
        for config in (AnalysisConfig(), AnalysisConfig(pruning=False)):
            events.clear()
            analyze(p, config)
            last = len(events) - events[::-1].index("round")
            final = events[last:]  # the converged round's fixpoints and merge joins
            recomputed = [g for g in final if g is not None]
            assert final.count(None) == sum(len(g.nodes) for g in recomputed)
            runs += 1
            quiet += not recomputed
    # most analyses end on a round whose every handler hits last round's key
    assert quiet > runs // 2, (quiet, runs)


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
            nodes = node_states(result)
            for (node, var, value) in oracle.assert_values:
                assert nodes[node].get(var).contains(value), (name, node, var, value)


def test_certificate_rejects_a_result_below_the_fixpoint():
    # `certificate.py` passes every analysis of the node-state digest; here it
    # must fail a result whose final states miss what the equations reach
    p = load_corpus("three_priorities")
    config = AnalysisConfig()
    result = analyze(p, config)
    assert certificate_problems(p, config, result) == []
    states = [list(post) for post in result.states]
    states[0][-1] = AbstractState.bottom()  # the first handler never returns
    problems = certificate_problems(p, config, result._replace(states=states))
    assert problems and all("does not cover" in line for line in problems)
