"""Acceptance suite: one test per acceptance criterion, one line of output each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
PASS/FAIL lines alongside pytest's own report.
"""

import functools
import json
import random
import subprocess
import sys
import time

import pytest

from irqverify import (
    AnalysisConfig,
    NodeId,
    OracleConfig,
    analyze,
    collect_traces,
    dominators,
    enumerate_executions,
    leq,
    parse_program,
    post_dominators,
    rejected_pairs,
)
from irqverify.domain import join as state_join, widen as state_widen

from cfg_reference import mask_pairs
from conftest import CORPUS_NAMES, corpus_path, load_corpus, node_states
from progen import oracle_budget, random_program
from test_cfg import _small_random_cfgs, brute_dominators, brute_post_dominators
from test_domain import random_interval, random_state
from test_feasibility import intercepted_stores

SWEEP_SIZE = 500
BUDGET3_SWEEP_SIZE = 100
FOUR_HANDLER_SEEDS = range(1000, 1040)


def criterion(num, label):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {num:02d} {label}: FAIL")
                raise
            print(f"ACCEPTANCE {num:02d} {label}: PASS")
        return wrapper
    return deco


def verdicts_of(program, pruning=True):
    report = analyze(program, AnalysisConfig(pruning=pruning)).report
    return {v.assertion_id: v.verdict for v in report.verdicts}


# ---------------------------------------------------------------------------
# Criteria 1-3: golden verdicts
# ---------------------------------------------------------------------------


@criterion(1, "three-priority golden verdicts")
def test_golden_three_priorities():
    p = load_corpus("three_priorities")
    start = time.perf_counter()
    with_pruning = verdicts_of(p, pruning=True)
    without = verdicts_of(p, pruning=False)
    elapsed = time.perf_counter() - start
    assert with_pruning == {"irq_H#0": "Warning", "irq_L#0": "Warning", "irq_M#0": "Proved"}
    assert without["irq_M#0"] == "Warning"
    assert elapsed < 1.0


@criterion(2, "branch-overwrite golden verdicts")
def test_golden_branch_overwrites():
    p = load_corpus("branch_overwrites")
    start = time.perf_counter()
    with_pruning = verdicts_of(p, pruning=True)
    without = verdicts_of(p, pruning=False)
    elapsed = time.perf_counter() - start
    assert with_pruning == {"irq_M#0": "Proved", "irq_L#0": "Proved", "irq_H#0": "Warning"}
    assert without == {"irq_M#0": "Warning", "irq_L#0": "Warning", "irq_H#0": "Warning"}
    assert elapsed < 1.0


@criterion(3, "loop overwrite proved via post-dominance")
def test_golden_loop_case():
    p = load_corpus("loop_store_overwrite")
    start = time.perf_counter()
    result = analyze(p, AnalysisConfig(pruning=True))
    without = verdicts_of(p, pruning=False)
    elapsed = time.perf_counter() - start
    assert {v.assertion_id: v.verdict for v in result.report.verdicts} == {"irq0#0": "Proved"}
    assert without == {"irq0#0": "Warning"}
    load_x, store_one = NodeId("irq0", 1), NodeId("irq1", 4)
    assert (load_x, store_one, "x") in rejected_pairs(result.feasibility)
    # justified by interception: the x=0 store post-dominates the x=1 store
    assert (store_one, "x") in intercepted_stores(result.feasibility)
    assert elapsed < 1.0


# ---------------------------------------------------------------------------
# Criterion 4: rejection matrix, both priority orderings
# ---------------------------------------------------------------------------


@criterion(4, "rejection matrix over both priority orderings")
def test_rejection_matrix_eight_cases():
    def program(covered, intercepted, irq1_higher):
        load_stmt = "x = 1;\n  assert(x == 1);" if covered else "skip;\n  assert(x == 0);"
        store_stmt = "x = 2;\n  x = 3;" if intercepted else "skip;\n  x = 3;"
        p0, p1 = (0, 1) if irq1_higher else (1, 0)
        return parse_program(
            f"global x = 0;\n"
            f"handler irq0 priority {p0} {{\n  {load_stmt}\n}}\n"
            f"handler irq1 priority {p1} {{\n  {store_stmt}\n}}\n")

    cases = 0
    for covered in (True, False):
        for intercepted in (True, False):
            for higher in (True, False):
                p = program(covered, intercepted, higher)
                result = analyze(p)
                rejected = rejected_pairs(result.feasibility)
                load = NodeId("irq0", 2)
                store = NodeId("irq1", 1 if intercepted else 2)
                if covered and intercepted:
                    want = True
                elif covered:
                    want = not higher  # store's handler cannot slip between store and load
                elif intercepted:
                    want = higher  # load's handler cannot slip between the two stores
                else:
                    want = False
                assert ((load, store, "x") in rejected) == want, (covered, intercepted, higher)
                cases += 1
    assert cases == 8


# ---------------------------------------------------------------------------
# Criterion 5: trace counts
# ---------------------------------------------------------------------------


@criterion(5, "interleaving trace counts: 2 interrupt vs 3 thread")
def test_trace_counts():
    p = load_corpus("trace_subset")
    cfg = OracleConfig(max_invocations=1)
    start = NodeId("run0", 1)
    interrupt = {t for t in collect_traces(p, cfg) if len(t) == 4 and t[0] == start}
    threads = {t for t in collect_traces(p, cfg, threads=True) if len(t) == 4 and t[0] == start}
    a1, a2, b1, b2 = start, NodeId("run0", 2), NodeId("run1", 1), NodeId("run1", 2)
    assert interrupt == {(a1, a2, b1, b2), (a1, b1, b2, a2)}
    assert threads == {(a1, a2, b1, b2), (a1, b1, b2, a2), (a1, b1, a2, b2)}


# ---------------------------------------------------------------------------
# Criteria 6-8: random-corpus property sweep (single shared pass)
# ---------------------------------------------------------------------------


def _check_against_oracle(p, budget, label, failures, stats):
    """Record in `failures` every way the analysis of `p` disagrees with the oracle."""
    oracle = enumerate_executions(p, OracleConfig(
        max_invocations=budget, unroll=2, track_flows=True,
        record_assert_values=True, max_executions=400_000))
    pruned = analyze(p, AnalysisConfig(pruning=True))
    plain = analyze(p, AnalysisConfig(pruning=False))

    stats["programs"] += 1
    stats["asserts"] += len(pruned.report.verdicts)
    stats["flows"] += len(oracle.flows)
    rejected = rejected_pairs(pruned.feasibility)
    stats["rejected"] += len(rejected)

    if oracle.flows & rejected:
        failures["rejected_flow"].append(label)
    for result in (pruned, plain):
        proved = {v.assertion_id for v in result.report.verdicts if v.verdict == "Proved"}
        if proved & oracle.violated:
            failures["proved_violated"].append((label, result.report.pruning_enabled))
        states = node_states(result)
        for (node, var, value) in oracle.assert_values:
            if not states[node].get(var).contains(value):
                failures["containment"].append((label, result.report.pruning_enabled,
                                                str(node), var, value))
    plain_states = node_states(plain)
    for node, state in node_states(pruned).items():
        if not leq(state, plain_states[node]):
            failures["refinement"].append((label, str(node)))


def _new_sweep():
    failures = {"rejected_flow": [], "containment": [], "proved_violated": [], "refinement": []}
    stats = {"programs": 0, "asserts": 0, "flows": 0, "rejected": 0}
    return failures, stats


def _sweep_line(name, stats):
    return (f"[{name}: {stats['programs']} programs, {stats['asserts']} assertions, "
            f"{stats['flows']} flows, {stats['rejected']} rejected pairs]")


@pytest.fixture(scope="module")
def sweep():
    failures, stats = _new_sweep()
    for seed in range(SWEEP_SIZE):
        rng = random.Random(seed)
        p = random_program(rng)
        _check_against_oracle(p, oracle_budget(rng, p), seed, failures, stats)
    print(_sweep_line("sweep", stats))
    return failures


@criterion(6, "rejected pairs never observed concretely (500 programs)")
def test_rejected_pairs_unobservable(sweep):
    assert sweep["rejected_flow"] == []


@criterion(7, "analyzer sound against the oracle (both modes)")
def test_analyzer_soundness(sweep):
    assert sweep["containment"] == []
    assert sweep["proved_violated"] == []


@criterion(8, "pruning refines every node state")
def test_pruning_refines(sweep):
    assert sweep["refinement"] == []


# ---------------------------------------------------------------------------
# Criterion 9: lattice and dominance property suites
# ---------------------------------------------------------------------------


@criterion(9, "lattice laws, widening stabilization, dominance brute force")
def test_lattice_and_dominance_properties():
    rng = random.Random(99)
    for _ in range(300):
        a, b, c = random_state(rng), random_state(rng), random_state(rng)
        assert state_join(a, b) == state_join(b, a)
        assert state_join(a, state_join(b, c)) == state_join(state_join(a, b), c)
        assert state_join(a, a) == a
        assert leq(a, state_join(a, b)) and leq(b, state_join(a, b))
        assert leq(state_join(a, b), state_widen(a, b))

    for _ in range(300):
        current = random_interval(rng)
        changes = 0
        for _ in range(12):
            step = random_interval(rng)
            widened = current.widen(current.join(step))
            if widened != current:
                changes += 1
                current = widened
        assert changes <= 3

    small = _small_random_cfgs(limit_nodes=12, count=120)
    assert small, "no small graphs generated"
    for g in small:
        assert len(g.nodes) <= 12
        assert mask_pairs(g, dominators(g)) == brute_dominators(g)
        assert mask_pairs(g, post_dominators(g)) == brute_post_dominators(g)


# ---------------------------------------------------------------------------
# Criterion 10: CLI determinism over the corpus
# ---------------------------------------------------------------------------


def _finished(proc: subprocess.Popen) -> subprocess.CompletedProcess:
    stdout, stderr = proc.communicate()
    return subprocess.CompletedProcess(proc.args, proc.returncode, stdout, stderr)


@criterion(10, "byte-identical CLI output across runs")
def test_cli_determinism_full_corpus():
    base = [sys.executable, "-m", "irqverify"]
    subcommands = [
        ["analyze", "--json"],
        ["facts"],
        ["oracle", "--track-flows", "--oracle-budget", "1", "--unroll", "2"],
        ["compare", "--json", "--oracle-budget", "1", "--unroll", "2"],
    ]
    for name in CORPUS_NAMES:
        path = str(corpus_path(name))
        for sub in subcommands:
            # the two runs of a pair run side by side, at most two processes at once
            pair = [subprocess.Popen(base + sub + [path], stdout=subprocess.PIPE,
                                     stderr=subprocess.PIPE) for _ in range(2)]
            first, second = (_finished(proc) for proc in pair)
            assert first.stdout == second.stdout, (name, sub)
            assert first.returncode == second.returncode, (name, sub)
            if "--json" in sub or sub[0] == "oracle":
                json.loads(first.stdout)  # well-formed machine output


# ---------------------------------------------------------------------------
# Criterion 11: a deeper sweep, budget 3
# ---------------------------------------------------------------------------


@criterion(11, "budget-3 soundness sweep (100 two-handler programs)")
def test_budget_three_sweep():
    # two handlers only: progen's `oracle_budget` keeps three-handler programs at 1
    failures, stats = _new_sweep()
    seed = SWEEP_SIZE
    while stats["programs"] < BUDGET3_SWEEP_SIZE:
        p = random_program(random.Random(seed))
        if len(p.handlers) == 2:
            _check_against_oracle(p, 3, seed, failures, stats)
        seed += 1
    print(_sweep_line("budget-3 sweep", stats))
    assert failures == {kind: [] for kind in failures}


# ---------------------------------------------------------------------------
# Criterion 12: a wider sweep, four handlers
# ---------------------------------------------------------------------------


@criterion(12, "four-handler soundness sweep (40 programs, budget 1)")
def test_four_handler_sweep():
    failures, stats = _new_sweep()
    for seed in FOUR_HANDLER_SEEDS:
        _check_against_oracle(random_program(random.Random(seed), handler_count=4), 1, seed,
                              failures, stats)
    print(_sweep_line("four-handler sweep", stats))
    assert failures == {kind: [] for kind in failures}
