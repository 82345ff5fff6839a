"""The oracle against an independent, unreduced reference implementation.

`_Frame`, `SchedulerState` and `_Unreduced` below are a verbatim copy of the
enumerator as it was before partial-order reduction and the lean state
encoding (NamedTuple states, per-visit CFG lookups), apart from its name and
the reduction's local-only set, which this copy never reads. Its `run` offers
every step of every frame that may move and every invocation at every state.
Sharing no stepping code with `irqverify.oracle`, it catches a stepping bug
that a subclass of the code under test would repeat on both sides.

The whole `OracleResult` (violations, flows, assertion values, execution
count and truncation) must be the same on the corpus at budgets 1-2 in both
semantics, on progen seeds 0-199 with the acceptance sweep's configuration,
on the first 20 two-handler programs of the budget-3 sweep (seeds 500 and
up), on the first 5 programs of the four-handler sweep, and on seeds 0-19
with thread semantics at budget 1. Like progen's `oracle_budget`, the corpus
runs give three-handler programs budget 2 under interrupt semantics only: the
unreduced thread search of `branch_overwrites` at budget 2 alone takes about
15 s. With traces recorded there is no partial-order reduction and the traces
must be the same too; but the search under test then merges paths that reach
one state with one trace, so its execution count is that of distinct (end
state, trace) pairs, at most the copy's count of paths. The copy steps
every node, the entry and join skips, the `assume(*)` arms and the exit
included, while the search under test lets frames rest only at visible
nodes. On six small shapes of such nodes (empty and `skip;`-only handlers,
empty branch arms, a branch as the first or the last statement, a loop body
ending in a join, nested `while (*)`) the whole result must match at budgets
1-2 in both semantics, and the traces at unroll 1 (at budget 2 under
interrupt semantics only). The explored-state counts are pinned:
`max_states` counts states, so an encoding that merged or split states
would move them. The search that `compare` runs (`violations_only`)
must find the copy's violations on the corpus at budgets 1-2, on progen seeds
0-199 and, in both semantics, on four shapes of assertion reach (a back edge,
a handler with budget left, a preempted outer frame, no assertion at all),
with at most the copy's execution count and truncation. The
evaluators the step table compiles are checked against the copy's `_eval`
and `_eval_cmp` on every row of progen seeds 0-199. The copy builds its graphs
with the NodeId-keyed lowering of `cfg_reference`, so it shares no graph code
with the search either.
"""

from __future__ import annotations

import random
from typing import NamedTuple

import pytest

from irqverify import (
    OracleConfig,
    OracleLimitError,
    enumerate_executions,
    parse_program,
    thread_enumerate,
)
from irqverify.cfg import NodeId, node_global_reads
from irqverify.ir import (
    Add,
    Assert,
    Assign,
    Assume,
    Cmp,
    Const,
    Expr,
    Havoc,
    Mul,
    Nondet,
    Program,
    Skip,
    Sub,
    VarRef,
    cond_vars,
    instr_reads,
)
from irqverify.oracle import HAVOC_VALUES, OracleResult, _Enumerator

from cfg_reference import Cfg, build_cfg
from conftest import CORPUS_NAMES, load_corpus
from progen import oracle_budget, random_program
from test_acceptance import FOUR_HANDLER_SEEDS


class _Frame(NamedTuple):
    handler: int
    node: NodeId
    locals: tuple[tuple[str, int], ...]
    loops: tuple[tuple[NodeId, int], ...]


class SchedulerState(NamedTuple):
    """One point of one execution: activation stack, memory, and budgets.

    `writers[i]` tracks which store node produced the current value of global
    i (None means the initial value still stands).
    """

    frames: tuple[_Frame, ...]
    global_env: tuple[int, ...]
    writers: tuple[NodeId | None, ...]
    budgets: tuple[int, ...]


class _Unreduced:
    def __init__(self, program: Program, oc: OracleConfig, interrupt: bool,
                 cfgs: list[Cfg] | None = None):
        self.program = program
        self.oc = oc
        self.interrupt = interrupt
        self.cfgs = cfgs if cfgs is not None else [build_cfg(h) for h in program.handlers]
        self.priorities = [h.priority for h in program.handlers]
        self.gnames = list(program.global_names())
        self.gidx = {name: i for i, name in enumerate(self.gnames)}
        self.reads: dict[NodeId, tuple[str, ...]] = {}
        for g in self.cfgs:
            for n, ins in g.instr.items():
                self.reads[n] = node_global_reads(ins)

        self.violated: set[str] = set()
        self.flows: set[tuple[NodeId, NodeId, str]] = set()
        self.assert_values: set[tuple[NodeId, str, int]] = set()
        self.traces: set[tuple[NodeId, ...]] = set()
        self.executions = 0
        self.truncated = False

    # -- concrete evaluation -------------------------------------------------

    def _eval(self, e: Expr, genv: tuple[int, ...], locs: tuple[tuple[str, int], ...]) -> int:
        if isinstance(e, Const):
            return e.value
        if isinstance(e, VarRef):
            if e.is_global:
                return genv[self.gidx[e.name]]
            for name, value in locs:
                if name == e.name:
                    return value
            raise KeyError(f"local {e.name} unbound")
        if isinstance(e, Add):
            return self._eval(e.left, genv, locs) + self._eval(e.right, genv, locs)
        if isinstance(e, Sub):
            return self._eval(e.left, genv, locs) - self._eval(e.right, genv, locs)
        if isinstance(e, Mul):
            return e.coeff * self._eval(e.arg, genv, locs)
        raise TypeError(f"not an expression: {e!r}")

    def _eval_cmp(self, c: Cmp, genv, locs) -> bool:
        a = self._eval(c.left, genv, locs)
        b = self._eval(c.right, genv, locs)
        return {"==": a == b, "!=": a != b, "<": a < b,
                "<=": a <= b, ">": a > b, ">=": a >= b}[c.op]

    def _record_reads(self, node: NodeId, st: SchedulerState) -> None:
        if not self.oc.track_flows:
            return
        for name in self.reads[node]:
            w = st.writers[self.gidx[name]]
            if w is not None:
                self.flows.add((node, w, name))

    @staticmethod
    def _set_local(locs: tuple[tuple[str, int], ...], name: str, value: int) -> tuple[tuple[str, int], ...]:
        kept = tuple((k, v) for k, v in locs if k != name)
        return tuple(sorted(kept + ((name, value),)))

    # -- stepping -------------------------------------------------------------

    def _frames_with(self, frames: tuple[_Frame, ...]) -> tuple[_Frame, ...]:
        """Frame order is the stack under interrupt semantics; under thread
        semantics it carries no meaning, so keep it canonical for memoization."""
        return frames if self.interrupt else tuple(sorted(frames))

    def _advance(self, st: SchedulerState, idx: int, fr: _Frame, succ: NodeId,
                 g: Cfg, **updates) -> SchedulerState | None:
        """Move frame `idx` to `succ`, honoring the loop unroll bound."""
        loops = fr.loops
        if (fr.node, succ) in g.back_edges:
            count = dict(loops).get(succ, 0) + 1
            if count > self.oc.unroll:
                self.truncated = True
                return None
            loops = tuple(sorted({**dict(loops), succ: count}.items()))
        elif succ in g.loop_exits and loops:
            # leaving the loop: its iteration count no longer matters
            head = g.loop_exits[succ]
            loops = tuple(pair for pair in loops if pair[0] != head)
        new_frame = fr._replace(node=succ, loops=loops,
                                locals=updates.pop("locals", fr.locals))
        frames = self._frames_with(st.frames[:idx] + (new_frame,) + st.frames[idx + 1:])
        return st._replace(frames=frames, **updates)

    def _step_frame(self, st: SchedulerState, trace: tuple[NodeId, ...], idx: int
                    ) -> list[tuple[SchedulerState, tuple[NodeId, ...]]]:
        fr = st.frames[idx]
        g = self.cfgs[fr.handler]
        if fr.node == g.exit:
            frames = self._frames_with(st.frames[:idx] + st.frames[idx + 1:])
            return [(st._replace(frames=frames), trace)]

        ins = g.instr[fr.node]
        succs = g.succs[fr.node]
        out: list[tuple[SchedulerState, tuple[NodeId, ...]]] = []

        if isinstance(ins, Skip):
            for s2 in succs:
                nxt = self._advance(st, idx, fr, s2, g)
                if nxt is not None:
                    out.append((nxt, trace))
        elif isinstance(ins, Assume):
            alive = isinstance(ins.cond, Nondet) or self._eval_cmp(ins.cond, st.global_env, fr.locals)
            if alive:
                self._record_reads(fr.node, st)
                for s2 in succs:
                    nxt = self._advance(st, idx, fr, s2, g)
                    if nxt is not None:
                        out.append((nxt, trace))
        elif isinstance(ins, Assert):
            self._record_reads(fr.node, st)
            if self.oc.record_assert_values:
                for v in set(cond_vars(ins.cond)):
                    value = self._eval(v, st.global_env, fr.locals)
                    self.assert_values.add((fr.node, v.name, value))
            if not self._eval_cmp(ins.cond, st.global_env, fr.locals):
                self.violated.add(ins.uid)
            new_trace = trace + (fr.node,) if self.oc.record_traces else trace
            for s2 in succs:
                nxt = self._advance(st, idx, fr, s2, g)
                if nxt is not None:
                    out.append((nxt, new_trace))
        elif isinstance(ins, Assign):
            self._record_reads(fr.node, st)
            value = self._eval(ins.expr, st.global_env, fr.locals)
            out.extend(self._write_and_advance(st, trace, idx, fr, g, succs, ins.target, value))
        elif isinstance(ins, Havoc):
            for value in HAVOC_VALUES:
                out.extend(self._write_and_advance(st, trace, idx, fr, g, succs, ins.target, value))
        else:
            raise TypeError(f"not executable: {ins!r}")
        return out

    def _write_and_advance(self, st, trace, idx, fr, g, succs, target: VarRef, value: int):
        updates = {}
        locals_ = fr.locals
        if target.is_global:
            i = self.gidx[target.name]
            genv = list(st.global_env)
            genv[i] = value
            writers = list(st.writers)
            writers[i] = fr.node
            updates = {"global_env": tuple(genv), "writers": tuple(writers)}
        else:
            locals_ = self._set_local(fr.locals, target.name, value)
        new_trace = trace + (fr.node,) if self.oc.record_traces else trace
        out = []
        for s2 in succs:
            nxt = self._advance(st, idx, fr, s2, g, locals=locals_, **updates)
            if nxt is not None:
                out.append((nxt, new_trace))
        return out

    def _invocations(self, st: SchedulerState) -> list[SchedulerState]:
        floor = -1
        if self.interrupt and st.frames:
            floor = self.priorities[st.frames[-1].handler]
        out = []
        for h_idx, g in enumerate(self.cfgs):
            if st.budgets[h_idx] == 0:
                continue
            if self.interrupt and self.priorities[h_idx] <= floor:
                continue
            frame = _Frame(handler=h_idx, node=g.entry, locals=(), loops=())
            budgets = st.budgets[:h_idx] + (st.budgets[h_idx] - 1,) + st.budgets[h_idx + 1:]
            frames = st.frames + (frame,)
            if self.interrupt:
                priorities = [self.priorities[f.handler] for f in frames]
                assert priorities == sorted(priorities) and len(set(priorities)) == len(priorities), \
                    "activation stack must be strictly increasing in priority"
            out.append(st._replace(frames=self._frames_with(frames), budgets=budgets))
        return out

    # -- main loop -------------------------------------------------------------

    def run(self) -> OracleResult:
        initial_budgets = tuple(self.oc.max_invocations for _ in self.cfgs)
        init = SchedulerState(
            frames=(),
            global_env=tuple(v for _, v in self.program.globals),
            writers=tuple(None for _ in self.gnames),
            budgets=initial_budgets,
        )
        stack: list[tuple[SchedulerState, tuple[NodeId, ...]]] = [(init, ())]
        seen: set[SchedulerState] | None = None if self.oc.record_traces else set()
        states_explored = 0
        while stack:
            st, trace = stack.pop()
            if seen is not None:
                if st in seen:
                    continue
                seen.add(st)
            states_explored += 1
            if states_explored > self.oc.max_states:
                raise OracleLimitError(
                    f"exceeded {self.oc.max_states} explored scheduler states")
            choices: list[tuple[SchedulerState, tuple[NodeId, ...]]] = []
            if st.frames:
                if self.interrupt:
                    choices.extend(self._step_frame(st, trace, len(st.frames) - 1))
                else:
                    for idx in range(len(st.frames)):
                        choices.extend(self._step_frame(st, trace, idx))
            elif st.budgets != initial_budgets:
                # Stack is empty: stopping here is a complete execution.
                self.executions += 1
                if self.executions > self.oc.max_executions:
                    raise OracleLimitError(
                        f"exceeded {self.oc.max_executions} explored executions")
                if self.oc.record_traces:
                    self.traces.add(trace)
            choices.extend((s2, trace) for s2 in self._invocations(st))
            stack.extend(reversed(choices))
        return OracleResult(
            violated=frozenset(self.violated),
            flows=frozenset(self.flows),
            executions=self.executions,
            truncated=self.truncated,
            traces=frozenset(self.traces) if self.oc.record_traces else None,
            assert_values=frozenset(self.assert_values) if self.oc.record_assert_values else None,
        )


SEMANTICS = [(True, enumerate_executions), (False, thread_enumerate)]


def _corpus(two_handlers_only):
    programs = [(name, load_corpus(name)) for name in CORPUS_NAMES]
    return [(name, p) for name, p in programs if not two_handlers_only or len(p.handlers) == 2]


def _check(program, config, interrupt, enumerate_fn, label):
    want = _Unreduced(program, config, interrupt).run()
    assert enumerate_fn(program, config) == want, label


@pytest.mark.parametrize("interrupt, enumerate_fn", SEMANTICS, ids=["interrupt", "threads"])
@pytest.mark.parametrize("budget", [1, 2])
def test_matches_unreduced_on_corpus(budget, interrupt, enumerate_fn):
    config = OracleConfig(max_invocations=budget, unroll=2, track_flows=True,
                          record_assert_values=True)
    for name, p in _corpus(two_handlers_only=budget == 2 and not interrupt):
        _check(p, config, interrupt, enumerate_fn, name)


def test_matches_unreduced_on_sweep_seeds():
    for seed in range(200):
        rng = random.Random(seed)
        p = random_program(rng)
        config = OracleConfig(max_invocations=oracle_budget(rng, p), unroll=2, track_flows=True,
                              record_assert_values=True, max_executions=400_000)
        _check(p, config, True, enumerate_executions, f"progen seed {seed}")


def test_matches_unreduced_at_budget_three():
    # the first programs of the acceptance suite's budget-3 sweep (criterion 11)
    config = OracleConfig(max_invocations=3, unroll=2, track_flows=True,
                          record_assert_values=True, max_executions=400_000)
    checked, seed = 0, 500
    while checked < 20:
        p = random_program(random.Random(seed))
        if len(p.handlers) == 2:
            _check(p, config, True, enumerate_executions, f"progen seed {seed}")
            checked += 1
        seed += 1


def test_matches_unreduced_on_four_handlers():
    # the first programs of the acceptance suite's four-handler sweep (criterion 12)
    config = OracleConfig(max_invocations=1, unroll=2, track_flows=True,
                          record_assert_values=True, max_executions=400_000)
    for seed in FOUR_HANDLER_SEEDS[:5]:
        p = random_program(random.Random(seed), handler_count=4)
        _check(p, config, True, enumerate_executions, f"four-handler seed {seed}")


def test_matches_unreduced_on_thread_seeds():
    config = OracleConfig(max_invocations=1, unroll=2, track_flows=True,
                          record_assert_values=True, max_executions=400_000)
    for seed in range(20):
        p = random_program(random.Random(seed))
        _check(p, config, False, thread_enumerate, f"progen seed {seed}")


@pytest.mark.parametrize("interrupt, enumerate_fn", SEMANTICS, ids=["interrupt", "threads"])
def test_recorded_traces_are_not_reduced(interrupt, enumerate_fn):
    # the copy walks paths, so its thread runs of three handlers exceed the execution ceiling
    config = OracleConfig(max_invocations=1, unroll=2, record_traces=True)
    for name, p in _corpus(two_handlers_only=not interrupt):
        want = _Unreduced(p, config, interrupt).run()
        got = enumerate_fn(p, config)
        assert got._replace(executions=want.executions) == want, name
        assert 0 < got.executions <= want.executions, name


# Shapes where the step table goes on over invisible nodes (see the oracle's
# module docstring).
INVISIBLE_NODE_SHAPES = {
    "empty and skip-only handlers":
        "global x = 0;"
        "handler lo priority 0 { x = 1; assert(x == 1); }"
        "handler mid priority 1 { }"
        "handler hi priority 2 { skip; skip; }",
    "empty branch arms":
        "global x = 0;"
        "handler lo priority 0 { x = 1; if (*) { } else { } assert(x == 1); }"
        "handler hi priority 1 { x = 2; }",
    "branch first, so several starts":
        "global x = 0;"
        "handler lo priority 0 { if (*) { x = 1; } else { x = 2; } assert(x == 1); }"
        "handler hi priority 1 { if (*) { x = 3; } }",
    "loop body ending in a branch join":
        "global x = 0;"
        "handler lo priority 0 { while (*) { x = x + 1; if (*) { } } }"
        "handler hi priority 1 { assert(x <= 1); }",
    "nested while (*), the inner exit arm the outer loop's tail":
        "global x = 0;"
        "handler lo priority 0 { while (*) { while (*) { x = x + 1; } } }"
        "handler hi priority 1 { assert(x <= 1); }",
    "branch last, so a step into the exit":
        "global x = 0;"
        "handler lo priority 0 { x = 1; if (*) { x = 2; } else { skip; } }"
        "handler hi priority 1 { if (*) { skip; } assert(x != 2); }",
}


@pytest.mark.parametrize("shape", sorted(INVISIBLE_NODE_SHAPES))
@pytest.mark.parametrize("interrupt, enumerate_fn", SEMANTICS, ids=["interrupt", "threads"])
def test_invisible_node_shapes_match_unreduced(shape, interrupt, enumerate_fn):
    # The copy walks every path when it records traces, so traces are compared
    # at unroll 1, and under thread semantics at budget 1 only: at budget 2 the
    # copy exceeds its execution ceiling on every shape.
    p = parse_program(INVISIBLE_NODE_SHAPES[shape])
    for budget in (1, 2):
        label = f"{shape} at budget {budget}"
        config = OracleConfig(max_invocations=budget, unroll=2, track_flows=True,
                              record_assert_values=True)
        _check(p, config, interrupt, enumerate_fn, label)
        if budget == 2 and not interrupt:
            continue
        config = OracleConfig(max_invocations=budget, unroll=1, record_traces=True)
        want = _Unreduced(p, config, interrupt).run()
        got = enumerate_fn(p, config)
        assert got._replace(executions=want.executions) == want, label
        assert 0 < got.executions <= want.executions, label


def test_thread_traces_contain_interrupt_traces():
    config = OracleConfig(max_invocations=1, unroll=2, record_traces=True)
    for name, p in _corpus(two_handlers_only=False):
        assert enumerate_executions(p, config).traces <= thread_enumerate(p, config).traces, name


def test_state_ceiling_counts_reduced_states():
    # the reduced search fits under a ceiling the unreduced one exceeds
    p = load_corpus("three_priorities")
    config = OracleConfig(max_invocations=2, unroll=2, max_states=1_000)
    with pytest.raises(OracleLimitError):
        _Unreduced(p, config, True).run()
    assert enumerate_executions(p, config) == _Unreduced(
        p, OracleConfig(max_invocations=2, unroll=2), True).run()


def _explored_states(enumerate_fn, program, count, **options):
    """Assert that the search explores exactly `count` states at budget 2."""
    enumerate_fn(program, OracleConfig(max_invocations=2, unroll=2, max_states=count, **options))
    with pytest.raises(OracleLimitError):
        enumerate_fn(program, OracleConfig(max_invocations=2, unroll=2, max_states=count - 1,
                                           **options))


def test_explored_state_counts_are_pinned():
    # Measured with the conflict masks, a step alone when no handler that may
    # still preempt it conflicts with it, and with frames resting only at
    # visible nodes: a step goes on over entry and join skips and `assume(*)`
    # arms, and a step into the exit pops the frame. While frames also rested
    # at those nodes the counts were 660/660, 245/183, 2,559/2,003 and 2,784;
    # before the conflict masks, when only local-only nodes stepped alone,
    # 900, 321, 2,639 and 2,784. `loop_store_overwrite` has a `while (*)` and
    # `branch_overwrites` branches on `*`. The search `compare` runs keeps no
    # writers, so states that differ only in who wrote a global are one, and
    # drops each state from which no assertion still open is reachable. Before
    # that drop, with the writers dropped alone, its counts were 335, 121 and 809.
    # The search that records traces applies no reduction, and it visits each
    # state once per trace that reaches it.
    for name, count, violations_only, traced in [("three_priorities", 335, 296, 7_209),
                                                 ("loop_store_overwrite", 155, 98, 823),
                                                 ("branch_overwrites", 1_035, 798, 94_912)]:
        p = load_corpus(name)
        _explored_states(enumerate_executions, p, count)
        _explored_states(enumerate_executions, p, violations_only, violations_only=True)
        _explored_states(enumerate_executions, p, traced, record_traces=True)
    _explored_states(thread_enumerate, load_corpus("loop_store_overwrite"), 1_395)


def _check_violations_only(program, budget, label):
    want = _Unreduced(program, OracleConfig(max_invocations=budget, unroll=2), True).run()
    got = enumerate_executions(program, OracleConfig(max_invocations=budget, unroll=2,
                                                     violations_only=True))
    assert got.violated == want.violated, label
    # the dropped states' end states and truncated paths are not counted
    assert got.truncated <= want.truncated and got.executions <= want.executions, label


def test_violations_only_search_keeps_violations():
    # what `compare` runs: it reads nothing but `violated`, which must not change
    for budget in (1, 2):
        for name, p in _corpus(two_handlers_only=False):
            _check_violations_only(p, budget, f"{name} at budget {budget}")
    for seed in range(200):
        rng = random.Random(seed)
        p = random_program(rng)
        _check_violations_only(p, oracle_budget(rng, p), f"progen seed {seed}")


# Shapes where the assertions a state can still fail are reachable only over a
# back edge, only through a handler that has budget left, or only from a
# preempted outer frame (see the oracle's module docstring).
ASSERTION_REACH_SHAPES = {
    "assertion before a store in a while (*) body, reached over the back edge":
        "global x = 0;"
        "handler lo priority 0 { while (*) { assert(x == 0); x = 1; } }",
    "assertion in a higher handler that fails after a lower handler's store":
        "global x = 0;"
        "handler lo priority 0 { x = 1; }"
        "handler hi priority 1 { assert(x == 0); }",
    "assertion in a preempted outer frame, none in the innermost":
        "global x = 0;"
        "handler lo priority 0 { x = 1; assert(x == 1); }"
        "handler hi priority 1 { x = 2; }",
    "no assertions":
        "global x = 0;"
        "handler lo priority 0 { x = 1; }"
        "handler hi priority 1 { x = x + 1; }",
}


@pytest.mark.parametrize("shape", sorted(ASSERTION_REACH_SHAPES))
@pytest.mark.parametrize("interrupt, enumerate_fn", SEMANTICS, ids=["interrupt", "threads"])
def test_assertion_reach_shapes_match_unreduced(shape, interrupt, enumerate_fn):
    p = parse_program(ASSERTION_REACH_SHAPES[shape])
    for budget in (1, 2):
        want = _Unreduced(p, OracleConfig(max_invocations=budget, unroll=2), interrupt).run()
        got = enumerate_fn(p, OracleConfig(max_invocations=budget, unroll=2,
                                           violations_only=True))
        assert got.violated == want.violated, f"{shape} at budget {budget}"
        assert want.violated or shape == "no assertions", f"{shape} at budget {budget}"


def test_a_program_without_assertions_explores_one_state():
    # nothing can be violated, so the search ends at the initial state
    p = parse_program(ASSERTION_REACH_SHAPES["no assertions"])
    _explored_states(enumerate_executions, p, 1, violations_only=True)


def _outcome(evaluate):
    try:
        return evaluate()
    except KeyError as exc:
        return ("KeyError", str(exc))


def test_compiled_evaluators_match_the_reference_walk():
    # every evaluator row of progen seeds 0-199, against the copy's walk of its AST,
    # with some locals left unbound
    shapes = {"negative Mul": 0, "Sub": 0, "unbound local": 0}
    for seed in range(200):
        p = random_program(random.Random(seed))
        reference = _Unreduced(p, OracleConfig(), True)
        rng = random.Random(seed)
        for rows in _Enumerator(p, OracleConfig(), interrupt=True).table:
            for row in rows:
                ev, ins = row[1], row[-1]
                if ev is None:
                    continue
                if isinstance(ins, Assign):
                    walk, source = reference._eval, ins.expr
                else:
                    walk, source = reference._eval_cmp, ins.cond
                text = repr(source)
                shapes["negative Mul"] += "coeff=-" in text
                shapes["Sub"] += "Sub(" in text
                local_names = sorted({v.name for v in instr_reads(ins) if not v.is_global})
                for _ in range(4):
                    genv = tuple(rng.randint(-9, 9) for _ in reference.gnames)
                    locs = tuple((name, rng.randint(-9, 9)) for name in local_names
                                 if rng.random() < 0.8)
                    want = _outcome(lambda: walk(source, genv, locs))
                    assert _outcome(lambda: ev(genv, locs)) == want, (seed, ins, genv, locs)
                    shapes["unbound local"] += isinstance(want, tuple)
    assert all(shapes.values()), shapes
