"""Exhaustive concrete-execution enumeration under interrupt semantics.

Ground truth for the static analysis: explores every interleaving reachable
under the priority rules (a handler may be invoked only while all active
handlers have strictly lower priority, so activation frames form a stack of
strictly increasing priorities), plus a free-preemption variant that models
plain threads. Enumeration is bounded by per-handler invocation budgets and a
loop unroll limit; invocation is never mandatory, so every stack-empty point
doubles as a possible end of execution. Preemption happens only between
instructions.

A state of the search is the tuple `(frames, global_env, writers, budgets,
trace)`: `global_env[i]` is the value of global i, `writers[i]` the `NodeId`
of the store that wrote it (None for the initial value), `budgets[h]` the
invocations handler h has left, and `trace` the traced nodes stepped so far,
or `()` unless traces are recorded. The first four slots are the scheduler
state. A frame is `(handler index, node index, locals, loops)`, with locals
as sorted `(name, value)` pairs and loops as sorted `(loop head index,
iterations)` pairs. Under interrupt semantics the frames are the activation
stack, innermost last; under thread semantics their order carries no meaning,
so they are kept sorted and equal states compare equal.

A condition that reads no variable is decided once, with its evaluator, when
the step tables are built (`*` and any condition that reads a variable are
not). An assertion that holds can never fail: it has no assertion bit, so
`violated` never lists it. An assumption that holds is invisible (below). An
assumption that fails stays visible, as a frame may rest there stuck while
higher handlers preempt it, but the reach masks (below) carry nothing past it.

A frame rests only at a visible node. An invisible node is a `Skip`, or an
assumption on `*` or on a condition that holds, that is neither a loop head,
a loop's exit arm nor the exit, and has no back edge out: the entry, the
branch joins and such branch arms. Its step is always enabled, reads and
writes nothing and is never traced, so the step that reaches it goes on to
the nearest visible nodes in that same step (Lipton's reduction, done
statically). Loop heads stay, as the step into a head carries the loop count,
and so do exit arms, whose step drops it. A step into the exit pops the frame.
Each handler has a step table; row i, for the node of index i, is the tuple
- the instruction kind;
- its evaluator: the expression of an assignment, or the condition of an
  assumption or assertion (None for `*`), compiled into a function of
  `(global_env, locals)` that reads globals by index;
- its successor steps as `(target index, is back edge, index of the loop
  head it exits or -1)`, each listed once, where a target is the nearest
  visible node on an out-edge, or -1 for the exit;
- the indices of the globals it reads, and its conflict mask (see below);
- the mask of the assertions reachable from the node (see below);
- its `NodeId`, which flows, traces and assertion values report;
- the index of the global it writes, or -1; and the instruction.
Forward edges go up in node index and back edges end at loop heads, so the
targets are computed in one descending pass. A handler starts at its entry's
targets, and an empty handler returns as it starts. The globals a node reads
and writes are the `loads` and `store` of `cfg.access_info`, taken as given
when the caller has them.

`_search` is the one stepping loop, for both semantics. It pops a state,
steps each frame that may move (or the ample frame alone, see below) and
starts each handler that may start, pushing every successor state. A step
records its flows once its outcomes are known, and only if it has one. A
failing assertion clears its bit in the mask of the open assertions, which
`violated` is read off at the end.

Unless traces are recorded, the search applies static partial-order
reduction with a singleton ample set. A node's conflict mask has a bit for
each handler whose steps may not commute with the node's step. Under
interrupt semantics these are the handlers of higher priority that write a
global the step reads, or read or write the global it writes; an assertion
is a step like any other. Until the innermost frame steps, only handlers of
higher priority with budget left can run, and budgets only fall. So when the
mask shares no bit with `live`, the mask of the handlers with budget left,
the step commutes with everything that could run before it, and that frame
steps alone. Under thread semantics the mask is 0 at a node that reads and
writes no global and is not an assertion, and anywhere else the bit
`always`, which no handler owns and `live` always carries; the first frame
whose mask is clear steps alone. The reduction applies only when that step
has a successor: a dead-end step, such as a back edge past the unroll bound,
ends the path, and the invocations offered at that state are then the only
way on. The state graph is acyclic (budgets fall and loop counts are
bounded), so no cycle proviso is needed. The reduction keeps every
violation, flow, assertion value, truncation and distinct end state.
Skipping invisible nodes is sound beside it: the reduction stepped each one
alone anyway, and that step always has a successor. With traces recorded, a
handler that would have run while a frame rested at an invisible node runs
at the next visible node instead, to the same trace and state.

`violations_only` is the configuration `compare` runs, since it reads only
`violated`. It never updates the writers slot, which feeds only flows and
the execution count, so states that differ only in who wrote a global are
one state. It also drops every state from which no open (not yet violated)
assertion can be reached. Each assertion that may fail has a bit, in graph
order, and each row the mask of the assertions reachable from its node, back
edges included: a descending pass, repeated until nothing changes. A
handler's mask is its entry's. A popped state is dropped, before dedup, when
the open assertions share no bit with the masks of its frames' nodes and of
the handlers with budget left: every future of the state steps its frames
onward or starts a handler that has budget now, and the open set only
shrinks. The ample-set choice does not read the masks. The initial state is
always explored, so a program with no assertion that may fail explores that
state alone. `executions` and `truncated` then describe only the explored
part, and the `max_executions` and `max_states` ceilings are reached only
where the full search reaches them.

Which handlers may start over an innermost frame of handler h is fixed per
h: under interrupt semantics those of strictly higher priority, under thread
semantics all of them; an empty stack offers every handler.

The search visits each state once; unless traces are recorded the trace
slot is `()`, so that is each scheduler state once. With traces recorded,
two paths that reach the same scheduler state with the same trace are one
state, as they have the same futures; `executions` then counts distinct (end
state, trace) pairs. The order in which states are
explored does not change what is found, as dedup visits the whole reachable
set.

The cyclic garbage collector is paused while the search runs, and the
caller's setting restored after it: reference counting frees the acyclic
tuples the search builds.
"""

from __future__ import annotations

import gc
import operator
from typing import Callable, NamedTuple

from .cfg import AccessInfo, Cfg, NodeId, build_all
from .ir import (
    Add,
    Assert,
    Assign,
    Assume,
    Cmp,
    Const,
    Expr,
    Havoc,
    Mul,
    NONDET,
    Nondet,
    Program,
    Skip,
    Sub,
    VarRef,
    cond_vars,
)

#: Values a havoc explores; sampling keeps enumeration finite and is enough
#: for the oracle's role (flow identities do not depend on the stored value).
HAVOC_VALUES = (-1, 0, 1)


class OracleLimitError(RuntimeError):
    """Raised when enumeration exceeds a configured resource ceiling."""


class _OracleFields(NamedTuple):
    max_invocations: int = 1
    unroll: int = 2
    track_flows: bool = False
    violations_only: bool = False
    record_traces: bool = False
    record_assert_values: bool = False
    max_executions: int = 500_000
    max_states: int = 3_000_000


class OracleConfig(_OracleFields):
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.max_invocations < 1 or self.unroll < 1:
            raise ValueError("oracle bounds must be at least 1")
        if self.violations_only and (self.track_flows or self.record_traces
                                     or self.record_assert_values):
            raise ValueError("violations_only records no flows, traces or assertion values")
        return self


class OracleResult(NamedTuple):
    violated: frozenset[str]
    flows: frozenset[tuple[NodeId, NodeId, str]]
    executions: int
    truncated: bool
    traces: frozenset[tuple[NodeId, ...]] | None = None
    assert_values: frozenset[tuple[NodeId, str, int]] | None = None


# Instruction kinds of a step-table row; a jump is a skip or an assumption. The last
# three are the nodes a trace lists.
_JUMP, _ASSERT, _ASSIGN, _HAVOC = range(4)
_KINDS = {Skip: _JUMP, Assume: _JUMP, Assert: _ASSERT, Assign: _ASSIGN, Havoc: _HAVOC}

_CMP = {"==": operator.eq, "!=": operator.ne, "<": operator.lt,
        "<=": operator.le, ">": operator.gt, ">=": operator.ge}


def _compile(e: Expr | Cmp, gidx: dict[str, int]) -> Callable[[tuple, tuple], int | bool]:
    """`e` as a function of (global_env, locals), evaluating operands left to right.

    Reading an unbound local raises `KeyError`, as a direct walk of `e` would.
    """
    t = type(e)
    if t is Const:
        value = e.value
        return lambda g, l: value
    if t is VarRef:
        if e.is_global:
            i = gidx[e.name]
            return lambda g, l: g[i]
        name = e.name

        def read_local(g, l):
            for k, v in l:
                if k == name:
                    return v
            raise KeyError(f"local {name} unbound")
        return read_local
    if t is Mul:
        coeff, arg = e.coeff, _compile(e.arg, gidx)
        return lambda g, l: coeff * arg(g, l)
    if t is Add or t is Sub or t is Cmp:
        left, right = _compile(e.left, gidx), _compile(e.right, gidx)
        op = _CMP[e.op] if t is Cmp else (operator.add if t is Add else operator.sub)
        return lambda g, l: op(left(g, l), right(g, l))
    raise TypeError(f"not an expression: {e!r}")


def _fixed(ins, gidx: dict[str, int]) -> bool | None:
    """The value of the condition of `ins` if it has one that reads no variable, else None."""
    cond = getattr(ins, "cond", NONDET)
    return None if type(cond) is Nondet or any(cond_vars(cond)) else _compile(cond, gidx)((), ())


def _targets(g: Cfg, fixed: list[bool | None]) -> list[tuple[tuple[int, bool, int], ...]]:
    """Per node, by index: its successor steps to the nearest visible nodes, -1 for the exit.

    A forward edge goes up in node index and a back edge ends at a loop head, which is
    visible, so a descending pass finds every invisible successor's targets computed.
    """
    last = len(g.nodes) - 1
    stays = g.loop_heads | g.loop_exits.keys() | {s for s, _ in g.back_edges} | {last}
    invisible = [i not in stays and (type(ins) is Skip or (type(ins) is Assume and (
                     type(ins.cond) is Nondet or fixed[i]))) for i, ins in enumerate(g.instr)]
    targets: list[tuple[tuple[int, bool, int], ...]] = [()] * len(g.nodes)
    for i in range(last, -1, -1):
        steps: dict[tuple[int, bool, int], None] = {}  # ordered, each step once
        for s in g.succs[i]:
            if invisible[s]:
                steps.update(dict.fromkeys(targets[s]))
            else:
                steps[(-1 if s == last else s, (i, s) in g.back_edges,
                       g.loop_exits.get(s, -1))] = None
        targets[i] = tuple(steps)
    return targets


def _reachable_asserts(g: Cfg, own: list[int], stuck: set[int]) -> list[int]:
    """Per node, by index: the union of `own` over the nodes reachable from it, itself included.

    Nothing is reachable past a `stuck` node. A descending pass sees every forward edge's
    target done, but a back edge's loop head only as it was before the pass, so the pass
    repeats until nothing changes.
    """
    reach = list(own)
    changed = True
    while changed:
        changed = False
        for i in range(len(reach) - 1, -1, -1):
            if i in stuck:
                continue
            mask = reach[i]
            for s in g.succs[i]:
                mask |= reach[s]
            if mask != reach[i]:
                reach[i] = mask
                changed = True
    return reach


class _Enumerator:
    def __init__(self, program: Program, oc: OracleConfig, interrupt: bool,
                 built: tuple[list[Cfg], list[AccessInfo]] | None = None):
        self.program = program
        self.oc = oc
        self.interrupt = interrupt
        self.cfgs, infos = built if built is not None else build_all(program)
        self.priorities = [h.priority for h in program.handlers]
        self.gnames = list(program.global_names())
        self.gidx = {name: i for i, name in enumerate(self.gnames)}
        # a bit no handler owns, set in every mask of live handlers
        self.always = 1 << len(self.cfgs)
        # per handler and node, by index, the globals the node reads and the one it writes
        reads = [[tuple(self.gidx[name] for name in loads) for loads in info.loads]
                 for info in infos]
        writes = [[-1 if name is None else self.gidx[name] for name in info.store]
                  for info in infos]
        # the globals each handler reads and writes
        self.uses = [({i for node in r for i in node}, {i for i in w if i >= 0})
                     for r, w in zip(reads, writes)]
        # one bit per assertion that may fail, in graph order; per node, those reachable from it
        self.assert_bits: dict[str, int] = {}
        targets, asserts = [], []
        for g in self.cfgs:
            fixed = [_fixed(ins, self.gidx) for ins in g.instr]
            targets.append(_targets(g, fixed))
            own = [self.assert_bits.setdefault(ins.uid, 1 << len(self.assert_bits))
                   if type(ins) is Assert and not fixed[i] else 0 for i, ins in enumerate(g.instr)]
            stuck = {i for i, ins in enumerate(g.instr) if type(ins) is Assume and fixed[i] is False}
            asserts.append(_reachable_asserts(g, own, stuck))
        self.table = [self._rows(h, g, targets[h], reads[h], writes[h], asserts[h])
                      for h, g in enumerate(self.cfgs)]
        # per handler, the nodes it may start at: the entry's (node 0's) targets
        self.starts = tuple((h, tuple(s for s, _, _ in t[0])) for h, t in enumerate(targets))
        # the handlers, with their starts, that may start over an innermost frame of handler h
        self.preempt = [tuple(s for s in self.starts
                              if not interrupt or self.priorities[s[0]] > pr)
                        for pr in self.priorities]

    def _rows(self, h: int, g: Cfg, targets: list[tuple], reads: list[tuple[int, ...]],
              writes: list[int], asserts: list[int]) -> tuple[tuple, ...]:
        """The step table of handler h: row i describes the node of index i."""
        rows = []
        for i, (n, ins) in enumerate(zip(g.nodes, g.instr)):
            if type(ins) not in _KINDS:
                raise TypeError(f"not executable: {ins!r}")
            kind = _KINDS[type(ins)]
            source = ins.expr if kind == _ASSIGN else getattr(ins, "cond", NONDET)
            ev = None if type(source) is Nondet else _compile(source, self.gidx)
            rows.append((kind, ev, targets[i], reads[i],
                         self._conflicts(h, kind, reads[i], writes[i]), asserts[i], n, writes[i],
                         ins))
        return tuple(rows)

    def _conflicts(self, h: int, kind: int, reads: tuple[int, ...], target: int) -> int:
        """The conflict mask of a step of handler h; see the module docstring."""
        if not self.interrupt:
            return 0 if not reads and target < 0 and kind != _ASSERT else self.always
        mask = 0
        for h2, (read2, written2) in enumerate(self.uses):
            if self.priorities[h2] > self.priorities[h] and (
                    target in read2 or target in written2 or not written2.isdisjoint(reads)):
                mask |= 1 << h2
        return mask

    def run(self) -> OracleResult:
        # acyclic tuples only, freed by reference counting: collections would find no garbage
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            return self._search()
        finally:
            if gc_was_enabled:
                gc.enable()

    def _search(self) -> OracleResult:
        oc = self.oc
        initial_budgets = tuple(oc.max_invocations for _ in self.cfgs)
        init = ((), tuple(v for _, v in self.program.globals),
                tuple(None for _ in self.gnames), initial_budgets, ())
        table, preempt, starts, gidx = self.table, self.preempt, self.starts, self.gidx
        interrupt, unroll, track_flows = self.interrupt, oc.unroll, oc.track_flows
        violations_only, assert_bits = oc.violations_only, self.assert_bits
        always, gnames = self.always, self.gnames
        # budgets -> (mask of the handlers with budget left, the assertions they reach)
        lives: dict[tuple[int, ...], tuple[int, int]] = {}

        def budgeted(budgets: tuple[int, ...]) -> tuple[int, int]:
            live, reach = always, 0
            for h, left in enumerate(budgets):
                if left:
                    live |= 1 << h
                    reach |= table[h][0][5]
            lives[budgets] = live, reach
            return live, reach

        open_asserts = sum(assert_bits.values())  # the assertions not yet violated
        record_traces, record_assert_values = oc.record_traces, oc.record_assert_values
        max_states = oc.max_states
        flows: set[tuple[NodeId, NodeId, str]] = set()
        assert_values: set[tuple[NodeId, str, int]] = set()
        traces: set[tuple[NodeId, ...]] = set()
        executions, truncated = 0, False
        stack: list[tuple] = [init]
        push = stack.append
        seen: set[tuple] = set()
        states_explored = 0
        while stack:
            st = stack.pop()
            frames, genv, writers, budgets, trace = st
            if violations_only and states_explored:
                # drop a state from which no open assertion is reachable; see the module docstring
                reach = (lives.get(budgets) or budgeted(budgets))[1]
                for h, n, _, _ in frames:
                    reach |= table[h][n][5]
                if not reach & open_asserts:
                    continue
            # add-then-compare hashes the nested state once, not twice
            size = len(seen)
            seen.add(st)
            if len(seen) == size:
                continue
            states_explored += 1
            if states_explored > max_states:
                raise OracleLimitError(f"exceeded {max_states} explored scheduler states")
            if frames:
                order = (len(frames) - 1,) if interrupt else range(len(frames))
                ample = False
                if not record_traces:
                    # partial-order reduction; see the module docstring
                    live = (lives.get(budgets) or budgeted(budgets))[0]
                    for idx in order:
                        h, n, _, _ = frames[idx]
                        if not table[h][n][4] & live:  # step this frame first, and alone
                            ample = True
                            if idx != order[0]:  # threads only: the others follow in order
                                order = (idx, *range(idx), *range(idx + 1, len(frames)))
                            break
                mark = len(stack)
                for idx in order:
                    h, n, locs, loops = frames[idx]
                    kind, ev, steps, reads, _, _, node, target, ins = table[h][n]
                    rest = frames[:idx] if interrupt else frames[:idx] + frames[idx + 1:]
                    if kind == _JUMP:
                        outs = ((genv, writers, locs),) if ev is None or ev(genv, locs) else ()
                    elif kind == _ASSERT:
                        if record_assert_values:
                            for v in set(cond_vars(ins.cond)):
                                assert_values.add((node, v.name, _compile(v, gidx)(genv, locs)))
                        if not ev(genv, locs):
                            open_asserts &= ~assert_bits[ins.uid]
                        outs = ((genv, writers, locs),)
                    else:
                        # an assignment or a havoc: write each value it may produce
                        values = (ev(genv, locs),) if kind == _ASSIGN else HAVOC_VALUES
                        if target >= 0:
                            written = (writers if violations_only
                                       else writers[:target] + (node,) + writers[target + 1:])
                            outs = [(genv[:target] + (value,) + genv[target + 1:], written, locs)
                                    for value in values]
                        else:
                            name = ins.target.name
                            kept = [p for p in locs if p[0] != name]
                            outs = [(genv, writers, tuple(sorted(kept + [(name, value)])))
                                    for value in values]
                    if track_flows and outs:
                        # a step that is not taken, on a failing condition, records no flow
                        for i in reads:
                            w = writers[i]
                            if w is not None:
                                flows.add((node, w, gnames[i]))
                    next_trace = trace + (node,) if record_traces and kind >= _ASSERT else trace
                    for genv2, writers2, locs2 in outs:
                        for succ, back, exited in steps:
                            if succ < 0:
                                # a step into the exit returns; removing a frame keeps the
                                # thread-semantics order canonical
                                push((rest, genv2, writers2, budgets, next_trace))
                                continue
                            moved = loops
                            if back:
                                count = 1 + next((c for head, c in loops if head == succ), 0)
                                if count > unroll:
                                    truncated = True
                                    continue
                                moved = tuple(sorted([p for p in loops if p[0] != succ]
                                                     + [(succ, count)]))
                            elif exited >= 0 and loops:
                                # leaving the loop: its iteration count no longer matters
                                moved = tuple(p for p in loops if p[0] != exited)
                            frame = (h, succ, locs2, moved)
                            if interrupt:
                                new_frames = rest + (frame,)
                            else:
                                # frame order carries no meaning under threads; keep it sorted
                                new_frames = tuple(sorted(rest + (frame,)))
                            push((new_frames, genv2, writers2, budgets, next_trace))
                    if ample:
                        if len(stack) > mark:
                            break
                        # a dead-end ample step adds nothing; the other moves still may
                        ample = False
                if ample:
                    continue
            elif budgets != initial_budgets:
                # Stack is empty: stopping here is a complete execution.
                executions += 1
                if executions > oc.max_executions:
                    raise OracleLimitError(f"exceeded {oc.max_executions} explored executions")
                if record_traces:
                    traces.add(trace)
            # start each handler that may run now and has budget left, at each of its starts
            for h, entries in (preempt[frames[-1][0]] if frames else starts):
                left = budgets[h]
                if not left:
                    continue
                spent = budgets[:h] + (left - 1,) + budgets[h + 1:]
                for entry in entries:
                    if entry < 0:
                        # an empty handler returns as it starts
                        new_frames = frames
                    elif interrupt:
                        # the inductive step of: the stack is strictly increasing in priority
                        assert not frames or self.priorities[h] > self.priorities[frames[-1][0]], \
                            "activation stack must be strictly increasing in priority"
                        new_frames = frames + ((h, entry, (), ()),)
                    else:
                        new_frames = tuple(sorted(frames + ((h, entry, (), ()),)))
                    push((new_frames, genv, writers, spent, trace))
        return OracleResult(
            violated=frozenset(uid for uid, bit in assert_bits.items() if not bit & open_asserts),
            flows=frozenset(flows),
            executions=executions,
            truncated=truncated,
            traces=frozenset(traces) if record_traces else None,
            assert_values=frozenset(assert_values) if record_assert_values else None,
        )


def enumerate_executions(program: Program, config: OracleConfig,
                         built: tuple[list[Cfg], list[AccessInfo]] | None = None) -> OracleResult:
    """Depth-first enumeration of all bounded interrupt-semantics executions.

    At every point either the innermost active handler executes one
    instruction, or a handler with remaining budget and strictly higher
    priority than everything active is invoked; when the stack is empty any
    budgeted handler may start, or the execution may end. Nondeterministic
    conditions explore both branches; loops beyond the unroll bound truncate
    their path and set the `truncated` flag. `built` is `cfg.build_all(program)`:
    the graphs in handler order and their access facts. Any records with the
    same `loads` and `store` serve as the facts, so the `HandlerFacts` of
    `prepare(program)[0]` pass as `([f.graph for f in facts], facts)`. They
    are built here when omitted.
    """
    return _Enumerator(program, config, interrupt=True, built=built).run()


def thread_enumerate(program: Program, config: OracleConfig) -> OracleResult:
    """Free-preemption enumeration: any live frame may step at any point.

    Models plain threads; the interrupt-semantics behaviors are always a
    subset of these.
    """
    return _Enumerator(program, config, interrupt=False).run()


def collect_traces(program: Program, config: OracleConfig, *, threads: bool = False
                   ) -> frozenset[tuple[NodeId, ...]]:
    """Complete-execution traces (assignment/havoc/assert nodes, in order)."""
    cfg = OracleConfig(*config._replace(record_traces=True))  # `_replace` skips the checks
    result = thread_enumerate(program, cfg) if threads else enumerate_executions(program, cfg)
    assert result.traces is not None
    return result.traces
