"""Exhaustive concrete-execution enumeration under interrupt semantics.

Ground truth for the static analysis: explores every interleaving reachable
under the priority rules (a handler may be invoked only while all active
handlers have strictly lower priority, so activation frames form a stack of
strictly increasing priorities), plus a free-preemption variant that models
plain threads. Enumeration is bounded by per-handler invocation budgets and a
loop unroll limit; invocation is never mandatory, so every stack-empty point
doubles as a possible end of execution.

Preemption happens only between instructions; a single instruction is atomic.

A scheduler state is the plain tuple `(frames, global_env, writers,
budgets)`: `global_env[i]` is the value of global i, `writers[i]` the
`NodeId` of the store that wrote it (None while the initial value stands),
and `budgets[h]` the invocations handler h has left. A frame is `(handler
index, node index, locals, loops)`, with locals as sorted `(name, value)`
pairs and loops as sorted `(loop head index, iterations)` pairs. Under
interrupt semantics the frames are the activation stack, innermost last;
under thread semantics their order carries no meaning, so they are kept
sorted and equal states compare equal. Each handler has a step table, built
once from its graph: row i, for the node of index i, holds
- the instruction kind and the instruction;
- its successor steps as `(successor index, is back edge, index of the loop
  head it exits or -1)`;
- the indices of the globals it reads, and whether it is local-only;
- its `NodeId`, which is what flows, traces and assertion values report;
- the index of the global it writes, or -1.

Unless traces are recorded, the search applies static partial-order reduction
with a singleton ample set. A node is local-only when it reads no global,
writes no global and is not an assertion (the synthetic exit and the join
skips are local-only). Stepping a frame at such a node commutes with every
other frame's steps and with every invocation, so when the innermost frame
(under thread semantics, the first frame in frame order) sits at one, only
that frame steps. The guard: the reduction applies only when that step has
at least one successor. A dead-end step, such as a loop body's last node
whose back edge exceeds the unroll bound, ends the path, and the invocations
offered at that state are then the only way on. The state graph is acyclic
(budgets fall and loop counts are bounded), so no cycle proviso is needed.
The reduction keeps every violation, flow, assertion value, truncation and
distinct end state; it only explores fewer states on the way.

Which handlers may start over an innermost frame of handler h is fixed per
h: under interrupt semantics those of strictly higher priority, under thread
semantics all of them; an empty stack offers every handler.

The search visits each scheduler state once. With traces recorded it visits
each (state, trace so far) pair once instead: two paths that reach the same
state with the same trace have the same futures, so merging them loses no
trace, violation or truncation. `executions` then counts distinct (end state,
trace) pairs rather than paths. The order in which states are explored does
not change what is found, as dedup visits the whole reachable set.

The cyclic garbage collector is paused while the search runs and the
caller's setting is restored after it. The search builds only acyclic tuples,
so reference counting frees all of its garbage, and the generation-0
collections its many small allocations would trigger find nothing to free.
"""

from __future__ import annotations

import gc
import operator
from dataclasses import dataclass, replace

from .cfg import Cfg, NodeId, build_cfg, node_global_reads, node_global_write
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


@dataclass(frozen=True)
class OracleConfig:
    max_invocations: int = 1
    unroll: int = 2
    track_flows: bool = False
    record_traces: bool = False
    record_assert_values: bool = False
    max_executions: int = 500_000
    max_states: int = 3_000_000

    def __post_init__(self):
        if self.max_invocations < 1 or self.unroll < 1:
            raise ValueError("oracle bounds must be at least 1")


@dataclass(frozen=True)
class OracleResult:
    violated: frozenset[str]
    flows: frozenset[tuple[NodeId, NodeId, str]]
    executions: int
    truncated: bool
    traces: frozenset[tuple[NodeId, ...]] | None = None
    assert_values: frozenset[tuple[NodeId, str, int]] | None = None


# Instruction kinds of a step-table row; the exit node gets its own kind.
_EXIT, _SKIP, _ASSUME, _ASSERT, _ASSIGN, _HAVOC = range(6)
_KINDS = {Skip: _SKIP, Assume: _ASSUME, Assert: _ASSERT, Assign: _ASSIGN, Havoc: _HAVOC}

_CMP = {"==": operator.eq, "!=": operator.ne, "<": operator.lt,
        "<=": operator.le, ">": operator.gt, ">=": operator.ge}


class _Enumerator:
    def __init__(self, program: Program, oc: OracleConfig, interrupt: bool,
                 cfgs: list[Cfg] | None = None):
        self.program = program
        self.oc = oc
        self.interrupt = interrupt
        self.cfgs = cfgs if cfgs is not None else [build_cfg(h) for h in program.handlers]
        self.priorities = [h.priority for h in program.handlers]
        self.gnames = list(program.global_names())
        self.gidx = {name: i for i, name in enumerate(self.gnames)}
        self.table = [self._rows(g) for g in self.cfgs]
        # (handler index, entry index) of every handler, and of those that may start over
        # an innermost frame of handler h
        self.starts = tuple((h, g.entry.index) for h, g in enumerate(self.cfgs))
        self.preempt = [tuple(s for s in self.starts
                              if not interrupt or self.priorities[s[0]] > pr)
                        for pr in self.priorities]

        self.violated: set[str] = set()
        self.flows: set[tuple[NodeId, NodeId, str]] = set()
        self.assert_values: set[tuple[NodeId, str, int]] = set()
        self.traces: set[tuple[NodeId, ...]] = set()
        self.executions = 0
        self.truncated = False

    def _rows(self, g: Cfg) -> tuple[tuple, ...]:
        """The step table of one handler: row i describes the node of index i."""
        rows = []
        for i, n in enumerate(g.nodes):
            assert n.index == i
            ins = g.instr[n]
            if n == g.exit:
                kind = _EXIT
            elif type(ins) in _KINDS:
                kind = _KINDS[type(ins)]
            else:
                raise TypeError(f"not executable: {ins!r}")
            steps = tuple((s.index, (n, s) in g.back_edges,
                           g.loop_exits[s].index if s in g.loop_exits else -1)
                          for s in g.succs[n])
            reads = tuple(self.gidx[name] for name in node_global_reads(ins))
            written = node_global_write(ins)
            local_only = not reads and written is None and kind != _ASSERT
            target = self.gidx[written] if written is not None else -1
            rows.append((kind, ins, steps, reads, local_only, n, target))
        return tuple(rows)

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
        return _CMP[c.op](self._eval(c.left, genv, locs), self._eval(c.right, genv, locs))

    def _record_reads(self, node: NodeId, reads: tuple[int, ...], writers: tuple) -> None:
        for i in reads:
            w = writers[i]
            if w is not None:
                self.flows.add((node, w, self.gnames[i]))

    @staticmethod
    def _set_local(locs: tuple[tuple[str, int], ...], name: str, value: int) -> tuple[tuple[str, int], ...]:
        kept = tuple((k, v) for k, v in locs if k != name)
        return tuple(sorted(kept + ((name, value),)))

    # -- stepping -------------------------------------------------------------

    def _advance(self, st: tuple, idx: int, steps: tuple, locs: tuple, genv: tuple,
                 writers: tuple, trace: tuple[NodeId, ...]) -> list[tuple[tuple, tuple[NodeId, ...]]]:
        """Move frame `idx` along each of `steps`, honoring the loop unroll bound."""
        frames = st[0]
        h, _, _, loops = frames[idx]
        before, after = frames[:idx], frames[idx + 1:]
        out = []
        for succ, back, exited in steps:
            moved = loops
            if back:
                count = 1
                for head, c in loops:
                    if head == succ:
                        count = c + 1
                if count > self.oc.unroll:
                    self.truncated = True
                    continue
                moved = tuple(sorted([p for p in loops if p[0] != succ] + [(succ, count)]))
            elif exited >= 0 and loops:
                # leaving the loop: its iteration count no longer matters
                moved = tuple(p for p in loops if p[0] != exited)
            new_frames = before + ((h, succ, locs, moved),) + after
            if not self.interrupt:
                # frame order carries no meaning under threads; keep it canonical for dedup
                new_frames = tuple(sorted(new_frames))
            out.append(((new_frames, genv, writers, st[3]), trace))
        return out

    def _step_frame(self, st: tuple, trace: tuple[NodeId, ...], idx: int
                    ) -> list[tuple[tuple, tuple[NodeId, ...]]]:
        frames, genv, writers, budgets = st
        h, n, locs, _ = frames[idx]
        kind, ins, steps, reads, _, node, target = self.table[h][n]
        if kind == _EXIT:
            # removing a frame keeps the thread-semantics order canonical
            return [((frames[:idx] + frames[idx + 1:], genv, writers, budgets), trace)]
        if kind == _SKIP:
            return self._advance(st, idx, steps, locs, genv, writers, trace)
        track_flows = self.oc.track_flows
        if kind == _ASSUME:
            if type(ins.cond) is not Nondet and not self._eval_cmp(ins.cond, genv, locs):
                return []
            if track_flows:
                self._record_reads(node, reads, writers)
            return self._advance(st, idx, steps, locs, genv, writers, trace)
        if kind == _ASSERT:
            if track_flows:
                self._record_reads(node, reads, writers)
            if self.oc.record_assert_values:
                for v in set(cond_vars(ins.cond)):
                    self.assert_values.add((node, v.name, self._eval(v, genv, locs)))
            if not self._eval_cmp(ins.cond, genv, locs):
                self.violated.add(ins.uid)
            if self.oc.record_traces:
                trace += (node,)
            return self._advance(st, idx, steps, locs, genv, writers, trace)
        # an assignment or a havoc: write each value it may produce, then move on
        if kind == _ASSIGN:
            if track_flows:
                self._record_reads(node, reads, writers)
            values = (self._eval(ins.expr, genv, locs),)
        else:
            values = HAVOC_VALUES
        if self.oc.record_traces:
            trace += (node,)
        out = []
        for value in values:
            if target >= 0:
                out += self._advance(st, idx, steps, locs,
                                     genv[:target] + (value,) + genv[target + 1:],
                                     writers[:target] + (node,) + writers[target + 1:], trace)
            else:
                out += self._advance(st, idx, steps, self._set_local(locs, ins.target.name, value),
                                     genv, writers, trace)
        return out

    def _invocations(self, st: tuple, trace: tuple[NodeId, ...], offered: tuple
                     ) -> list[tuple[tuple, tuple[NodeId, ...]]]:
        """Start each handler of `offered` that has budget left."""
        frames, genv, writers, budgets = st
        out = []
        for h_idx, entry in offered:
            if budgets[h_idx] == 0:
                continue
            new_budgets = budgets[:h_idx] + (budgets[h_idx] - 1,) + budgets[h_idx + 1:]
            new_frames = frames + ((h_idx, entry, (), ()),)
            if self.interrupt:
                # the inductive step of: the stack is strictly increasing in priority
                assert not frames or self.priorities[h_idx] > self.priorities[frames[-1][0]], \
                    "activation stack must be strictly increasing in priority"
            else:
                new_frames = tuple(sorted(new_frames))
            out.append(((new_frames, genv, writers, new_budgets), trace))
        return out

    # -- main loop -------------------------------------------------------------

    def run(self) -> OracleResult:
        # acyclic tuples only, freed by reference counting: collections would find no garbage
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            self._search()
        finally:
            if gc_was_enabled:
                gc.enable()
        return OracleResult(
            violated=frozenset(self.violated),
            flows=frozenset(self.flows),
            executions=self.executions,
            truncated=self.truncated,
            traces=frozenset(self.traces) if self.oc.record_traces else None,
            assert_values=frozenset(self.assert_values) if self.oc.record_assert_values else None,
        )

    def _search(self) -> None:
        initial_budgets = tuple(self.oc.max_invocations for _ in self.cfgs)
        init = ((), tuple(v for _, v in self.program.globals),
                tuple(None for _ in self.gnames), initial_budgets)
        stack: list[tuple[tuple, tuple[NodeId, ...]]] = [(init, ())]
        seen: set[tuple] = set()
        table, preempt, starts = self.table, self.preempt, self.starts
        interrupt = self.interrupt
        record_traces = self.oc.record_traces
        max_states = self.oc.max_states
        states_explored = 0
        while stack:
            item = stack.pop()
            st, trace = item
            # add-then-compare hashes the nested state once, not twice
            size = len(seen)
            seen.add(item if record_traces else st)
            if len(seen) == size:
                continue
            states_explored += 1
            if states_explored > max_states:
                raise OracleLimitError(f"exceeded {max_states} explored scheduler states")
            frames = st[0]
            if frames:
                indices = (len(frames) - 1,) if interrupt else range(len(frames))
                ample_idx = None
                if not record_traces:
                    # partial-order reduction; see the module docstring
                    for idx in indices:
                        h, n, _, _ = frames[idx]
                        if table[h][n][4]:  # local-only
                            ample_idx = idx
                            break
                    if ample_idx is not None:
                        ample = self._step_frame(st, trace, ample_idx)
                        if ample:
                            stack.extend(ample)
                            continue
                # a dead-end ample step adds nothing; the other frames and invocations still may
                for idx in indices:
                    if idx != ample_idx:
                        stack.extend(self._step_frame(st, trace, idx))
            elif st[3] != initial_budgets:
                # Stack is empty: stopping here is a complete execution.
                self.executions += 1
                if self.executions > self.oc.max_executions:
                    raise OracleLimitError(
                        f"exceeded {self.oc.max_executions} explored executions")
                if record_traces:
                    self.traces.add(trace)
            offered = preempt[frames[-1][0]] if frames else starts
            if offered:
                stack.extend(self._invocations(st, trace, offered))


def enumerate_executions(program: Program, config: OracleConfig,
                         cfgs: list[Cfg] | None = None) -> OracleResult:
    """Depth-first enumeration of all bounded interrupt-semantics executions.

    At every point either the innermost active handler executes one
    instruction, or a handler with remaining budget and strictly higher
    priority than everything active is invoked; when the stack is empty any
    budgeted handler may start, or the execution may end. Nondeterministic
    conditions explore both branches; loops beyond the unroll bound truncate
    their path and set the `truncated` flag. `cfgs` are the program's graphs
    in handler order (`prepare(program)[0]`); they are built here when omitted.
    """
    return _Enumerator(program, config, interrupt=True, cfgs=cfgs).run()


def thread_enumerate(program: Program, config: OracleConfig) -> OracleResult:
    """Free-preemption enumeration: any live frame may step at any point.

    Models plain threads; the interrupt-semantics behaviors are always a
    subset of these.
    """
    return _Enumerator(program, config, interrupt=False).run()


def collect_traces(program: Program, config: OracleConfig, *, threads: bool = False
                   ) -> frozenset[tuple[NodeId, ...]]:
    """Complete-execution traces (assignment/havoc/assert nodes, in order)."""
    cfg = replace(config, record_traces=True)
    result = thread_enumerate(program, cfg) if threads else enumerate_executions(program, cfg)
    assert result.traces is not None
    return result.traces
