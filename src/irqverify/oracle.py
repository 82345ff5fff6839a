"""Exhaustive concrete-execution enumeration under interrupt semantics.

Ground truth for the static analysis: explores every interleaving reachable
under the priority rules (a handler may be invoked only while all active
handlers have strictly lower priority, so activation frames form a stack of
strictly increasing priorities), plus a free-preemption variant that models
plain threads. Enumeration is bounded by per-handler invocation budgets and a
loop unroll limit; invocation is never mandatory, so every stack-empty point
doubles as a possible end of execution.

Preemption happens only between instructions; a single instruction is atomic.

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
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import NamedTuple

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
        self.reads: dict[NodeId, tuple[str, ...]] = {}
        for g in self.cfgs:
            for n, ins in g.instr.items():
                self.reads[n] = node_global_reads(ins)
        self.local_only = frozenset(
            n for g in self.cfgs for n, ins in g.instr.items()
            if not self.reads[n] and node_global_write(ins) is None
            and not isinstance(ins, Assert))

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
                indices = (len(st.frames) - 1,) if self.interrupt else range(len(st.frames))
                ample_idx = None
                if not self.oc.record_traces:
                    # partial-order reduction; see the module docstring
                    for idx in indices:
                        if st.frames[idx].node in self.local_only:
                            ample_idx = idx
                            break
                    if ample_idx is not None:
                        ample = self._step_frame(st, trace, ample_idx)
                        if ample:
                            stack.extend(reversed(ample))
                            continue
                # a dead-end ample step adds nothing; the other frames and invocations still may
                for idx in indices:
                    if idx != ample_idx:
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
