"""The reduced oracle against the unreduced original.

`_Unreduced.run` below is the search loop that partial-order reduction
replaced: at every state it offers every step of every frame that may move
and every invocation. It is kept verbatim as a test oracle. The whole
`OracleResult` (violations, flows, assertion values, execution count and
truncation) must be the same on the corpus at budgets 1-2 in both semantics,
on progen seeds 0-199 with the acceptance sweep's configuration, on the
first 20 two-handler programs of the budget-3 sweep (seeds 500 and up), and
on seeds 0-19 with thread semantics at budget 1. Like progen's `oracle_budget`,
the corpus runs give three-handler programs budget 2 under interrupt
semantics only: the unreduced thread search of `branch_overwrites` at
budget 2 alone takes about 15 s. With traces recorded nothing is reduced,
and the traces must be the same too.
"""

import random

import pytest

from irqverify import OracleConfig, OracleLimitError, enumerate_executions, thread_enumerate
from irqverify.cfg import NodeId
from irqverify.oracle import OracleResult, SchedulerState, _Enumerator

from conftest import CORPUS_NAMES, load_corpus
from progen import oracle_budget, random_program


class _Unreduced(_Enumerator):
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


def test_matches_unreduced_on_thread_seeds():
    config = OracleConfig(max_invocations=1, unroll=2, track_flows=True,
                          record_assert_values=True, max_executions=400_000)
    for seed in range(20):
        p = random_program(random.Random(seed))
        _check(p, config, False, thread_enumerate, f"progen seed {seed}")


@pytest.mark.parametrize("interrupt, enumerate_fn", SEMANTICS, ids=["interrupt", "threads"])
def test_recorded_traces_are_not_reduced(interrupt, enumerate_fn):
    # without dedup, thread runs of three handlers exceed the execution ceiling
    config = OracleConfig(max_invocations=1, unroll=2, record_traces=True)
    for name, p in _corpus(two_handlers_only=not interrupt):
        _check(p, config, interrupt, enumerate_fn, name)


def test_state_ceiling_counts_reduced_states():
    # the reduced search fits under a ceiling the unreduced one exceeds
    p = load_corpus("three_priorities")
    config = OracleConfig(max_invocations=2, unroll=2, max_states=1_000)
    with pytest.raises(OracleLimitError):
        _Unreduced(p, config, True).run()
    assert enumerate_executions(p, config) == _Unreduced(
        p, OracleConfig(max_invocations=2, unroll=2), True).run()
