"""The interval domain against the copy of it that still had an empty interval.

`domain_reference` keeps the domain as it was while `Interval` carried an
`empty` flag and a `BOTTOM` constant. Operation by operation on seeded random
states, and through whole analyses of the corpus, progen seeds 0-499 and the
perfbench seed-0 batches, the package's domain must give the same results:
a None interval where the old one gave `BOTTOM`, and otherwise the same
intervals, states, verdicts and reports.
"""

import functools
import random

import pytest

from irqverify import analyzer, domain, parse_program
from irqverify.analyzer import AnalysisConfig, analyze
from irqverify.ir import NONDET, Add, Assert, Assign, Assume, Cmp, Const, Havoc, Mul, Skip, Sub, VarRef

import domain_reference
from conftest import CORPUS_NAMES, load_corpus, node_states
from progen import random_program
from test_parser_reference import _perfbench_seed0_texts

NAMES = ("x", "y", "z")
OPS = ("==", "!=", "<", "<=", ">", ">=")
G = lambda name: VarRef(name, "global")  # noqa: E731


def random_bounds(rng):
    lo = None if rng.random() < 0.2 else rng.randint(-4, 4)
    hi = None if rng.random() < 0.2 else rng.randint(-4, 4)
    if lo is not None and hi is not None and lo > hi:
        lo, hi = hi, lo
    return lo, hi


def random_spec(rng):
    """None for the bottom state, else variable -> bounds."""
    if rng.random() < 0.05:
        return None
    return {n: random_bounds(rng) for n in NAMES if rng.random() < 0.7}


def build(module, spec):
    if spec is None:
        return module.AbstractState.bottom()
    return module.AbstractState({n: module.Interval(*b) for n, b in spec.items()})


def random_side(rng):
    """A variable, a constant or an affine expression over one or two variables."""
    kind = rng.randrange(3)
    if kind == 0:
        return G(rng.choice(NAMES))
    if kind == 1:
        return Const(rng.randint(-5, 5))
    if rng.random() < 0.5:
        return Add(Mul(rng.choice((-2, -1, 2, 3)), G(rng.choice(NAMES))), Const(rng.randint(-3, 3)))
    return Sub(G(rng.choice(NAMES)), G(rng.choice(NAMES)))


def random_instr(rng):
    roll = rng.randrange(6)
    if roll == 0:
        return Assign(G(rng.choice(NAMES)), random_side(rng))
    if roll == 1:
        return Havoc(G(rng.choice(NAMES)))
    if roll == 2:
        return Assume(NONDET)
    if roll == 3:
        return Assert(Cmp(rng.choice(OPS), random_side(rng), random_side(rng)), "a#0")
    if roll == 4:
        return Skip()
    return Assume(Cmp(rng.choice(OPS), random_side(rng), random_side(rng)))


def test_interval_operations_match_reference():
    rng = random.Random(4)
    for _ in range(3000):
        (alo, ahi), (blo, bhi) = random_bounds(rng), random_bounds(rng)
        new_a, new_b = domain.Interval(alo, ahi), domain.Interval(blo, bhi)
        old_a, old_b = domain_reference.Interval(alo, ahi), domain_reference.Interval(blo, bhi)
        met = new_a.meet(new_b)
        assert repr(old_a.meet(old_b)) == ("[empty]" if met is None else repr(met)), (new_a, new_b)
        for op in ("join", "widen", "add", "sub"):
            assert repr(getattr(new_a, op)(new_b)) == repr(getattr(old_a, op)(old_b)), (op, new_a, new_b)
        assert new_a.leq(new_b) == old_a.leq(old_b)
        k, v = rng.randint(-3, 3), rng.randint(-5, 5)
        assert repr(new_a.scale(k)) == repr(old_a.scale(k))
        assert new_a.contains(v) == old_a.contains(v)


@pytest.mark.parametrize("op", OPS)
def test_assume_cond_matches_reference_for_every_operator(op):
    rng = random.Random(OPS.index(op))
    for _ in range(1500):
        spec = random_spec(rng)
        cond = Cmp(op, random_side(rng), random_side(rng))
        got = domain.assume_cond(cond, build(domain, spec))
        want = domain_reference.assume_cond(cond, build(domain_reference, spec))
        assert repr(got) == repr(want), (cond, spec)


def test_transfer_and_check_assert_match_reference():
    rng = random.Random(5)
    for _ in range(4000):
        spec = random_spec(rng)
        new, old = build(domain, spec), build(domain_reference, spec)
        ins = random_instr(rng)
        assert repr(domain.transfer(ins, new)) == repr(domain_reference.transfer(ins, old)), (ins, spec)
        cond = Cmp(rng.choice(OPS), random_side(rng), random_side(rng))
        assert domain.check_assert(cond, new) == (domain_reference.check_assert(cond, old)
                                                  is domain_reference.Verdict.PROVED)
        other = random_spec(rng)
        new_other, old_other = build(domain, other), build(domain_reference, other)
        assert repr(domain.join(new, new_other)) == repr(domain_reference.join(old, old_other))
        assert repr(domain.widen(new, new_other)) == repr(domain_reference.widen(old, old_other))
        assert domain.leq(new, new_other) == domain_reference.leq(old, old_other)


#: What the analyzer takes from the domain module.
ANALYZER_NAMES = ("AbstractState", "Interval", "join", "transfer", "widen", "check_assert")


def reference_proved(cond, s):
    """The reference `check_assert` as the analyzer reads it: whether the assertion is proved."""
    return domain_reference.check_assert(cond, s) is domain_reference.Verdict.PROVED


@functools.cache
def _programs():
    programs = [(name, load_corpus(name)) for name in CORPUS_NAMES]
    programs += [(f"progen seed {seed}", random_program(random.Random(seed))) for seed in range(500)]
    programs += [(f"perfbench input {i}", parse_program(text))
                 for i, text in enumerate(_perfbench_seed0_texts())]
    return programs


@pytest.mark.parametrize("config", [
    AnalysisConfig(),
    AnalysisConfig(pruning=False),
    AnalysisConfig(widen_delay=1, max_outer=2),
], ids=["default", "no-pruning", "widen-early"])
def test_analysis_matches_reference_domain(config, monkeypatch):
    for label, program in _programs():
        got = analyze(program, config)
        with monkeypatch.context() as m:
            for name in ANALYZER_NAMES:
                m.setattr(analyzer, name,
                          reference_proved if name == "check_assert" else getattr(domain_reference, name))
            want = analyze(program, config)
        got_states, want_states = node_states(got), node_states(want)
        assert all(type(s) is domain_reference.AbstractState for s in want_states.values()), label
        assert got.report == want.report, label
        assert list(got_states) == list(want_states), label
        assert list(map(repr, got_states.values())) == list(map(repr, want_states.values())), label
