"""Span tracer for the traced benchmark run.

Wraps the package's layer functions from outside, at the module attribute
each caller looks up at call time (`irqverify.analyzer.analyze_local` is what
`analyze` calls; `irqverify.feasibility.dominators` is what `extract_facts`
calls). Each call becomes a span with a name, start, end, parent span and the
id of the input file being processed. Garbage collections become spans of
their own through `gc.callbacks`, nested under whatever span was open, so a
pause is visible instead of being silently charged to the layer that happened
to allocate. Spans stay in memory until the run writes them out.

A target that no longer exists is skipped, and every metric that depends on it
is reported absent rather than zero.
"""

from __future__ import annotations

import gc
import importlib
import json
import os
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable

GC_SPAN = "gc"


@dataclass(frozen=True)
class Target:
    module: str  # module whose attribute the caller looks up
    attr: str
    span: str
    count: Callable[[dict, tuple, object], None] | None = None


def _count_bytes(counts: dict, args: tuple, result) -> None:
    counts["parser.bytes"] += os.path.getsize(args[0])


def _count_nodes(counts: dict, args: tuple, result) -> None:
    cfgs, _infos = result
    counts["cfg.nodes"] += sum(len(g.nodes) for g in cfgs)


def _count_len(key: str) -> Callable[[dict, tuple, object], None]:
    def count(counts: dict, args: tuple, result) -> None:
        counts[key] += len(result)
    return count


def _count_analysis(counts: dict, args: tuple, result) -> None:
    report = result.report
    counts["analyses"] += 1
    counts["analyzer.rounds"] += report.iterations
    counts["feasibility.pairs_total"] += report.pairs_total
    counts["feasibility.pairs_pruned"] += report.pairs_pruned
    counts["verdicts"] += len(report.verdicts)
    counts["proved"] += sum(v.verdict == "Proved" for v in report.verdicts)


def _count_oracle(counts: dict, args: tuple, result) -> None:
    counts["oracle.executions"] += result.executions
    counts["oracle.truncated"] += int(result.truncated)


TARGETS = (
    Target("irqverify.cli", "main", "cli.main"),
    Target("irqverify.cli", "parse_file", "parser.parse", _count_bytes),
    Target("irqverify.cli", "validate", "ir.validate"),
    Target("irqverify.cli", "analyze", "analyzer.analyze", _count_analysis),
    Target("irqverify.cli", "dump_facts", "feasibility.dump", _count_len("feasibility.dump_lines")),
    Target("irqverify.cli", "enumerate_executions", "oracle.enumerate", _count_oracle),
    Target("irqverify.analyzer", "build_all", "cfg.build", _count_nodes),
    Target("irqverify.analyzer", "extract_facts", "feasibility.extract"),
    Target("irqverify.feasibility", "dominators", "cfg.dom", _count_len("cfg.dom_tuples")),
    Target("irqverify.feasibility", "post_dominators", "cfg.postdom", _count_len("cfg.dom_tuples")),
    Target("irqverify.analyzer", "must_not_read_from", "feasibility.rules"),
    Target("irqverify.feasibility", "no_preempt", "feasibility.no_preempt",
           _count_len("feasibility.no_preempt_tuples")),
    Target("irqverify.analyzer", "cross_pairs", "feasibility.cross_pairs"),
    Target("irqverify.feasibility", "cross_pairs", "feasibility.cross_pairs"),
    Target("irqverify.analyzer", "analyze_local", "analyzer.local"),
    Target("irqverify.analyzer", "collect_interferences", "analyzer.collect"),
)

# Per-layer metric -> (unit, spans it needs). A metric is absent when any span
# it needs could not be wrapped.
METRICS: dict[str, tuple[str, tuple[str, ...]]] = {
    "parser.parse_s": ("s", ("parser.parse",)),
    "parser.bytes": ("bytes", ("parser.parse",)),
    "ir.validate_s": ("s", ("ir.validate",)),
    "cfg.build_s": ("s", ("cfg.build",)),
    "cfg.dom_s": ("s", ("cfg.dom",)),
    "cfg.postdom_s": ("s", ("cfg.postdom",)),
    "cfg.nodes": ("count", ("cfg.build",)),
    "cfg.dom_tuples": ("count", ("cfg.dom", "cfg.postdom")),
    "feasibility.extract_self_s": ("s", ("feasibility.extract",)),
    "feasibility.no_preempt_s": ("s", ("feasibility.no_preempt",)),
    "feasibility.no_preempt_tuples": ("count", ("feasibility.no_preempt",)),
    "feasibility.cross_pairs_s": ("s", ("feasibility.cross_pairs",)),
    "feasibility.cross_pairs_calls": ("calls/analysis", ("feasibility.cross_pairs", "analyzer.analyze")),
    "feasibility.rules_self_s": ("s", ("feasibility.rules",)),
    "feasibility.pairs_total": ("count", ("analyzer.analyze",)),
    "feasibility.pairs_pruned": ("count", ("analyzer.analyze",)),
    "feasibility.pruned_ratio": ("ratio", ("analyzer.analyze",)),
    "feasibility.dump_s": ("s", ("feasibility.dump",)),
    "feasibility.dump_lines": ("count", ("feasibility.dump",)),
    "analyzer.local_s": ("s", ("analyzer.local",)),
    "analyzer.local_calls": ("count", ("analyzer.local",)),
    "analyzer.rounds": ("count", ("analyzer.analyze",)),
    "analyzer.collect_s": ("s", ("analyzer.collect",)),
    "analyzer.outer_self_s": ("s", ("analyzer.analyze",)),
    "analyzer.proved_ratio": ("ratio", ("analyzer.analyze",)),
    "oracle.enumerate_s": ("s", ("oracle.enumerate",)),
    "oracle.executions": ("count", ("oracle.enumerate",)),
    "oracle.executions_per_s": ("1/s", ("oracle.enumerate",)),
    "oracle.truncated": ("count", ("oracle.enumerate",)),
    "cli.self_s": ("s", ("cli.main",)),
    "gc.pause_s": ("s", ()),
    "gc.collections_gen2": ("count", ()),
}


@dataclass
class Tracer:
    """Records spans around wrapped calls and garbage collections.

    Spans are lists `[name, start, end, parent, trace_id]`; `parent` is the
    index of the enclosing span or -1. Set `trace_id` before each input file.
    """

    spans: list[list] = field(default_factory=list)
    counts: defaultdict[str, float] = field(default_factory=lambda: defaultdict(float))
    wrapped: set[str] = field(default_factory=set)
    missing: list[str] = field(default_factory=list)
    trace_id: int = -1
    _stack: list[int] = field(default_factory=list)
    _undo: list[tuple[object, str, object]] = field(default_factory=list)

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        span = [name, time.perf_counter(), 0.0, parent, self.trace_id]
        self.spans.append(span)
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        top = self._stack.pop()
        if top != idx:
            raise RuntimeError(f"span {self.spans[idx][0]} closed out of order")

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self.open(GC_SPAN)
            return
        idx = self._stack[-1]
        self.close(idx)
        if self.spans[idx][3] >= 0 and info.get("generation") == 2:
            self.counts["gc.collections_gen2"] += 1

    def _wrap(self, t: Target) -> None:
        try:
            module = importlib.import_module(t.module)
        except ImportError:
            module = None
        fn = getattr(module, t.attr, None)
        if fn is None:
            self.missing.append(f"{t.module}.{t.attr}")
            return
        tracer = self

        def wrapper(*args, **kwargs):
            idx = tracer.open(t.span)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if t.count is not None:
                try:
                    t.count(tracer.counts, args, result)
                except (AttributeError, TypeError, ValueError, OSError):
                    tracer.missing.append(f"count for {t.span}")
                    tracer.wrapped.discard(t.span)
            return result

        wrapper.__wrapped__ = fn
        setattr(module, t.attr, wrapper)
        self._undo.append((module, t.attr, fn))
        self.wrapped.add(t.span)

    def install(self, targets=TARGETS) -> None:
        for t in targets:
            self._wrap(t)
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        gc.callbacks.remove(self._on_gc)
        for module, attr, fn in reversed(self._undo):
            setattr(module, attr, fn)
        self._undo.clear()

    # -- reduction ---------------------------------------------------------

    def layer_times(self) -> tuple[dict[str, float], dict[str, float], dict[str, int]]:
        """Total duration, self time and call count per span name.

        A span's self time is its duration minus that of its child layer
        spans. Garbage-collection spans count towards `gc` only and stay
        inside the duration and self time of the layer they interrupted; a
        collection outside every layer span ran in the harness and is left out.
        """
        total: dict[str, float] = {}
        self_time: dict[str, float] = {}
        calls: dict[str, int] = {}
        for name, start, end, parent, _tid in self.spans:
            if name == GC_SPAN and parent < 0:
                continue
            d = end - start
            total[name] = total.get(name, 0.0) + d
            self_time[name] = self_time.get(name, 0.0) + d
            calls[name] = calls.get(name, 0) + 1
            if parent >= 0 and name != GC_SPAN:
                pname = self.spans[parent][0]
                self_time[pname] = self_time.get(pname, 0.0) - d
        return total, self_time, calls

    def metrics(self, passes: int) -> tuple[dict[str, float], list[str]]:
        """Per-layer metrics per pass over the batch, and the absent ones."""
        total, self_time, calls = self.layer_times()
        c = self.counts
        analyses = c.get("analyses", 0)
        values = {
            "parser.parse_s": total.get("parser.parse", 0.0),
            "parser.bytes": c.get("parser.bytes", 0),
            "ir.validate_s": total.get("ir.validate", 0.0),
            "cfg.build_s": total.get("cfg.build", 0.0),
            "cfg.dom_s": total.get("cfg.dom", 0.0),
            "cfg.postdom_s": total.get("cfg.postdom", 0.0),
            "cfg.nodes": c.get("cfg.nodes", 0),
            "cfg.dom_tuples": c.get("cfg.dom_tuples", 0),
            "feasibility.extract_self_s": self_time.get("feasibility.extract", 0.0),
            "feasibility.no_preempt_s": total.get("feasibility.no_preempt", 0.0),
            "feasibility.no_preempt_tuples": c.get("feasibility.no_preempt_tuples", 0),
            "feasibility.cross_pairs_s": total.get("feasibility.cross_pairs", 0.0),
            "feasibility.rules_self_s": self_time.get("feasibility.rules", 0.0),
            "feasibility.pairs_total": c.get("feasibility.pairs_total", 0),
            "feasibility.pairs_pruned": c.get("feasibility.pairs_pruned", 0),
            "feasibility.dump_s": total.get("feasibility.dump", 0.0),
            "feasibility.dump_lines": c.get("feasibility.dump_lines", 0),
            "analyzer.local_s": total.get("analyzer.local", 0.0),
            "analyzer.local_calls": calls.get("analyzer.local", 0),
            "analyzer.rounds": c.get("analyzer.rounds", 0),
            "analyzer.collect_s": total.get("analyzer.collect", 0.0),
            "analyzer.outer_self_s": self_time.get("analyzer.analyze", 0.0),
            "oracle.enumerate_s": total.get("oracle.enumerate", 0.0),
            "oracle.executions": c.get("oracle.executions", 0),
            "oracle.truncated": c.get("oracle.truncated", 0),
            "cli.self_s": self_time.get("cli.main", 0.0),
            "gc.pause_s": total.get(GC_SPAN, 0.0),
            "gc.collections_gen2": c.get("gc.collections_gen2", 0),
        }
        values = {k: v / passes for k, v in values.items()}
        pairs = c.get("feasibility.pairs_total", 0)
        verdicts = c.get("verdicts", 0)
        enum_s = total.get("oracle.enumerate", 0.0)
        # Ratios keep their bases above; an empty base gives 0.
        values["feasibility.cross_pairs_calls"] = (
            calls.get("feasibility.cross_pairs", 0) / analyses if analyses else 0.0)
        values["feasibility.pruned_ratio"] = c.get("feasibility.pairs_pruned", 0) / pairs if pairs else 0.0
        values["analyzer.proved_ratio"] = c.get("proved", 0) / verdicts if verdicts else 0.0
        values["oracle.executions_per_s"] = c.get("oracle.executions", 0) / enum_s if enum_s else 0.0
        absent = [m for m, (_unit, needs) in METRICS.items()
                  if any(n not in self.wrapped for n in needs)]
        return {m: values[m] for m in METRICS if m not in absent}, absent

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "trace_id"],
                       "spans": self.spans}, fh)
