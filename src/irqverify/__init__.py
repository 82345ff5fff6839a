"""Static assertion verifier for interrupt-driven programs.

Analyzes programs made of prioritized interrupt handlers sharing global
variables: each handler is analyzed in isolation over an interval domain, the
values it stores are propagated to the other handlers' reads, and the process
iterates to a fixed point. A priority-aware feasibility pass proves certain
cross-handler store-to-load flows impossible and removes them from the
propagation, which turns many spurious warnings into proofs. A bounded
concrete-execution oracle provides ground truth on small instances; it is
imported only when one of its names is first used.
"""

from .analyzer import (AnalysisConfig, AnalysisReport, AnalysisResult, analyze, analyze_local,
                       collect_interferences)
from .cfg import Cfg, NodeId, build_cfg, dominators, post_dominators
from .domain import AbstractState, Interval, check_assert, join, leq, transfer, widen
from .feasibility import FeasibilityResult, must_not_read_from, rejected_pairs
from .ir import Diagnostic, Handler, Program, format_program, validate
from .parser import ParseError, parse_file, parse_program

__version__ = "0.1.0"

__all__ = [
    "AbstractState",
    "AnalysisConfig",
    "AnalysisReport",
    "AnalysisResult",
    "Cfg",
    "Diagnostic",
    "FeasibilityResult",
    "Handler",
    "Interval",
    "NodeId",
    "OracleConfig",
    "OracleLimitError",
    "OracleResult",
    "ParseError",
    "Program",
    "analyze",
    "analyze_local",
    "build_cfg",
    "check_assert",
    "collect_interferences",
    "collect_traces",
    "dominators",
    "enumerate_executions",
    "format_program",
    "join",
    "leq",
    "must_not_read_from",
    "parse_file",
    "parse_program",
    "post_dominators",
    "rejected_pairs",
    "thread_enumerate",
    "transfer",
    "validate",
    "widen",
]


def __getattr__(name: str):
    """The oracle's public names, imported on first use (PEP 562)."""
    if name in __all__:  # every other public name is bound above
        from . import oracle
        return getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
