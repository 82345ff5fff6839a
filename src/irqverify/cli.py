"""Command-line interface.

Subcommands:

* ``analyze``: run the modular analysis, print verdicts and pair statistics.
* ``oracle``: exhaustively enumerate bounded concrete executions.
* ``facts``: dump the extracted facts and derived feasibility relations.
* ``compare``: analysis with and without pruning, side by side with the
  oracle; a proved assertion the oracle can violate is a fatal error.

Exit codes: 0 all assertions proved (or none), 1 at least one warning, 2
input error (including input nested too deeply to process) or ``oracle``
exceeding its ceiling on explored states or on executions, 3 soundness
discrepancy in ``compare``, 4 internal error (traceback, then ``error:
internal error: ...`` on stderr), 141 (128 + SIGPIPE) stdout closed by its
reader (nothing on stderr).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import traceback

from .analyzer import AnalysisConfig, AnalysisReport, analyze, prepare
from .cfg import dump_cfg
from .feasibility import dump_facts
from .ir import Program, validate
from .parser import ParseError, parse_file


def enumerate_executions(program: Program, config, built=None):
    """`oracle.enumerate_executions`, imported on first call: `analyze` and `facts` never load the oracle."""
    from . import oracle
    return oracle.enumerate_executions(program, config, built)


def _load(path: str) -> Program:
    program = parse_file(path)
    problems = validate(program)
    if problems:
        raise ParseError("; ".join(str(d) for d in problems), 0, 0)
    return program


def _pairs_line(report: AnalysisReport) -> str:
    return (f"pairs: total={report.pairs_total} pruned={report.pairs_pruned} "
            f"ratio={report.pairs_ratio:.2f}")


def _pairs_json(report: AnalysisReport) -> dict:
    """The `"pairs"` object of the `analyze` and `compare` JSON output."""
    return {"total": report.pairs_total, "pruned": report.pairs_pruned, "ratio": report.pairs_ratio}


def _render_report(report: AnalysisReport, as_json: bool) -> str:
    if as_json:
        return json.dumps({"verdicts": [v._asdict() for v in report.verdicts], "pairs": _pairs_json(report),
                           "iterations": report.iterations, "pruning_enabled": report.pruning_enabled},
                          indent=2)
    lines = [f"{'assertion':<20} {'handler':<12} verdict"]
    for v in report.verdicts:
        lines.append(f"{v.assertion_id:<20} {v.handler:<12} {v.verdict}")
    if not report.verdicts:
        lines.append("(no assertions)")
    lines.append("")
    lines.append(_pairs_line(report))
    lines.append(f"iterations={report.iterations} "
                 f"pruning={'on' if report.pruning_enabled else 'off'}")
    return "\n".join(lines)


def _oracle_json(result) -> dict:
    return {
        "violated": sorted(result.violated),
        "executions": result.executions,
        "truncated": result.truncated,
        "flows": [
            {"load": str(l), "store": str(s), "var": v}
            for l, s, v in sorted(result.flows, key=lambda t: (str(t[0]), str(t[1]), t[2]))
        ],
    }


def cmd_analyze(args: argparse.Namespace) -> int:
    program = _load(args.path)
    config = AnalysisConfig(pruning=not args.no_pruning,
                            widen_delay=args.widen_delay,
                            max_outer=args.max_iters)
    result = analyze(program, config)
    if args.dump_cfg:
        for f in result.facts:
            print("\n".join(dump_cfg(f.graph, f.dom, f.postdom)))
    if args.dump_facts:
        dump_facts(result.facts, result.feasibility, sys.stdout.write)
    print(_render_report(result.report, args.json))
    return 1 if any(v.verdict == "Warning" for v in result.report.verdicts) else 0


def cmd_oracle(args: argparse.Namespace) -> int:
    from .oracle import OracleConfig, OracleLimitError
    program = _load(args.path)
    config = OracleConfig(max_invocations=args.oracle_budget,
                          unroll=args.unroll,
                          track_flows=args.track_flows)
    try:
        result = enumerate_executions(program, config)
    except OracleLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(_oracle_json(result), indent=2))
    return 0


def cmd_facts(args: argparse.Namespace) -> int:
    facts, feasibility = prepare(_load(args.path))
    dump_facts(facts, feasibility, sys.stdout.write)
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    from .oracle import OracleConfig, OracleLimitError
    program = _load(args.path)
    config = AnalysisConfig(widen_delay=args.widen_delay, max_outer=args.max_iters)
    oracle_config = OracleConfig(max_invocations=args.oracle_budget, unroll=args.unroll,
                                 violations_only=True)
    prepared = prepare(program)
    facts = prepared[0]
    memo = {}  # shared: a handler whose admitted hulls pruning leaves unchanged is solved once
    pruned = analyze(program, config, prepared, memo)
    plain = analyze(program, config._replace(pruning=False), prepared, memo)
    try:
        # the facts records carry the graphs and the access facts that the oracle reads
        oracle_result = enumerate_executions(program, oracle_config,
                                             ([f.graph for f in facts], facts))
        violated = oracle_result.violated
        oracle_skipped = False
    except OracleLimitError:
        violated = frozenset()
        oracle_skipped = True

    rows = []
    discrepancies = []
    plain_verdicts = {v.assertion_id: v.verdict for v in plain.report.verdicts}
    for v in pruned.report.verdicts:
        oracle_col = "skipped" if oracle_skipped else (
            "violated" if v.assertion_id in violated else "ok")
        rows.append({
            "assertion_id": v.assertion_id,
            "handler": v.handler,
            "pruning": v.verdict,
            "no_pruning": plain_verdicts[v.assertion_id],
            "oracle": oracle_col,
        })
        if not oracle_skipped and v.assertion_id in violated:
            if v.verdict == "Proved" or plain_verdicts[v.assertion_id] == "Proved":
                discrepancies.append(v.assertion_id)

    payload = {
        "rows": rows,
        "pairs": _pairs_json(pruned.report),
        "oracle_skipped": oracle_skipped,
        "sound": not discrepancies,
    }
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        print(f"{'assertion':<20} {'pruning':<10} {'no-pruning':<12} oracle")
        for r in rows:
            print(f"{r['assertion_id']:<20} {r['pruning']:<10} {r['no_pruning']:<12} {r['oracle']}")
        if not rows:
            print("(no assertions)")
        print()
        print(_pairs_line(pruned.report))
    if discrepancies:
        print(f"error: oracle violates proved assertion(s): {', '.join(sorted(discrepancies))}",
              file=sys.stderr)
        return 3
    return 0


@functools.cache
def build_arg_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: `main` may run many times."""
    parser = argparse.ArgumentParser(
        prog="irqverify",
        description="Prove or warn about assertions in interrupt-driven programs.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_analysis_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--widen-delay", type=int, default=2, metavar="N",
                       help="loop-head widening delay (default 2)")
        p.add_argument("--max-iters", type=int, default=10, metavar="N",
                       help="outer rounds before cross-round widening (default 10)")

    def add_oracle_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--oracle-budget", type=int, default=1, metavar="N",
                       help="max invocations per handler (default 1)")
        p.add_argument("--unroll", type=int, default=2, metavar="N",
                       help="loop unroll bound (default 2)")

    p = sub.add_parser("analyze", help="run the modular analysis")
    p.add_argument("path")
    p.add_argument("--json", action="store_true", help="machine-readable report")
    p.add_argument("--no-pruning", action="store_true",
                   help="keep every interfering store (thread-style analysis)")
    p.add_argument("--dump-cfg", action="store_true", help="dump graphs and dominance")
    p.add_argument("--dump-facts", action="store_true", help="dump extracted facts")
    add_analysis_flags(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("oracle", help="enumerate bounded concrete executions")
    p.add_argument("path")
    p.add_argument("--track-flows", action="store_true",
                   help="record observed store-to-load flows")
    add_oracle_flags(p)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("facts", help="dump facts and derived relations")
    p.add_argument("path")
    p.set_defaults(func=cmd_facts)

    p = sub.add_parser("compare", help="analysis with/without pruning vs. the oracle")
    p.add_argument("path")
    p.add_argument("--json", action="store_true", help="machine-readable comparison")
    add_analysis_flags(p)
    add_oracle_flags(p)
    p.set_defaults(func=cmd_compare)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_arg_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader is gone: send the interpreter's final flush nowhere.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (ParseError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RecursionError:
        print("error: input nests too deeply", file=sys.stderr)
        return 2
    except Exception as exc:
        traceback.print_exc()
        print(f"error: internal error: {exc!r}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
