"""irqverify benchmark: CLI time-to-verdict per workload, or per-layer spans.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {wide,deep,facts,oracle} --seed N \\
        --seconds S --trace {0,1}

Set-up is probed several times: each probe is a fresh interpreter that imports
`irqverify` and generates and writes the workload's inputs, and `setup_s` is
the median. Then one fresh worker process (`worker.py`) runs the workload with
its own recorded `PYTHONHASHSEED`, so that a dependence on hash order shows as
an output mismatch. Every time is normalised to the reference host speed
(`hostspeed.py`), sampled just before and after each set-up probe and while
the worker's calls run; raw times are printed on the `#` lines. The last line
of stdout is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With `--trace 0` the metrics are the end-to-end ones (`setup_s`, `wall_s`,
`verdict_p50_s`, `verdict_tail_s`, `peak_rss_mb`); with `--trace 1` they are
the per-layer ones of `spans.py` plus `trace.overhead_s`. The error rate is
`failed / attempted`. Details go to stdout before the result, as `#` lines.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import hostspeed  # noqa: E402  (needs the path above)
import workloads  # noqa: E402
from spans import METRICS  # noqa: E402

SETUP_PROBES = 9  # set-up probes per run
DEADLINE_S = 170  # the whole run must end within 180 s

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "verdict_p50_s": "s", "verdict_tail_s": "s",
                    "peak_rss_mb": "MB"}
LAYER_UNITS = {name: unit for name, (unit, _spans) in METRICS.items()} | {"trace.overhead_s": "s"}


def hash_seed(workload: str, seed: int, trace: int) -> int:
    """A distinct `PYTHONHASHSEED` per worker (never 0, which the pinned
    reference digests were made with)."""
    return 1 + (seed * 8 + workloads.WORKLOADS.index(workload) * 2 + trace) % 4_294_967_294


def spawn(args: list[str], env: dict, timeout: float) -> tuple[float, dict]:
    """Run `worker.py` with `args`; return its start time and its result."""
    out = args[args.index("--out") + 1]
    if os.path.exists(out):
        os.remove(out)
    start = time.monotonic()
    proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), *args],
                          cwd=ROOT, env=env, timeout=timeout,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0 or not os.path.exists(out):
        raise RuntimeError(f"worker exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    with open(out, encoding="utf-8") as fh:
        return start, json.load(fh)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    for needed in ("src/irqverify/cli.py", "corpus"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            print(f"error: {needed} not found under {ROOT}; run from an irqverify checkout",
                  file=sys.stderr)
            return 2

    t0 = time.monotonic()
    workdir = workloads.workdir(ROOT, args.workload, args.seed)
    os.makedirs(workdir, exist_ok=True)
    out = os.path.join(workdir, f"result-t{args.trace}.json")
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed(args.workload, args.seed, args.trace)))
    common = ["--workload", args.workload, "--seed", str(args.seed), "--out", out]

    setups, raw_setups = [], []
    inputs = set()
    try:
        before = hostspeed.burst()
        for _ in range(SETUP_PROBES):
            start, probe = spawn(common + ["--seconds", "0", "--setup-only"], env,
                                 DEADLINE_S - (time.monotonic() - t0))
            after = hostspeed.burst()
            raw_setups.append(probe["ready"] - start)
            setups.append(raw_setups[-1] * hostspeed.scale(before + after))
            inputs.add(probe["inputs_sha256"])
            before = after
        start, result = spawn(common + ["--seconds", str(args.seconds), "--trace", str(args.trace)],
                              env, DEADLINE_S - (time.monotonic() - t0))
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    inputs.add(result["inputs_sha256"])

    metrics = dict(result["metrics"])
    units = LAYER_UNITS if args.trace else END_TO_END_UNITS
    if not args.trace:
        metrics["setup_s"] = statistics.median(setups)
    problems = list(result["gate_problems"])
    if len(inputs) != 1:
        problems.append("set-up probes generated different inputs")

    print(f"# workload={args.workload} seed={args.seed} hash_seed={result['hash_seed']} "
          f"inputs_sha256={result['inputs_sha256']} reference={result['reference']}")
    if args.trace:
        print(f"# passes untraced={result['passes_untraced']} traced={result['passes_traced']} "
              f"absent={result['absent']} missing_targets={result['missing_targets']}")
    else:
        print(f"# pass_walls_s={result['passes']} raw={result['raw_passes']} "
              f"host_scale={result['host_scale']:.3f} files={result['files']} "
              f"verdict_tail_s=p{result['tail_percentile']:.1f} of {result['files']} files "
              f"setup_samples={[round(s, 4) for s in setups]} raw={[round(s, 4) for s in raw_setups]}")
    print(f"# attempted={result['attempted']} failed={result['failed']} "
          f"error_rate={result['error_rate']:.4f} checks={'ok' if not problems else problems}")
    for failure in result["failures"]:
        print(f"# failure: {failure}")
    final = {
        "correct": not problems and result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
