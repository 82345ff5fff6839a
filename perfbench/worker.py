"""One benchmark run, in a fresh single-threaded process.

Started by `run.py`, never imported by the package under test. It imports the
package from the checkout's `src/`, writes the workload's inputs, checks the
corpus against its hand-written sidecars, then calls `irqverify.cli.main`
once per command and input file, in passes over the batch, until the time
budget is spent. Each call's exit code and stdout are checked against the
source-derived expectations and a reference digest. Call times are
normalised to the reference host speed (`hostspeed.py`). The result goes to
the JSON file named by `--out`.

With `--trace 1` the first half of the budget runs untraced and the second
half traced, so the tracing overhead is measured in the same process.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import statistics
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import hostspeed  # noqa: E402  (needs the path above)
import workloads  # noqa: E402


def corpus_gate(cli, corpus_dir: str) -> list[str]:
    """Run every corpus program through `analyze` and `compare` and compare
    the verdicts, pair counts and oracle outcome with its sidecar."""
    problems = []
    names = sorted(n[:-len(".expected.json")] for n in os.listdir(corpus_dir)
                   if n.endswith(".expected.json"))
    if not names:
        return [f"no sidecars under {corpus_dir}"]
    for name in names:
        path = os.path.join(corpus_dir, name + ".irq")
        with open(os.path.join(corpus_dir, name + ".expected.json"), encoding="utf-8") as fh:
            want = json.load(fh)
        rc_a, out_a, _ = call(cli, ("analyze", "--json", path))
        rc_c, out_c, _ = call(cli, ("compare", "--json", "--oracle-budget",
                                    str(want["oracle"]["budget"]), path))
        try:
            got = json.loads(out_a)
            cmp = json.loads(out_c)
        except ValueError:
            problems.append(f"{name}: unreadable output (exit {rc_a}, {rc_c})")
            continue
        verdicts = {v["assertion_id"]: v["verdict"] for v in got["verdicts"]}
        rows = cmp["rows"]
        checks = (
            ("verdicts", verdicts == want["verdicts"]),
            ("analyze exit code", rc_a == (1 if "Warning" in verdicts.values() else 0)),
            ("pairs", [got["pairs"]["total"], got["pairs"]["pruned"]]
             == [want["pairs"]["total"], want["pairs"]["pruned"]]),
            ("compare verdicts", {r["assertion_id"]: r["pruning"] for r in rows} == want["verdicts"]),
            ("verdicts without pruning",
             {r["assertion_id"]: r["no_pruning"] for r in rows} == want["verdicts_no_pruning"]),
            ("oracle", sorted(r["assertion_id"] for r in rows if r["oracle"] == "violated")
             == sorted(want["oracle"]["violated"])),
            ("compare exit code", rc_c == 0 and cmp["sound"]),
        )
        problems += [f"{name}: {what} differ from the sidecar" for what, ok in checks if not ok]
    return problems


def call(cli, argv: tuple[str, ...]) -> tuple[int | None, str, float]:
    """One `cli.main` call: exit code (None if it raised), stdout, seconds."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            rc = cli.main(list(argv))
        except (Exception, SystemExit):  # any escape is a failed file
            rc = None
            err.write(traceback.format_exc(limit=-3))
        elapsed = time.perf_counter() - start
    if rc is None:
        return None, "exception: " + err.getvalue(), elapsed
    return rc, out.getvalue(), elapsed


class Batch:
    """Runs passes over the inputs and keeps per-file times and failures.

    Times are normalised to the reference host speed (`hostspeed`): calls are
    grouped into segments holding at least `SEGMENT_SAMPLES` host-speed
    samples, and each call is scaled by the samples of its segment.

    Each call starts from a collected heap (`gc.collect()`, untimed), as a
    fresh `irqverify` process would. Otherwise the collector's counters and
    survivors carry over from call to call: identical `wide` calls then ran 7
    to 9 full collections and their times differed by a third."""

    SEGMENT_SAMPLES = 10

    def __init__(self, cli, items: list[workloads.Item], reference: list[str] | None):
        self.cli = cli
        self.items = items
        self.reference = reference  # one digest string per file, or None
        self.file_times: list[list[float]] = [[] for _ in items]
        self.raw_walls: list[float] = []
        self.scales: list[float] = []
        self.attempted = 0
        self.failures: list[str] = []
        self.digests: list[str] = []

    def run_pass(self, tracer=None) -> float:
        """One pass over the batch; returns its normalised wall time."""
        times = [0.0] * len(self.items)
        pending: list[tuple[int, float]] = []  # (file, seconds) not yet scaled
        raw = 0.0
        digests = []
        with hostspeed.Sampler() as sampler:
            first = 0  # index of the segment's first sample

            def flush() -> None:
                nonlocal first
                # A short last segment borrows the samples just before it.
                n = len(sampler.samples)
                segment = sampler.samples[max(0, min(first, n - self.SEGMENT_SAMPLES)):]
                scale = hostspeed.scale(segment or [sampler.sample()])
                for k, elapsed in pending:
                    times[k] += elapsed * scale
                self.scales.append(scale)
                pending.clear()
                first = len(sampler.samples)

            for k, item in enumerate(self.items):
                if tracer is not None:
                    tracer.trace_id = k
                outputs, digest = [], []
                for argv in item.commands:
                    gc.collect()  # start each call from a collected heap, untimed
                    spent = sampler.spent
                    rc, out, elapsed = call(self.cli, argv)
                    elapsed -= sampler.spent - spent
                    raw += elapsed
                    pending.append((k, elapsed))
                    if len(sampler.samples) - first >= self.SEGMENT_SAMPLES:
                        flush()
                    outputs.append((rc, out))
                    digest.append(workloads.output_digest(rc, out))
                self.attempted += 1
                digests.append(" ".join(digest))
                problems = [out.strip() for rc, out in outputs if rc is None]
                if not problems:
                    problems = workloads.check_item(item, outputs)
                if self.reference is not None and digests[-1] != self.reference[k]:
                    problems.append(f"output digest {digests[-1]} differs from reference {self.reference[k]}")
                if problems:
                    self.failures.append(f"{item.path}: {'; '.join(problems)}")
            if pending:
                flush()
        for k, t in enumerate(times):
            self.file_times[k].append(t)
        self.raw_walls.append(raw)
        if self.reference is None:
            self.reference = digests  # later passes must reproduce the first
        self.digests = digests
        return sum(times)

    def run_for(self, seconds: float, tracer=None) -> list[float]:
        """Passes until the next one would overrun `seconds`; at least one.
        Returns the normalised wall time of each pass."""
        walls, durations = [], []
        start = time.perf_counter()
        while True:
            walls.append(self.run_pass(tracer))
            durations.append(time.perf_counter() - start - sum(durations))
            if sum(durations) + statistics.median(durations) > seconds:
                return walls


def tail(values: list[float]) -> tuple[float, float, int]:
    """Value at the highest percentile with at least 10 samples beyond it,
    that percentile, and the sample count. Fewer than 11 samples give the
    maximum (percentile 100)."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True)
    ap.add_argument("--setup-only", action="store_true",
                    help="stop after writing the inputs (set-up time probe)")
    ap.add_argument("--reference", default=os.path.join(HERE, "reference.json"),
                    help="pinned digests; an empty value pins nothing")
    ap.add_argument("--tiny", action="store_true", help="tiny batch, for the harness self-check")
    args = ap.parse_args(argv)

    sys.path.insert(0, os.path.join(ROOT, "src"))
    import irqverify.cli as cli

    workdir = workloads.workdir(ROOT, args.workload, args.seed, args.tiny)
    items, inputs_sha = workloads.write_inputs(args.workload, args.seed, workdir, ROOT, args.tiny)
    ready = time.monotonic()
    result = {"ready": ready, "inputs_sha256": inputs_sha, "hash_seed": os.environ.get("PYTHONHASHSEED")}
    if args.setup_only:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(result, fh)
        return 0

    os.chdir(ROOT)
    problems = corpus_gate(cli, os.path.join(ROOT, "corpus"))

    reference = None
    pinned = {}
    if args.reference and os.path.exists(args.reference):
        with open(args.reference, encoding="utf-8") as fh:
            pinned = json.load(fh).get(args.workload, {}).get(str(args.seed), {})
    if pinned:
        if pinned["inputs_sha256"] != inputs_sha:
            problems.append("inputs differ from the pinned input set")
        else:
            reference = pinned["outputs"]

    batch = Batch(cli, items, reference)
    if args.trace:
        from spans import Tracer
        untraced = batch.run_for(args.seconds / 2)
        tracer = Tracer()
        tracer.install()
        try:
            traced = batch.run_for(args.seconds / 2, tracer)
        finally:
            tracer.uninstall()
        layers, absent = tracer.metrics(len(traced))
        layers["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
        tracer.write(os.path.join(workdir, "spans.json"))
        result.update(metrics=layers, absent=absent, missing_targets=tracer.missing,
                      passes_untraced=len(untraced), passes_traced=len(traced))
    else:
        walls = batch.run_for(args.seconds)
        per_file = [statistics.median(t) for t in batch.file_times]
        tail_value, tail_pct, n = tail(per_file)
        result.update(
            metrics={
                "wall_s": statistics.median(walls),
                "verdict_p50_s": statistics.median(per_file),
                "verdict_tail_s": tail_value,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
                - hostspeed.chain_mb(),
            },
            passes=[round(w, 4) for w in walls], files=n, tail_percentile=tail_pct)
    result.update(
        raw_passes=[round(w, 4) for w in batch.raw_walls],
        host_scale=statistics.median(batch.scales),
        attempted=batch.attempted,
        failed=len(batch.failures),
        error_rate=len(batch.failures) / batch.attempted,
        failures=batch.failures[:10],
        gate_problems=problems,
        reference="pinned" if reference is not None else "first pass",
        digests=batch.digests,
    )
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
