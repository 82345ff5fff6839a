"""Pin reference output digests for a range of seeds.

    python3 perfbench/pin.py --seeds 0-29

Runs one pass of every workload on each seed with `PYTHONHASHSEED=0` and stores
the input-set digest and the per-file output digests in `reference.json`.
A benchmark run on a pinned seed then checks every call against these digests,
so a change to the program that alters any output byte, or makes it depend on
hash order, counts as a failed file. Pin only at a commit whose outputs are
known good: a seed whose pass has a failure is refused.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REFERENCE = os.path.join(HERE, "reference.json")
sys.path.insert(0, HERE)

import workloads  # noqa: E402


def pin_one(workload: str, seed: int) -> dict:
    out = os.path.join(workloads.workdir(ROOT, workload, seed), "pin.json")
    env = dict(os.environ, PYTHONHASHSEED="0")
    subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
                    "--seed", str(seed), "--seconds", "0", "--reference", "", "--out", out],
                   cwd=ROOT, env=env, check=True, timeout=600)
    with open(out, encoding="utf-8") as fh:
        r = json.load(fh)
    os.remove(out)
    if r["failed"] or r["gate_problems"]:
        raise SystemExit(f"{workload} seed {seed} has failures: {r['failures'] + r['gate_problems']}")
    return {"inputs_sha256": r["inputs_sha256"], "outputs": r["digests"]}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", required=True, help="inclusive range, e.g. 0-29")
    args = ap.parse_args()
    lo, hi = (int(x) for x in args.seeds.split("-"))
    jobs = [(w, s) for w in workloads.WORKLOADS for s in range(lo, hi + 1)]
    if os.path.exists(REFERENCE):
        with open(REFERENCE, encoding="utf-8") as fh:
            pinned = json.load(fh)
    else:
        pinned = {}
    # Each job is a worker process; the two threads here only wait on them.
    with ThreadPoolExecutor(max_workers=2) as pool:
        results = list(pool.map(lambda job: pin_one(*job), jobs))
    for (workload, seed), entry in zip(jobs, results):
        pinned.setdefault(workload, {})[str(seed)] = entry
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(pinned, fh, indent=0, sort_keys=True)
        fh.write("\n")
    print(f"pinned {len(jobs)} runs in {REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
