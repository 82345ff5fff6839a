"""Host-speed sampling for the timed benchmark sections.

The benchmark runs on a few cores of a shared host whose speed drifts by half
or more over seconds to minutes as other tenants come and go, so raw times of
the same work differ by a quarter from run to run. To take that drift out,
the benchmark times a fixed piece of pure-Python work that runs none of the
package's code, next to what it measures, and scales each measured time to
the reference host speed:

    normalised = (measured - time spent sampling) * REFERENCE_S / median(samples)

`REFERENCE_S` is the work's time on a quiet host, so normalised seconds are
close to what the program takes there. A change to the program moves the
normalised time fully, because the samples do not depend on its code.

While a worker runs the timed calls, a `Sampler` takes the samples every few
milliseconds from a `SIGALRM` interval timer (no extra thread or process), and
each call is scaled by the samples taken during and around it. A set-up probe
is a process of its own, so `burst()` samples just before and just after it.

The sampled work has two parts, because the analyses slow down both when the
core is shared and when the host's caches and memory are contended:

- string formatting, dict updates and a sort, on a few hundred keys that stay
  in the core's own caches;
- a chain of dependent reads through an 8 MiB array whose next index is the
  value just read, so every step waits on the cache or memory. The array is
  built once per process, outside any timed section, and is not a container
  the collector scans.

On this benchmark's workloads, either part alone tracked the slowdowns less
well than both together. The work runs twice per sample and only the second
run is timed, so that the interpreter's state is warm; the chain goes on where
it stopped, so its reads stay cold. The work allocates a few small objects,
too few to move the collector's schedule.
"""

from __future__ import annotations

import signal
import statistics
import time
from array import array

REFERENCE_S = 0.00055  # time of one `_work()` on a quiet host
INTERVAL_S = 0.02  # between a worker's samples
BURST = 20  # samples before and after a set-up probe
CHASE_ENTRIES = 1 << 21  # 4-byte entries: 8 MiB
CHASE_STEPS = 1500

_chain: array | None = None
_position = 0


def chain() -> array:
    """The chase array: entry x holds the next index of a full-period linear
    congruential sequence, so the chain visits every entry in a scattered
    order that no prefetcher follows."""
    global _chain
    if _chain is None:
        mask = CHASE_ENTRIES - 1
        _chain = array("I", ((x * 1103515245 + 12345) & mask for x in range(CHASE_ENTRIES)))
    return _chain


def chain_mb() -> float:
    """Resident size of the chase array (0 until it is built), in MB."""
    return 0.0 if _chain is None else len(_chain) * _chain.itemsize / 2**20


def _work() -> int:
    global _position
    counts: dict[str, int] = {}
    for i in range(300):
        key = f"R{i % 613}_{i * 31 % 1009}"
        counts[key] = counts.get(key, 0) + i
    acc = 0
    for key in sorted(counts):
        acc = (acc * 31 + counts[key] + len(key)) & 0xFFFFFFFF
    nxt, i = _chain, _position
    for _ in range(CHASE_STEPS):
        i = nxt[i]
    _position = i
    return acc


def measure() -> float:
    """One sample: the time of the work, run once untimed first."""
    _work()
    start = time.perf_counter()
    _work()
    return time.perf_counter() - start


def burst() -> list[float]:
    """`BURST` samples taken back to back."""
    chain()
    return [measure() for _ in range(BURST)]


def scale(samples: list[float]) -> float:
    """Factor from measured to reference-speed time, given the samples taken
    while it was measured."""
    return REFERENCE_S / statistics.median(samples)


class Sampler:
    """Samples the host speed while active (`with sampler:`).

    `samples` holds the timed runs of the fixed work, `spent` the total time
    the interrupts took, to be subtracted from the measured times."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0
        self._previous = None
        chain()

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        self.samples.append(measure())
        self.spent += time.perf_counter() - start

    def sample(self) -> float:
        """Take one sample now and return it."""
        self._tick(signal.SIGALRM, None)
        return self.samples[-1]

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
