"""Host-speed correction for timings taken on a shared host.

On a virtual machine shared with other tenants the same requests run up
to twice as slow for seconds to minutes at a time.  Process CPU time
slows down with wall time, and the two virtual CPUs slow down
independently, so neither clock, nor a probe in another process, can
tell the program's cost from the host's load.

So every process that does measured work — the library workload
process, each CLI process and the server — runs a :class:`Sampler`:
after every :data:`INTERVAL_S` of the process's CPU time it times one
fixed pure-Python loop (:func:`_loop`) on the spot.  A measured interval
is then reported at the *reference speed*, the speed at which one loop
takes :data:`REFERENCE_S`::

    reference seconds = (wall seconds - time spent in loops)
                        * (REFERENCE_S / median loop time around it) ** EXPONENT

On a host running at the reference speed the two agree.  The loop does
what the solver does most — calls, integer arithmetic, list indexing
and dict lookups — and allocates nothing that lives past an iteration,
so no state of the program under test changes its time.  It slows down
more than the program, though: over runs on a busy host the program's
times grew as the loop's time to a power of 0.6-0.95 (the tight loop
keeps the core's execution units busy, which a tenant on the sibling
hyperthread takes away; the program waits on memory more), hence
:data:`EXPONENT`.
"""

from __future__ import annotations

import bisect
import json
import signal
import statistics
import sys
import time
from pathlib import Path
from typing import List, Sequence, Tuple

#: seconds one :func:`_loop` takes at the reference speed (the fastest
#: loops on a 2-vCPU Intel Xeon VM with Python 3.11 take 1.0-1.05 ms)
REFERENCE_S = 0.001
#: how the program's time scales with the loop's (see above)
EXPONENT = 0.8
#: process CPU seconds between two samples
INTERVAL_S = 0.05
#: samples taken just before and just after an interval that also set
#: its speed, so a short interval has a median of several
NEIGHBOURS = 3

_ITERATIONS = 6800
_TABLE = list(range(256))
_MAP = {i: (i * 37) % 251 for i in range(256)}

#: (monotonic start, seconds) of one timed loop
Sample = Tuple[float, float]


def _step(acc: int, key: int) -> int:
    return (acc + _TABLE[key] + _MAP.get(key ^ 17, 0)) % 1000003


def _loop() -> int:
    acc = 0
    for i in range(_ITERATIONS):
        acc = _step(acc, (i * 40503 + acc) & 255)
    return acc


class Sampler:
    """Times :func:`_loop` every :data:`INTERVAL_S` of process CPU time.

    ``SIGPROF`` (``ITIMER_PROF``) drives it, so it fires only while the
    process computes and never meets the ``SIGALRM`` task timeouts of
    ``repro.runtime``.  Python runs the handler in the main thread, the
    loop takes about 2% of the CPU time, and its own time is subtracted
    from every interval it falls in.
    """

    def __init__(self) -> None:
        self.samples: List[Sample] = []

    def _handler(self, signum, frame) -> None:
        start = time.monotonic()
        _loop()
        self.samples.append((start, time.monotonic() - start))

    def start(self) -> "Sampler":
        signal.signal(signal.SIGPROF, self._handler)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, signal.SIG_IGN)

    def write(self, path: Path) -> None:
        path.write_text(json.dumps(self.samples))


def read_samples(path: Path) -> List[Sample]:
    return [tuple(s) for s in json.loads(path.read_text())]


def at_reference(start: float, end: float, samples: Sequence[Sample]) -> float:
    """Seconds of ``[start, end]`` (monotonic clock) at the reference
    speed, from the ``samples`` (sorted by time) of the process that
    did the work: those inside the interval and :data:`NEIGHBOURS` on
    each side set the speed; the time of those inside is not the
    program's."""
    if not samples:
        raise ValueError("no host-speed samples to correct the interval with")
    times = [t for t, _ in samples]
    low, high = bisect.bisect_left(times, start), bisect.bisect_left(times, end)
    own = sum(d for _, d in samples[low:high])
    around = samples[max(0, low - NEIGHBOURS) : high + NEIGHBOURS]
    loop = statistics.median(d for _, d in around)
    return (end - start - own) * (REFERENCE_S / loop) ** EXPONENT


def slowdown(samples: Sequence[Sample]) -> float:
    """How much slower than the reference the host ran: the median
    sample over :data:`REFERENCE_S`."""
    return statistics.median(d for _, d in samples) / REFERENCE_S


def run_cli_sampled() -> int:
    """Launcher body for ``LAUNCHER --samples FILE -- ARGV...``: runs
    ``repro.cli.main(ARGV)`` under a :class:`Sampler` and writes its
    samples to FILE when the command returns (a server: once SIGTERM
    has drained it); the command's exit code is returned."""
    args = sys.argv[1:]
    if len(args) < 3 or args[0] != "--samples" or args[2] != "--":
        raise SystemExit(f"usage: {sys.argv[0]} --samples FILE -- ARGV...")
    sampler = Sampler().start()
    try:
        import repro.cli

        return repro.cli.main(args[3:])
    finally:
        sampler.stop()
        sampler.write(Path(args[1]))
