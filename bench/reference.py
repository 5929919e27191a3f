"""Reference tasks that measure how fast the machine runs at the moment.

On a shared host the cores slow down by up to ~2x, switching speed within
seconds and drifting over minutes, and every time measured moves with them.
The benchmark divides each end-to-end timing by a speed factor: the time of
a fixed reference task, sampled in the same stretch of time as the work,
over that task's nominal time. A reported millisecond is then a millisecond
at nominal speed. The reference tasks never touch qkostka, so a change to
the library moves the adjusted figures exactly as it moves the raw ones.

- In-process work (routes-sweep, poly-queries, the import probe): `loop()`,
  sampled by a `Sampler` in the same process about every INTERVAL_S of work
  and once after it. A run lasts seconds, longer than the speed stays put,
  so samples from its start and end alone would miss where it spent its
  time.
- cli-mix: a bare `python -c pass` process, spawned like the CLI processes
  between groups of them (see run.py).

The nominal times were measured on a quiet 2-core x86-64 VM with Python 3.11.
"""

from __future__ import annotations

import statistics
import time

LOOP_S = 0.0144   # loop()
SPAWN_S = 0.040   # a bare `python -c pass` process, timed as run.spawn times it
INTERVAL_S = 0.25


def loop() -> float:
    """Seconds taken by a fixed pure-Python loop of integer and dict work."""
    start = time.perf_counter()
    counts: dict[int, int] = {}
    for i in range(120_000):
        key = (i * 7919) % 1009
        counts[key] = counts.get(key, 0) + i
    return time.perf_counter() - start


def loop_speed(samples: list[float]) -> float:
    """Speed factor from loop() samples: above 1 when the machine is slow."""
    return statistics.fmean(samples) / LOOP_S


class Sampler:
    """Times loop() about every INTERVAL_S while a caller works.

    The caller calls tick() between operations. `excluded` is the time the
    samples took, which the caller takes out of its own timings.
    """

    def __init__(self) -> None:
        loop()  # the first call runs before the interpreter specializes it
        self.samples: list[float] = []
        self.excluded = 0.0
        self.last = time.perf_counter()

    def tick(self) -> None:
        now = time.perf_counter()
        if now - self.last >= INTERVAL_S:
            self.samples.append(loop())
            self.last = time.perf_counter()
            self.excluded += self.last - now

    def finish(self) -> list[float]:
        """Take one last sample after the work and return them all."""
        self.samples.append(loop())
        return self.samples
