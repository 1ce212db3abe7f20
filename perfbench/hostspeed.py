"""How fast the benchmark's CPU runs while a command runs.

On a shared host the speed of a virtual CPU changes by up to about 2x, in
stretches of seconds to minutes, as other tenants load the machine. On a
2-vCPU Xeon VM at 2.0 GHz a fixed Python loop took 6 ms in one stretch and
10-12 ms in the next, and whole 40 s runs fell inside one slow stretch, so
no statistic over a run's pipelines removes the swing.

The benchmark therefore pins itself and every command it starts to one CPU,
and a thread of the benchmark process runs a short fixed probe on that CPU
every PERIOD_S seconds while it waits for a command. The probe is timed in
its own thread's CPU time, so time the command holds the CPU is not counted.
A command's wall time times the mean of REFERENCE_S / probe time over its
duration is the integral of the CPU's relative speed over the command: the
seconds the command would have taken at the reference speed. The probe takes
about 0.8 ms every 50 ms, under 2% of the CPU.
"""

from __future__ import annotations

import random
import threading
import time

PERIOD_S = 0.05
# CPU time of one probe on a 2.0 GHz Xeon vCPU in its fast stretches
REFERENCE_S = 0.00075


class SpeedProbe:
    """Samples the relative speed of this thread's CPU in the background."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []  # (perf_counter at the middle, REFERENCE_S / probe CPU time)
        # tables too large for the CPU's caches, and keys to look up in them
        rng = random.Random(0)
        self._table = {k: k for k in range(1 << 18)}
        self._members = frozenset(range(0, 1 << 18, 3))
        self._keys = [rng.randrange(1 << 18) for _ in range(600)]
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="speed-probe", daemon=True)

    def probe(self) -> None:
        """Fixed interpreter work like the program's: a dict update loop, and
        lookups in a dict and a set at random keys, as in the negative sampler.

        Both halves take about the same time; probes of either half alone
        followed the commands' slowdowns less closely than the two together.
        """
        counts: dict[int, int] = {}
        for i in range(3000):
            k = i % 1013
            counts[k] = counts.get(k, 0) + i
        total = 0
        for k in self._keys:
            total += self._table[k]
            if k in self._members:
                total += 1

    def _run(self) -> None:
        while not self._stop.wait(PERIOD_S):
            wall, cpu = time.perf_counter(), time.thread_time()
            self.probe()
            cpu = time.thread_time() - cpu
            self.samples.append(((wall + time.perf_counter()) / 2, REFERENCE_S / cpu))

    def __enter__(self) -> SpeedProbe:
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def relative_speed(self, start: float, end: float) -> float:
        """Mean relative speed over [start, end], in perf_counter seconds.

        An interval too short to hold a probe takes the probe nearest to it.
        """
        samples = list(self.samples)
        inside = [speed for at, speed in samples if start <= at <= end]
        if inside:
            return sum(inside) / len(inside)
        if not samples:
            raise ValueError("the speed probe has not run yet")
        return min(samples, key=lambda s: min(abs(s[0] - start), abs(s[0] - end)))[1]
