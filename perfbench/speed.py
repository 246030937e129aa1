"""Machine-speed probe, used to take CPU-speed drift out of timings.

On a shared machine the speed of one CPU moves by about 1.6x within seconds,
as neighbours load the core it shares. The probe is a fixed piece of work
owned by the benchmark, a mix like the decoder's inner loop: tuple slicing,
dict updates, crc32 of short keys and numpy ops on a vocabulary-sized vector.
It does not call dasearch, so a change to the program cannot change it.

A timing is normalised by the probe run just before it, or by the median of
the probes run just before and just after it: normalised = raw *
PROBE_REF_S / probe. The result reads as the time the operation would take on
a machine where the probe takes PROBE_REF_S, about this machine's median
speed. Over 10 s windows this cut the spread of decode latencies from 11-14%
to about 2% (2 vCPUs, Python 3.11).

The probe runs alone, never beside the work it measures: the slowdown comes
from whatever runs on the sibling hardware thread, so a probe running beside
the work would measure the work's own load instead.
"""

from __future__ import annotations

import os
import statistics
import threading
import time
import zlib
from contextlib import contextmanager

import numpy as np

PROBE_REF_S = 0.0008
SAMPLE_INTERVAL_S = 0.05

_ARR = np.linspace(0.01, 1.0, 160)


def probe() -> float:
    """Run the fixed work once; return the CPU time this thread spent on it."""
    start = time.thread_time()
    table: dict = {}
    prefix: tuple = ()
    for i in range(300):
        prefix = prefix[-20:] + (i,)
        key = prefix[-2:]
        table[key] = table.get(key, 0.0) + 1.0 / (1 + len(prefix))
        zlib.crc32(b"u:%d:%d" % (i, i & 1))
        if i % 10 == 0:
            lp = np.log(_ARR * (1 + i))
            np.argpartition(-lp, 9)[:10]
    return time.thread_time() - start


def probe_burst() -> list[float]:
    """Five probes in a row, taken before and after work too long to follow
    one probe: set-up and CLI stages."""
    return [probe() for _ in range(5)]


def normalise(raw_s: float, probe_s: float) -> float:
    return raw_s * PROBE_REF_S / probe_s


@contextmanager
def pinned():
    """Keep this process, and the processes it starts, on one CPU."""
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, cpus)


class Sampler:
    """Probes every SAMPLE_INTERVAL_S from a background thread while a child
    process works, for work too long to follow a probe before it.

    Use it only inside `pinned()` around a single-process child: the probe
    then takes turns with the child on one CPU instead of running beside it
    on the sibling hardware thread, and its CPU time measures the speed the
    child gets.
    """

    def __init__(self):
        self.samples: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        while True:
            self.samples.append(probe())
            if self._stop.wait(SAMPLE_INTERVAL_S):
                return

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        return False

    def probe_s(self) -> float:
        return statistics.median(self.samples)
