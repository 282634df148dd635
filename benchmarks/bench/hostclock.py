"""Seconds at a nominal host speed and a nominal fsync latency.

The box this runs on is a slice of a shared host.  Its processor speed moves
by tens of percent, both within a second and over minutes, so the same
deterministic round reads 1.25 s one moment and 1.7 s the next; its disk is
shared too, and one ``fsync`` of the WAL mirror takes 0.25 ms in one second,
0.6 ms in the next and now and then 100 ms.  Medians, best-of and longer runs
do not remove either.  ``HostClock`` does, in two steps:

* **Processor.**  It runs a fixed kernel of pure-Python work (bytecode
  dispatch and a small dict, then look-ups in a table larger than the caches,
  allocation, string formatting and the C JSON encoder — the mix the system
  under test is made of, none of its code) before and after every stretch of
  at least ``STRIDE_S`` of measured work, and scales the stretch by
  ``NOMINAL_KERNEL_S / (the mean of the two kernel times)``.  A second at
  nominal speed is a second on a host on which the kernel takes
  ``NOMINAL_KERNEL_S`` — this box on its usual plateau.  The kernel's own
  time is not part of any stretch.
* **Disk.**  While it is entered it stands in front of ``os.fsync``, takes
  the wall and CPU time spent in there out of the stretch before scaling, and
  charges every fsync ``NOMINAL_FSYNC_S`` of wall time in its place.  The
  *number* of fsyncs is the system's doing and still moves the figures; how
  long the sandbox's disk and kernel took over each one is not, and does not.

The raw figures stay beside the scaled ones (``wall_steps_per_s``,
``host_kernel_ms``, ``host_fsync_ms``), so nothing is hidden.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass
from typing import Any, List, Optional, Tuple

from .metrics import median

NOMINAL_KERNEL_S = 0.0065  # the kernel on this box's usual plateau (wall and CPU alike)
NOMINAL_FSYNC_S = 0.0005   # one fsync of the mirror on this box, typically
STRIDE_S = 0.02            # least measured work between two kernel runs
TABLE_KEYS = 50_000        # a few MB: look-ups miss the near caches, as the stores' do


class _Node:
    __slots__ = ("name", "value", "next")

    def __init__(self, name: str, value: int, next: Optional["_Node"]) -> None:
        self.name = name
        self.value = value
        self.next = next

    def weight(self) -> int:
        return len(self.name) + self.value


@dataclass(frozen=True)
class Timed:
    """One measured phase, raw and nominal."""

    wall: float             # raw seconds, fsyncs included
    nominal_wall: float
    nominal_cpu: float
    factors: Tuple[float, ...]  # per stretch: raw computing seconds -> nominal
    compute_scale: float    # the phase's overall such factor
    kernel_s: float         # median kernel wall time over the phase
    fsync_s: Optional[float]  # median latency of the phase's fsyncs, if it made any

    def nominal(self, seconds: float, stretch: int, fsync_s: float, fsyncs: int) -> float:
        """A raw duration inside ``stretch``, of which ``fsync_s`` went to
        ``fsyncs`` fsyncs, at nominal speed and fsync latency."""
        return (seconds - fsync_s) * self.factors[stretch] + fsyncs * NOMINAL_FSYNC_S


class HostClock:
    def __init__(self) -> None:
        self._table = {f"instance:{i}:journal:{i % 97}": i for i in range(TABLE_KEYS)}
        self._keys = list(self._table)
        self._kernel()  # first call pays for cold caches
        self._real_fsync: Any = None
        self.fsync_s = 0.0  # running totals while entered
        self.fsyncs = 0
        self._fsync_cpu_s = 0.0
        self._fsync_latencies: List[float] = []
        self._before = (0.0, 0.0)
        self._begin = (0.0, 0.0, 0.0, 0)  # wall, cpu, fsync_s, fsyncs at the stretch's start
        # per stretch: wall, cpu outside fsync, fsync s, fsyncs, kernel wall, kernel cpu
        self._stretches: List[Tuple[float, float, float, int, float, float]] = []
        self._kernels: List[float] = []

    def __enter__(self) -> "HostClock":
        self._real_fsync = os.fsync
        os.fsync = self._fsync
        return self

    def __exit__(self, *exc_info: Any) -> None:
        os.fsync = self._real_fsync

    def _fsync(self, fd: Any) -> None:
        cpu_begin = time.process_time()
        begin = time.perf_counter()
        try:
            self._real_fsync(fd)
        finally:
            spent = time.perf_counter() - begin
            self._fsync_cpu_s += time.process_time() - cpu_begin
            self.fsync_s += spent
            self.fsyncs += 1
            self._fsync_latencies.append(spent)

    def _kernel(self) -> Tuple[float, float]:
        """Run the fixed work once; (wall, CPU) seconds it took."""
        table, keys = self._table, self._keys
        cpu_begin = time.process_time()
        wall_begin = time.perf_counter()
        small: dict = {}
        total = 0
        for i in range(25_000):
            small[i & 1023] = (i, total)
            total += len(small)
        head = None
        for i in range(1_000):
            key = keys[(i * 7919) % TABLE_KEYS]
            head = _Node(key, table[key], head if i & 15 else None)
            total += head.weight()
            total += len(json.dumps({"k": key, "v": [i, total], "s": f"{i}-{total}"}))
        return time.perf_counter() - wall_begin, time.process_time() - cpu_begin

    def _open_stretch(self) -> None:
        self._begin = (
            time.perf_counter(), time.process_time() - self._fsync_cpu_s, self.fsync_s, self.fsyncs
        )

    def start(self) -> None:
        self._stretches = []
        self._fsync_latencies = []
        self._before = self._kernel()
        self._kernels = [self._before[0]]
        self._open_stretch()

    def tick(self, force: bool = False) -> int:
        """Call at a boundary of the measured work.  Closes the current
        stretch with a kernel run if it is at least ``STRIDE_S`` long (or
        ``force``).  Returns the index of the stretch that just ran."""
        wall_begin, cpu_begin, fsync_s, fsyncs = self._begin
        wall = time.perf_counter() - wall_begin
        index = len(self._stretches)
        if wall < STRIDE_S and not force:
            return index
        cpu = time.process_time() - self._fsync_cpu_s - cpu_begin
        after = self._kernel()
        self._stretches.append((
            wall, cpu, self.fsync_s - fsync_s, self.fsyncs - fsyncs,
            (self._before[0] + after[0]) / 2, (self._before[1] + after[1]) / 2,
        ))
        self._before = after
        self._kernels.append(after[0])
        self._open_stretch()
        return index

    def stop(self) -> Timed:
        self.tick(force=True)
        stretches = self._stretches
        computing = sum(wall - fsync_s for wall, _cpu, fsync_s, _n, _kw, _kc in stretches)
        nominal_computing = sum(
            (wall - fsync_s) * NOMINAL_KERNEL_S / kernel_wall
            for wall, _cpu, fsync_s, _n, kernel_wall, _kc in stretches
        )
        fsyncs = sum(s[3] for s in stretches)
        return Timed(
            wall=sum(s[0] for s in stretches),
            nominal_wall=nominal_computing + fsyncs * NOMINAL_FSYNC_S,
            nominal_cpu=sum(s[1] * NOMINAL_KERNEL_S / s[5] for s in stretches),
            factors=tuple(NOMINAL_KERNEL_S / s[4] for s in stretches),
            compute_scale=nominal_computing / computing,
            kernel_s=median(self._kernels),
            fsync_s=median(self._fsync_latencies) if self._fsync_latencies else None,
        )
