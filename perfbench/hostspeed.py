"""Host speed index: a fixed reference job timed between simulations.

On a small shared virtual machine the same work takes up to twice the
CPU time from one minute to the next, because neighbours compete for
the physical core and its caches; CPU time alone does not hide that.
The benchmark therefore runs a fixed reference job, independent of the
program, between every two simulations, and reports program time in
*reference seconds*: the CPU seconds a simulation took, divided by how
much slower than nominal the reference job ran around it.  Set-up
probes get a reference of their own (:func:`bare_start`).

A slower program moves the program's time and not the reference's, so
every regression still shows (``selfcheck.py`` plants some and checks);
a slower host moves both, and the ratio cancels it.  The raw CPU and
wall times are printed next to the scored metrics.

The job mixes heap pushes and pops, dict stores, tuple allocation and
small numpy calls, the same kind of work the simulator does; measured
next to ``paper_flowcon`` simulations, its slowdowns track the
program's with a correlation of about 0.9 on two-second windows.
``fleet_day`` simulations slow down only about half as much as the
reference job does, so there the scaling over-corrects and leaves a
wider run-to-run spread.
"""

from __future__ import annotations

import heapq
import subprocess
import sys
import time

import numpy as np

#: CPU seconds one chunk of the reference job takes at nominal speed
#: (about its typical time on the 2-core host the bounds were set on).
REF_CHUNK_S = 0.02
#: Share of the measured time spent on the reference job.
SHARE = 0.08
#: CPU seconds a fresh interpreter takes to start and import numpy at
#: nominal speed on the same host (the set-up reference).
BARE_START_S = 0.14


def _chunk() -> None:
    heap: list = []
    table: dict = {}
    arr = np.linspace(0.0, 1.0, 64)
    for i in range(16000):
        heapq.heappush(heap, ((i * 7919) % 1000 / 7.0, i))
        table[i & 511] = (i, heap[0][0])
        if len(heap) > 64:
            heapq.heappop(heap)
        if not i % 40:
            arr = np.minimum(arr * 1.0001, 2.0)


def sample(follows_cpu: float = 0.0) -> tuple[float, int]:
    """Run the reference job and return ``(cpu seconds, chunks)``.

    Runs enough chunks to take about ``SHARE`` of *follows_cpu* (the
    CPU time of the simulation just measured), and at least one.
    """
    chunks = max(1, round(SHARE * follows_cpu / REF_CHUNK_S))
    start = time.process_time()
    for _ in range(chunks):
        _chunk()
    return time.process_time() - start, chunks


def slowdown(before: tuple[float, int], after: tuple[float, int]) -> float:
    """How much slower than nominal the host ran between two samples."""
    return (before[0] + after[0]) / ((before[1] + after[1]) * REF_CHUNK_S)


def bare_start() -> float:
    """CPU seconds a fresh interpreter takes to start and import numpy.

    The reference for set-up probes.  Process start-up is mostly exec,
    dynamic loading, unmarshalling and page faults, whose cost drifts
    with the host differently from the in-process reference job; a
    bare interpreter that loads the program's compiled dependency and
    none of the program's code drifts the same way.  Over eight runs of
    eleven probes each on the 2-core host, scaling by it cut the spread
    of the runs' set-up medians (interquartile range over median) from
    about 0.15 to about 0.06; the in-process reference job left it at
    about 0.12.
    """
    done = subprocess.run(
        [sys.executable, "-c", "import time, numpy; print(time.process_time())"],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout.split()[-1])
