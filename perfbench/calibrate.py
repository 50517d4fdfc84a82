"""Timing at reference speed, for hosts whose speed drifts.

The benchmark runs on shared virtual machines.  On the one it was defined on
(2 vCPUs, Intel Xeon), each vCPU flipped between two speeds about 1.7 times
apart, staying in either for a second to minutes, and the package's
operations slowed with it: raw medians of 30-second runs differed by 20-30%.
So every timed operation is reported at reference speed: its clock time
scaled by how long a fixed reference loop takes at that moment, relative
to REF_S, the loop's time on that machine when it is fast.

The speed is sampled just before and just after the operation and, for
operations in this process, every SAMPLE_INTERVAL_S during it: a SIGALRM
interval timer runs a short slice of the loop, and the slices' time is taken
out of the operation's time.  Across ten 36-second runs per workload this
brought the quartile spread of the medians down to 1-12% of the median,
where raw clock times had spread by 30% or more.  An operation that runs a pool of n
workers is sampled before and after with n copies of the loop running at
once, pinned one per CPU, since the pool finishes with its slowest worker.

The loop mixes interpreter work with small NumPy calls, as the package
does, and imports nothing from it, so a change to the package cannot move
the scale.
"""

import os
import signal
import statistics
import struct
from time import perf_counter

import numpy as np

REF_S = 0.009  # the loop's time on the reference machine, fast phase
SAMPLE_INTERVAL_S = 0.05
_ROUNDS = 3000
_SLICE_ROUNDS = 150  # one in-operation speed sample: 1/20 of the loop
_PARALLEL_ROUNDS = 3 * _ROUNDS  # longer, so start skew between copies matters less


def timed(fn, *args, workers: int = 1, **kwargs):
    """Run fn(*args, **kwargs).  Return its result, its clock seconds and
    its seconds at reference speed.  workers > 1 marks an operation that
    runs a process pool of that many workers."""
    if workers > 1:
        before = parallel_reference_s(workers)
        t0 = perf_counter()
        out = fn(*args, **kwargs)
        dt = perf_counter() - t0
        after = parallel_reference_s(workers)
        return out, dt, dt * 2.0 * REF_S / (before + after)

    slices: list[float] = []

    def sample(signum, frame):
        slices.append(_loop_s(_SLICE_ROUNDS))

    before = reference_s()
    previous = signal.signal(signal.SIGALRM, sample)
    signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
    t0 = perf_counter()
    try:
        out = fn(*args, **kwargs)
    finally:
        dt = perf_counter() - t0
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, previous)
    after = reference_s()
    per_round = [before / _ROUNDS, after / _ROUNDS]
    per_round += [s / _SLICE_ROUNDS for s in slices]
    busy = dt - sum(slices)
    return out, busy, busy * REF_S / _ROUNDS / statistics.fmean(per_round)


def reference_s() -> float:
    """Seconds one run of the reference loop takes now."""
    return _loop_s(_ROUNDS)


def parallel_reference_s(n: int) -> float:
    """The reference loop's time with n copies running at once, one per
    forked child pinned to its own CPU, as the n workers of a process pool
    run: the slowest copy's time.  Forked so the copies start within a
    millisecond of each other; each child runs only the loop and exits."""
    cpus = sorted(os.sched_getaffinity(0))
    rfd, wfd = os.pipe()
    pids = []
    try:
        for i in range(n):
            pid = os.fork()
            if pid == 0:
                try:
                    os.sched_setaffinity(0, {cpus[i % len(cpus)]})
                    os.write(wfd, struct.pack("d", _loop_s(_PARALLEL_ROUNDS)))
                finally:
                    os._exit(0)
            pids.append(pid)
    finally:
        for pid in pids:
            os.waitpid(pid, 0)
        os.close(wfd)
    with os.fdopen(rfd, "rb") as fh:
        data = fh.read()
    times = [t for (t,) in struct.iter_unpack("d", data)]
    if len(times) != n:
        raise RuntimeError(f"{n - len(times)} reference children failed")
    return max(times) * _ROUNDS / _PARALLEL_ROUNDS


def _loop_s(rounds: int) -> float:
    t0 = perf_counter()
    vals = list(range(64))
    w = np.linspace(0.1, 1.0, 9)
    acc = 0.0
    for i in range(rounds):
        for j in range(8):
            k = (i + j) & 63
            acc += vals[k] * (k % 7) - vals[(k * 5) & 63]
        if i & 1:
            x = np.asarray(vals[i & 31: (i & 31) + 9], dtype=float) * w
            acc += float(np.log(x + 1.0).sum())
    if acc != acc:
        raise ArithmeticError("reference loop produced NaN")
    return perf_counter() - t0
