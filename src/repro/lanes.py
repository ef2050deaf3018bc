"""Lanes: one contiguous slice of an output per core.

The paper's parallel loop is output-parallel (Section 4.1, Alg. 1):
every core owns a disjoint slice of the output, so no core waits on
another.  :func:`split` is that loop at its coarsest: ``fn(lo, hi)`` runs
once per lane over one contiguous range of ``[0, n)``, lane 0 in the
calling thread and the others on threads that are started and joined
inside the call.  numpy's BLAS calls, its elementwise loops and scipy's
sparse products release the GIL, so the lanes run at once.

A caller cuts only an *output* axis — rows of a row-independent result,
columns of a reduction over rows — never the axis being reduced, so
every element is computed by the same operations in the same order as
in the serial call, and the result is bitwise the serial one.

The lane count is the number of cores this process may run on
(``os.sched_getaffinity``).  A process that is itself one of several
parallel workers sets it to 1 (:func:`set_lane_count`).
"""

from __future__ import annotations

import os
import threading
from typing import Callable, List

#: Bytes a call reads and writes below which :func:`split` runs ``fn``
#: serially.  Starting and joining a lane thread costs ~0.1 ms.
#: Measured on a 2-vCPU Xeon at one BLAS thread, with both vCPUs
#: busy: a 2 MiB fp32 GEMM (2048x256 @ 256x16) takes 0.50 ms
#: serially and 0.56 ms on two lanes, a 4 MiB one 0.89 / 0.82 ms and an
#: 8.5 MiB one 1.71 / 1.28 ms; a 3 MiB masked multiply 0.39 / 0.53 ms
#: and a 12 MiB one 1.43 / 1.11 ms.
MIN_SPLIT_BYTES = 4 << 20

#: Narrowest slice a lane gets: a one-wide slice would turn a GEMM into
#: a GEMV, whose rounding differs.
MIN_SLICE = 8

#: The variables that set a BLAS library's own thread count.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

_lane_count = len(os.sched_getaffinity(0))


def lane_count() -> int:
    """Lanes a large enough :func:`split` uses."""
    return _lane_count


def set_lane_count(lanes: int) -> int:
    """Use ``lanes`` lanes from now on; returns the previous count."""
    global _lane_count
    if lanes < 1:
        raise ValueError(f"lanes must be >= 1, got {lanes}")
    previous, _lane_count = _lane_count, lanes
    return previous


def describe() -> str:
    """One line: the lane count and the BLAS thread settings it assumes
    (one BLAS thread per lane), as the environment has them."""
    blas = ", ".join(
        f"{name}={os.environ.get(name, 'unset')}" for name in BLAS_THREAD_VARS
    )
    return f"lanes: {_lane_count} ({blas})"


def split(n: int, nbytes: int, fn: Callable[[int, int], None]) -> None:
    """Run ``fn(lo, hi)`` over one contiguous range of ``[0, n)`` per lane.

    Serial (one ``fn(0, n)`` call) when the ``nbytes`` the call moves
    are under :data:`MIN_SPLIT_BYTES` or ``n`` leaves no two slices of
    :data:`MIN_SLICE`.  Every lane is joined before this returns; the
    first exception a lane raised is re-raised here.
    """
    lanes = min(_lane_count, n // MIN_SLICE)
    if lanes <= 1 or nbytes < MIN_SPLIT_BYTES:
        fn(0, n)
        return
    bounds = [n * lane // lanes for lane in range(lanes + 1)]
    errors: List[BaseException] = []

    def run(lo: int, hi: int) -> None:
        try:
            fn(lo, hi)
        except BaseException as exc:  # re-raised in the caller
            errors.append(exc)

    started: List[threading.Thread] = []
    try:
        # Started inside the ``try``: if a later lane fails to start, the
        # lanes already running are joined before the error propagates,
        # so none writes into the caller's output after ``split`` returns.
        for lane, (lo, hi) in enumerate(zip(bounds[1:-1], bounds[2:]), 1):
            thread = threading.Thread(target=run, args=(lo, hi), name=f"lane-{lane}")
            thread.start()
            started.append(thread)
        fn(bounds[0], bounds[1])
    finally:
        for thread in started:
            thread.join()
    if errors:
        raise errors[0]
