"""The one place that forks: ``_split_rows`` maps a kernel over points
split across the cores, one forked process per chunk.

Its callers are ``stats.draw_sums``, the doubling-map sums and
``stats.mixture_cdf``, and ``variance.variance_profile``.  Each passes its
estimated nanoseconds of work per point, and one rule decides the split:
a process is forked only for at least one fork's cost of work.
"""

from __future__ import annotations

import os

import numpy as np

from .errors import RotsumError

# Nanoseconds of one fork, pipe and reap: _split_rows at one core against
# two, with a near-empty kernel, 300 interleaved pairs in a 60-MB process
# on a 2-core Xeon read a median 3.06 ms (quartiles 2.85-3.30 ms).
_FORK_NS = 3_000_000


def _cores() -> int:
    """The cores this process may run on; 1 without os.fork or without an
    affinity mask to read."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return len(os.sched_getaffinity(0))


def _split_rows(kernel, nums: np.ndarray, row_ns: int,
                step: int = 1) -> np.ndarray:
    """kernel(nums) as one float64 array of rows, one row per point, with
    the points split across the available cores.

    The points are whatever the kernel maps to rows: sample numerators, the
    t of ``mixture_cdf``, or the row indices of a variance profile.
    ``kernel`` maps a slice of ``nums`` to a 2-D float64 array with one row
    per point, and gives each point of a slice that starts at a multiple
    of ``step`` the row it has in kernel(nums).  The points are cut into
    contiguous chunks in order, at multiples of ``step``: one per
    available core, but no more than points, nor than leave each chunk
    _FORK_NS of work at the caller's ``row_ns`` nanoseconds per point, less
    step - 1 points at most where a cut moves down to a multiple.  This process runs the
    kernel on the first chunk; each other chunk runs in a forked child,
    which sends its rows back through a pipe.  So the rows are the same
    bit for bit at any number of processes.  A child that fails sends a
    short result, which raises RotsumError; every child is reaped before
    this returns or raises.
    """
    parts = max(1, min(_cores(), len(nums),
                       len(nums) * row_ns // _FORK_NS))
    cuts = [len(nums) * i // parts // step * step for i in range(parts)]
    cuts.append(len(nums))
    children = []           # (pid, read end of its pipe)
    try:
        for lo, hi in zip(cuts[1:-1], cuts[2:]):
            r, w = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(r)
                os.close(w)
                raise
            if pid == 0:    # the child never returns
                status = 1
                try:
                    for fd in [r] + [fd for _, fd in children]:
                        os.close(fd)
                    with open(w, "wb") as out:
                        out.write(kernel(nums[lo:hi]).tobytes())
                    status = 0
                finally:
                    os._exit(status)
            os.close(w)
            children.append((pid, r))
        chunks = [kernel(nums[:cuts[1]])]
        width = chunks[0].shape[1]
        for (pid, r), lo, hi in zip(children, cuts[1:], cuts[2:]):
            with open(r, "rb", closefd=False) as src:
                rows = np.frombuffer(src.read(), dtype=np.float64)
            if rows.size != (hi - lo) * width:
                raise RotsumError(
                    f"forked process {pid} returned {rows.size} of "
                    f"{(hi - lo) * width} values for points {lo}..{hi - 1}")
            chunks.append(rows.reshape(hi - lo, width))
    finally:
        for pid, r in children:
            os.close(r)
            os.waitpid(pid, 0)
    return np.concatenate(chunks)
