"""Contiguous span split of the grid-wide kernels over the available cores.

``peak_sweep`` and the lattice transform walk a large grid in independent
row blocks, and numpy releases the interpreter lock inside the products,
magnitudes and argmaxes of a block.  A kernel cuts its blocks into
contiguous spans, one per CPU of the process's affinity mask, and
``run_spans`` runs them on one thread pool, created on the first split and
dropped in a forked child (whose copy of it has no threads).  A grid below
``_MIN_SPAN_ENTRIES`` entries per span stays one span, called inline with
no pool and no ``concurrent.futures`` import.
"""

from __future__ import annotations

import os

# grid entries a span must hold before a kernel is split (16 MB of
# complex128): on smaller grids the threads' hand-offs of the interpreter
# lock cost more than a second core gains
_MIN_SPAN_ENTRIES = 1 << 20

_pool = None


def _cpus() -> int:
    "CPUs this process may run on."
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        return os.cpu_count() or 1


def _drop_pool() -> None:
    global _pool
    _pool = None


if hasattr(os, "register_at_fork"):  # POSIX: where a process can fork
    os.register_at_fork(after_in_child=_drop_pool)


def split_blocks(n_blocks: int, block_entries: int) -> list[tuple[int, int]]:
    """Contiguous spans ``(b0, b1)`` covering blocks ``0..n_blocks-1`` of
    ``block_entries`` grid entries each: one per CPU, but no more than leave
    each span ``_MIN_SPAN_ENTRIES`` entries, and at least one."""
    n_spans = max(1, min(_cpus(), n_blocks,
                         n_blocks * block_entries // _MIN_SPAN_ENTRIES))
    edges = [k * n_blocks // n_spans for k in range(n_spans + 1)]
    return list(zip(edges[:-1], edges[1:]))


def run_spans(fn, spans: list[tuple[int, int]]) -> list:
    """``[fn(b0, b1) for (b0, b1) in spans]``, the spans run concurrently on
    the pool when there is more than one.  Every span finishes before this
    returns or raises, so none is still writing when the caller goes on."""
    if len(spans) == 1:
        return [fn(*spans[0])]
    from concurrent.futures import ThreadPoolExecutor, wait
    global _pool
    if _pool is None:
        _pool = ThreadPoolExecutor(max_workers=_cpus(),
                                   thread_name_prefix="mpcx-span")
    futures = [_pool.submit(fn, *span) for span in spans]
    wait(futures)
    return [f.result() for f in futures]
