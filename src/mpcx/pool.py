"""Contiguous span split of the grid-wide kernels over the available cores.

``peak_sweep`` and the stages of the lattice transform walk a large grid in
independent row blocks, and numpy releases the interpreter lock inside the
products, magnitudes and maxima of a block.  ``run_blocks`` cuts a
kernel's blocks into contiguous spans of whole blocks, one per CPU of the
process's affinity mask, and runs them on threads that live only while the
split runs.  A kernel below ``_MIN_SPAN_ENTRIES`` entries per span stays one
span, called inline with no thread and no ``concurrent.futures`` import; a
transform stage counts its multiply-adds in entries
(``sounder._MADDS_PER_ENTRY``).
"""

from __future__ import annotations

import os

# grid entries a span must hold before a kernel is split (16 MB of
# complex128): on smaller grids the threads' hand-offs of the interpreter
# lock cost more than a second core gains
_MIN_SPAN_ENTRIES = 1 << 20


def _cpus() -> int:
    "CPUs this process may run on."
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        return os.cpu_count() or 1


def run_blocks(fn, n_rows: int, block_rows: int, row_entries: int) -> list:
    """``[fn(start, stop) for each span]``: the blocks of ``block_rows`` rows
    that start at ``range(0, n_rows, block_rows)``, cut into contiguous spans
    of whole blocks, one per CPU but none under ``_MIN_SPAN_ENTRIES`` entries
    at ``row_entries`` per row.  One span is called inline; more run on a
    thread pool opened for this call, and every span finishes before this
    returns or raises, so none is still writing when the caller goes on."""
    n_blocks = -(-n_rows // block_rows)
    n_spans = max(1, min(_cpus(), n_blocks,
                         n_blocks * block_rows * row_entries // _MIN_SPAN_ENTRIES))
    if n_spans == 1:
        return [fn(0, n_rows)]
    edges = [min(k * n_blocks // n_spans * block_rows, n_rows)
             for k in range(n_spans + 1)]
    from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(n_spans, thread_name_prefix="mpcx-span") as threads:
        futures = [threads.submit(fn, *span) for span in zip(edges, edges[1:])]
    return [f.result() for f in futures]
