"""Independent jobs spread over forked worker processes (``fork_map``).

``multiprocessing`` and ``concurrent.futures.process`` are imported on first
use, so importing this module loads neither.
"""

from __future__ import annotations

import functools
import logging

logger = logging.getLogger(__name__)

_forked = {}    # {"fn": ...} in a worker, set by its pool's initializer


def _share(start: int, stop: int) -> list:
    return [_forked["fn"](i) for i in range(start, stop)]


@functools.cache
def _fork_context():
    """The fork context, or None (logged once) where fork is unavailable."""
    import multiprocessing
    if "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    logger.info("fork is unavailable; worker shares run in-process")
    return None


def fork_map(fn, n: int, workers: int) -> list:
    """``[fn(i) for i in range(n)]`` in ``min(workers, n)`` contiguous shares
    of the indices: the caller runs the first, and processes forked for the
    call, joined before it returns or raises, run one other each (every
    share runs in the caller where fork is unavailable).  The workers
    inherit ``fn``, so it may be a closure; only share bounds, results and
    exceptions are pickled.  Results and the first error come in index
    order whatever ``workers`` is; a worker that dies raises
    ``BrokenProcessPool``."""
    width = min(workers, n)
    ctx = _fork_context() if width > 1 else None
    if ctx is None:
        return [fn(i) for i in range(n)]
    bounds = [n * k // width for k in range(width + 1)]
    from concurrent.futures import ProcessPoolExecutor
    pool = ProcessPoolExecutor(width - 1, ctx, _forked.update, ({"fn": fn},))
    try:
        shares = [pool.submit(_share, *b) for b in zip(bounds[1:], bounds[2:])]
        out = [fn(i) for i in range(bounds[1])]     # after the forks
        for share in shares:
            out += share.result()
        return out
    finally:
        pool.shutdown(cancel_futures=True)
