"""Order-preserving parallel map for experiment sweeps.

Every experiment point (one ``(scheme, node count, seed)`` cell of a
sweep) is an *independent* simulation: the worker builds its own
:class:`~repro.sim.engine.Simulator` and
:class:`~repro.sim.rng.RngRegistry` from the point's config, so nothing
is shared between points but the immutable config objects.  That makes a
sweep embarrassingly parallel — and, because :func:`parallel_map`
preserves submission order exactly, the *formatted output of a sweep is
byte-identical for any job count*, including ``jobs=1`` which never
touches worker processes at all.

Workers inherit no simulation state: the only module-level mutables in
the tree are uid counters (allowed by DET-006 precisely because their
values never influence control flow or formatted output), so a point
computes the same result in a forked child, a spawned child, or inline.

``fork`` is preferred when the platform offers it (cheap, inherits the
imported tree); ``spawn`` is the fallback elsewhere.  Worker functions
and items must be picklable top-level callables either way.

Crash semantics
---------------
The pool runs on :class:`concurrent.futures.ProcessPoolExecutor`, not
``multiprocessing.Pool``: when a worker process dies *hard* (OOM kill,
segfault, uncatchable signal) ``Pool.map`` loses the task and blocks the
whole sweep forever, while the executor detects the dead process and
fails the in-flight futures.  :func:`parallel_map` converts that into a
:class:`WorkerCrashError` naming every point that never reported a
result (the crashed point is among them; with ``jobs > 1`` siblings that
were in flight when the pool broke are listed too).  Ordinary exceptions
raised *inside* a worker are pickled back and re-raised unchanged.
"""

from __future__ import annotations

import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, List, Optional, Sequence, TypeVar

__all__ = ["parallel_map", "WorkerCrashError"]

T = TypeVar("T")
R = TypeVar("R")


class WorkerCrashError(RuntimeError):
    """A pool worker died without reporting a result (hard crash).

    ``points`` carries the identity strings of every submitted item that
    had no result when the pool broke — the crashed point plus any
    siblings in flight at that moment.  Completed points are unaffected
    (and, for stores that persist per point, remain durable).
    """

    def __init__(self, points: Sequence[str]) -> None:
        self.points = tuple(points)
        listing = ", ".join(self.points) or "<none submitted>"
        super().__init__(
            "a worker process terminated abruptly (killed / OOM / segfault) "
            f"before reporting a result; unfinished points: {listing}"
        )


def _pool_context() -> multiprocessing.context.BaseContext:
    """The cheapest start method the platform supports."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return multiprocessing.get_context("spawn")


def parallel_map(
    fn: Callable[[T], R],
    items: Sequence[T],
    jobs: int = 1,
    describe: Optional[Callable[[T], str]] = None,
) -> List[R]:
    """``[fn(x) for x in items]``, fanned over ``jobs`` processes.

    Results come back in submission order regardless of which worker
    finished first, so callers may rely on byte-identical downstream
    formatting for any ``jobs`` value.  ``jobs <= 1`` (or fewer than two
    items) runs inline in this process.

    ``describe`` maps an item to a short identity string ("scheme/n=150/
    seed=7") used in :class:`WorkerCrashError` when a worker dies hard;
    the default is a truncated ``repr``.  It is only called in the
    parent, so it need not pickle.
    """
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    items = list(items)
    if jobs == 1 or len(items) < 2:
        return [fn(item) for item in items]
    if describe is None:
        describe = lambda item: repr(item)[:120]
    workers = min(jobs, len(items))
    executor = ProcessPoolExecutor(max_workers=workers, mp_context=_pool_context())
    try:
        futures = [executor.submit(fn, item) for item in items]
        results: List[R] = []
        for future in futures:
            try:
                results.append(future.result())
            except BrokenProcessPool:
                # The broken pool fails every future that had not yet
                # produced a result; the one whose worker died is among
                # them but indistinguishable from in-flight siblings.
                lost = [
                    describe(item)
                    for item, sibling in zip(items, futures)
                    if not sibling.done()
                    or sibling.cancelled()
                    or isinstance(sibling.exception(), BrokenProcessPool)
                ]
                raise WorkerCrashError(lost) from None
        return results
    finally:
        # cancel_futures: on an error (or SIGINT) never start queued
        # points; running ones finish so per-point persistence (the
        # campaign store) keeps everything already computed.
        executor.shutdown(wait=True, cancel_futures=True)
