"""Work items spread over the CPUs this process may use.

`usable_cpus` is the one reader of how many CPUs that is.  `for_each`
calls a function on every item of a sequence: the calling thread and one
helper thread per further usable CPU take items from one shared iterator
until it is empty, so the caller never idles while helpers work.  numpy
loops release the GIL, so items spent in them overlap; the HiGHS solver
behind scipy's `linprog` holds it, so an LP solve overlaps only other
threads' numpy loops.  The result of an item must not depend on the thread
that ran it; callers write each item's result into its own slot.

Three callers spread their work this way: `transport.wasserstein1_exact_batch`
(one item per W1 pair past the line bound), `bounds.poisson_estimate` (one
item per chunk of rollout lanes) and `harness._batch_empirical_at` (one
item per part of a multi-knot replication block, cut into `usable_cpus()`
parts at most, each simulated, folded and scored by its item).
"""

from __future__ import annotations

import os
from typing import Callable, Sequence, TypeVar

T = TypeVar("T")


def usable_cpus() -> int:
    """The CPUs in the process's affinity mask, read at call time (all
    CPUs where the platform has no affinity call)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def for_each(work: Callable[[T], object], items: Sequence[T]) -> None:
    """Call `work(item)` for every item, on the caller plus one helper
    thread per further usable CPU (`usable_cpus`).

    The first exception raised reaches the caller unchanged, no thread
    starts an item after it, and no thread outlives the call.  With one
    usable CPU or one item, the caller does all the work and no pool is
    created.
    """
    shared = iter(items)  # next() on a sequence iterator is atomic under the GIL

    def drain() -> None:
        try:
            for item in shared:
                work(item)
        except BaseException:
            for _ in shared:  # no thread starts another item
                pass
            raise

    helpers = min(usable_cpus(), len(items)) - 1
    if helpers < 1:
        drain()
        return
    from concurrent.futures import ThreadPoolExecutor  # ~10 ms to import

    with ThreadPoolExecutor(helpers) as pool:
        futures = [pool.submit(drain) for _ in range(helpers)]
        drain()
        for future in futures:
            future.result()
