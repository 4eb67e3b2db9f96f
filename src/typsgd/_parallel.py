"""The usable-CPU count, and one way to run independent calls on worker processes."""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor, as_completed


def usable_cpus() -> int:
    """The CPUs this process may run on, which can be fewer than the machine has."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        return os.cpu_count() or 1


def map_processes(fn, tasks, workers: int) -> list:
    """``[fn(*task) for task in tasks]``, on up to ``workers`` processes; results in task order.

    With one worker or at most one task the calls run inline and no process
    is started. Otherwise the pool has min(workers, len(tasks)) processes and
    one submission per task, so a free worker always takes the next task.
    ``fn`` and the tasks must pickle: ``fn`` a module-level function. On the
    first error the pending tasks are cancelled, the running ones finish,
    the workers are joined and the error is raised; no worker outlives the
    call.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1; got {workers}")
    tasks = list(tasks)
    if workers == 1 or len(tasks) <= 1:
        return [fn(*task) for task in tasks]
    with ProcessPoolExecutor(min(workers, len(tasks))) as pool:
        futures = [pool.submit(fn, *task) for task in tasks]
        try:
            for future in as_completed(futures):
                future.result()
        except BaseException:
            pool.shutdown(cancel_futures=True)
            raise
    return [future.result() for future in futures]
