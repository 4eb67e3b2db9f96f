"""The one pool-size rule, the one block budget, and one way to run independent calls on worker processes."""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor, as_completed

# bytes of one block of every blocked pass, read at call time: a row block or a
# square tile of an N x N matrix in t-SNE (a descent pass touches a tile of P's
# and two reused buffers'), one of the KDE's two (queries, points) temporaries,
# a batch block's draws
BLOCK_BYTES = 1 << 20


def usable_cpus() -> int:
    """The CPUs this process may run on, which can be fewer than the machine has."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        return os.cpu_count() or 1


def pool_size(tasks: int) -> int:
    """Workers for ``tasks`` independent tasks: one per usable CPU, at most one per task, at least one."""
    return max(1, min(usable_cpus(), tasks))


def map_processes(fn, tasks) -> list:
    """``[fn(*task) for task in tasks]`` on :func:`pool_size` processes; results in task order.

    With one worker (one usable CPU, or at most one task) the calls run
    inline and no process is started. Otherwise the pool makes one
    submission per task, so a free worker always takes the next task.
    ``fn`` and the tasks must pickle: ``fn`` a module-level function. On the
    first error the pending tasks are cancelled, the running ones finish,
    the workers are joined and the error is raised; no worker outlives the
    call.
    """
    tasks = list(tasks)
    workers = pool_size(len(tasks))
    if workers == 1:
        return [fn(*task) for task in tasks]
    with ProcessPoolExecutor(workers) as pool:
        futures = [pool.submit(fn, *task) for task in tasks]
        try:
            for future in as_completed(futures):
                future.result()
        except BaseException:
            pool.shutdown(cancel_futures=True)
            raise
    return [future.result() for future in futures]
