import multiprocessing
import time

import pytest

from typsgd import _parallel
from typsgd._parallel import map_processes


class PoolRefused(Exception):
    pass


def recording_pool(sizes):
    """A ProcessPoolExecutor stand-in that records its size and starts nothing."""

    def pool(max_workers=None, *args, **kwargs):
        sizes.append(max_workers)
        raise PoolRefused

    return pool


def mark(path, fail):
    """Fail at once, or write ``path`` after a pause long enough for a failure elsewhere to be seen."""
    if fail:
        raise ValueError("injected failure")
    time.sleep(0.2)
    path.write_text("ran")


def test_results_come_back_in_task_order(monkeypatch):
    monkeypatch.setattr(_parallel, "usable_cpus", lambda: 2)
    tasks = [(n, 3) for n in range(10)]
    assert map_processes(divmod, tasks) == [divmod(n, 3) for n in range(10)]
    assert not multiprocessing.active_children()


@pytest.mark.parametrize("cpus, tasks", [(1, [(7, 2), (9, 4)]), (4, [(7, 2)]), (4, [])])
def test_one_worker_or_one_task_runs_inline(monkeypatch, cpus, tasks):
    sizes = []
    monkeypatch.setattr(_parallel, "usable_cpus", lambda: cpus)
    monkeypatch.setattr(_parallel, "ProcessPoolExecutor", recording_pool(sizes))
    assert map_processes(divmod, tasks) == [divmod(*t) for t in tasks]
    assert sizes == []


@pytest.mark.parametrize("cpus, size", [(2, 2), (5, 5), (1000, 5)])
def test_pool_is_capped_at_the_task_count(monkeypatch, cpus, size):
    sizes = []
    monkeypatch.setattr(_parallel, "usable_cpus", lambda: cpus)
    monkeypatch.setattr(_parallel, "ProcessPoolExecutor", recording_pool(sizes))
    with pytest.raises(PoolRefused):
        map_processes(divmod, [(n, 3) for n in range(5)])
    assert sizes == [size]


def test_first_error_cancels_the_pending_tasks(monkeypatch, tmp_path):
    monkeypatch.setattr(_parallel, "usable_cpus", lambda: 2)
    tasks = [(tmp_path / f"task{k}", k == 0) for k in range(12)]
    with pytest.raises(ValueError, match="injected"):
        map_processes(mark, tasks)
    assert not multiprocessing.active_children()
    assert len(list(tmp_path.iterdir())) < 11
