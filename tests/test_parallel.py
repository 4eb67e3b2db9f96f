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


def test_results_come_back_in_task_order():
    tasks = [(n, 3) for n in range(10)]
    assert map_processes(divmod, tasks, 2) == [divmod(n, 3) for n in range(10)]
    assert not multiprocessing.active_children()


@pytest.mark.parametrize("workers, tasks", [(1, [(7, 2), (9, 4)]), (4, [(7, 2)]), (4, [])])
def test_one_worker_or_one_task_runs_inline(monkeypatch, workers, tasks):
    sizes = []
    monkeypatch.setattr(_parallel, "ProcessPoolExecutor", recording_pool(sizes))
    assert map_processes(divmod, tasks, workers) == [divmod(*t) for t in tasks]
    assert sizes == []


def test_pool_is_capped_at_the_task_count(monkeypatch):
    sizes = []
    monkeypatch.setattr(_parallel, "ProcessPoolExecutor", recording_pool(sizes))
    with pytest.raises(PoolRefused):
        map_processes(divmod, [(n, 3) for n in range(5)], 1000)
    assert sizes == [5]


@pytest.mark.parametrize("workers", [0, -2])
def test_fewer_than_one_worker_is_rejected(workers):
    with pytest.raises(ValueError, match="workers"):
        map_processes(divmod, [(7, 2)], workers)


def test_first_error_cancels_the_pending_tasks(tmp_path):
    tasks = [(tmp_path / f"task{k}", k == 0) for k in range(12)]
    with pytest.raises(ValueError, match="injected"):
        map_processes(mark, tasks, 2)
    assert not multiprocessing.active_children()
    assert len(list(tmp_path.iterdir())) < 11
