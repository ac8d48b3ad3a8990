"""Work mapped over forked worker processes."""
import multiprocessing
import os

from pneurc import parallel


def _pid_with_a_nested_map(item):
    return os.getpid(), parallel.fork_map(lambda k: (item * k, os.getpid()), range(3))


def test_fork_map_called_in_a_worker_runs_its_items_there():
    results = parallel.fork_map(_pid_with_a_nested_map, [1, 2])
    for item, (pid, inner) in zip([1, 2], results):
        assert inner == [(item * k, pid) for k in range(3)]
    if parallel.usable_cpus() > 1:
        assert {pid for pid, _ in results} != {os.getpid()}
    assert multiprocessing.active_children() == []


def test_fork_map_passes_work_by_inheritance():
    # lambdas cannot be pickled: the function and the items reach the
    # workers by fork, and only the results travel back
    calls = [lambda: 1, lambda: 2, lambda: 3]
    assert parallel.fork_map(lambda f: f(), calls) == [1, 2, 3]
    assert parallel._TASK is None
    assert multiprocessing.active_children() == []


def test_a_worker_counts_one_usable_cpu():
    assert parallel.fork_map(lambda _: parallel.usable_cpus(), range(2)) == [1, 1]
    assert parallel.usable_cpus() >= 1
