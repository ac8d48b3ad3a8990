"""Independent work items mapped over forked worker processes."""
import contextlib
import os

# (fn, items) of the fork_map whose pool is running; its workers inherit it by fork
_TASK = None
# set in each worker: a fork_map called there runs its items in that worker
_IN_WORKER = False


def usable_cpus() -> int:
    """CPUs this process may run on; 1 inside a ``fork_map`` worker, whose
    pool already fills them."""
    if _IN_WORKER:
        return 1
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else os.cpu_count() or 1


def fork_map(fn, items) -> list:
    """``[fn(item) for item in items]`` on one forked worker per usable CPU,
    at most one per item, with the results in item order. ``fn`` and the
    items reach the workers by fork inheritance, so neither is pickled and
    either may be large; each task sends only an item's index. The results
    and any exception travel by pickle, so an error keeps its type and
    message. With one worker, inside a worker, or without ``fork``, the
    items run in this process. Forking copies only the calling thread:
    call it from a process whose other threads, if any, hold no lock a
    worker needs, and from one thread at a time."""
    global _TASK
    import multiprocessing  # imported on first use, not with pneurc.cli
    from concurrent.futures import ProcessPoolExecutor

    items = list(items)
    workers = min(usable_cpus(), len(items))
    if workers <= 1 or "fork" not in multiprocessing.get_all_start_methods():
        return [fn(item) for item in items]
    _TASK = (fn, items)
    try:
        with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                                 initializer=_start_worker) as pool:
            return list(pool.map(_run_item, range(len(items))))
    finally:
        _TASK = None


def _run_item(index: int):
    fn, items = _TASK
    return fn(items[index])


def _start_worker() -> None:
    """Mark this process a worker, at one BLAS thread: the workers fill the CPUs."""
    global _IN_WORKER
    _IN_WORKER = True
    one_blas_thread()


def one_blas_thread() -> None:
    """Hold this process's OpenBLAS, if numpy loaded one, to one thread."""
    import ctypes

    with contextlib.suppress(OSError):  # /proc/self/maps is Linux's
        with open("/proc/self/maps", encoding="utf-8", errors="replace") as fh:
            paths = {line.split(None, 5)[-1].strip() for line in fh if "openblas" in line}
        for lib in map(ctypes.CDLL, paths):
            for name in ("scipy_openblas_set_num_threads64_", "openblas_set_num_threads64_",
                         "scipy_openblas_set_num_threads", "openblas_set_num_threads"):
                if hasattr(lib, name):
                    setter = getattr(lib, name)
                    setter.argtypes, setter.restype = [ctypes.c_int], None
                    setter(1)
