"""Independent work items mapped over forked worker processes."""
import contextlib
import os


def fork_map(fn, items) -> list:
    """``[fn(item) for item in items]`` on one forked worker per usable CPU,
    at most one per item, with the results in item order. ``fn`` (a
    module-level function or a partial of one), the items, the results and
    any exception travel by pickle, so an error keeps its type and message.
    With one worker, or without ``fork``, the items run in this process.
    Forking copies only the calling thread: call it from a process whose
    other threads, if any, hold no lock a worker needs."""
    import multiprocessing  # imported here: train, evaluate and bench start no worker
    from concurrent.futures import ProcessPoolExecutor

    items = list(items)
    affinity = getattr(os, "sched_getaffinity", None)
    workers = min(len(affinity(0)) if affinity else os.cpu_count() or 1, len(items))
    if workers <= 1 or "fork" not in multiprocessing.get_all_start_methods():
        return [fn(item) for item in items]
    with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                             initializer=_one_blas_thread) as pool:
        return list(pool.map(fn, items))


def _one_blas_thread() -> None:
    """Hold this worker's OpenBLAS, if numpy loaded one, to one thread: the
    workers already fill the CPUs, and BLAS threads on top of them spin."""
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
