"""Benchmark of pneurc: three workloads, end-to-end metrics, and a traced
per-layer run. Run it from the repository root:

    python3 perfbench/run.py                       # all three workloads
    python3 perfbench/run.py --trace 1             # all three, traced
    python3 perfbench/run.py --workload track --seed 1 --seconds 30 --trace 0

Workloads (see workloads.py for why each was chosen): ``identify``,
``track`` and ``esn``. Each runs in this process, one closed-loop batch
job after another, single-threaded: BLAS is held to one thread.

Untraced (``--trace 0``) a run sets up ``SETUP_REPEATS`` times, then
repeats the workload's timed pass for about ``--seconds`` seconds (at
least once; a pass starts while half of it still fits) and prints, as the
last stdout line, the end-to-end metrics:

- ``setup_s``: median set-up. One set-up is a fresh interpreter's import
  of pneurc, the config load, and whatever the timed pass presupposes:
  for track the datasets and an fprc artifact, for esn the datasets.
- ``wall_s``: mean timed pass.
- ``peak_rss_mb``: peak resident memory of the process.

The lines before it give, where the workload has them, ``train_s``,
``ticks_per_s``, ``replay_steps_per_s``, ``test_rmse_kpa``,
``tracking_rmse_deg`` and ``error_rate`` (failed over attempted
operations), and a run manifest.

Traced (``--trace 1``) a run sets up once, runs one untraced pass, then
one pass with timing wrappers on the public functions of every pneurc
layer (tracing.py), and reports the per-layer metrics plus the tracing
overhead (traced minus untraced wall seconds). ``--spans PATH`` also
writes every span to a CSV file. With all three workloads in one
command, the traced run also prints the two FPRC-vs-ESN speed ratios.

Every operation's outputs are checked against references.json. The
workload seed selects one of ``REFERENCE_SEEDS`` CLI seeds (``--seed``
modulo that count), which fix the FCM initialisation and the ESN weights.
Tune on ``DEFAULT_SEED``; confirm a claim on ``CONFIRM_SEED``.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
TMP_ROOT = os.path.join(ROOT, ".perfbench_tmp")

DEFAULT_SEED = 0
CONFIRM_SEED = 1
REFERENCE_SEEDS = 16
SETUP_REPEATS = 3
DEFAULT_SECONDS = 30.0
WORKLOAD_NAMES = ("identify", "track", "esn")
# On a host of 2 vCPUs shared with other tenants, the ESN's two-thread
# mat-vec time varied by +-20% between rounds of 3000 updates, the one-thread
# time by +-3%; one thread is also faster for identify's small matrices.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _import_pneurc() -> None:
    """Import pneurc from this checkout's src/, and nothing else, with BLAS
    held to one thread."""
    if not os.path.isfile(os.path.join(SRC, "pneurc", "__init__.py")):
        sys.exit(f"error: {SRC}/pneurc not found; run from a pneurc checkout")
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, SRC)
    import pneurc.cli  # noqa: F401
    if not os.path.abspath(pneurc.__file__).startswith(SRC + os.sep):
        sys.exit(f"error: imported pneurc from {pneurc.__file__}, not {SRC}")


def _import_seconds() -> float:
    """Seconds a fresh interpreter takes to import pneurc (with numpy and scipy)."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); t0 = time.perf_counter(); "
            "import pneurc.cli; print(time.perf_counter() - t0)")
    proc = subprocess.run([sys.executable, "-c", code, SRC], capture_output=True, text=True,
                          check=True, timeout=120)
    return float(proc.stdout)


def load_references() -> dict:
    with open(os.path.join(HERE, "references.json"), "r", encoding="ascii") as fh:
        return json.load(fh)


def cli_seed(seed: int) -> int:
    return seed % REFERENCE_SEEDS


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_workload(workload, seed: int, seconds: float, trace: bool, reference,
                 probes=None, spans_path=None) -> dict:
    """Set up, run and check one workload; returns its result document.

    ``seed`` goes to the CLI as is. ``reference`` maps op names to their
    reference outputs, or is None to check only for errors.
    """
    from tracing import PROBES, Instrumentation, Tracer, layer_metrics
    from workloads import check_ops

    os.makedirs(TMP_ROOT, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=TMP_ROOT)
    ops, failures, lines = [], [], []

    def checked(batch):
        ops.extend(batch)
        failures.extend(check_ops(batch, reference))
        return batch

    try:
        setup_times = []
        for r in range(1 if trace else SETUP_REPEATS):
            d = os.path.join(work, f"setup{r}")
            os.makedirs(d)
            import_s = 0.0 if trace else _import_seconds()
            t0 = time.perf_counter()
            state, setup_ops = workload.setup(seed, d)
            setup_times.append(import_s + time.perf_counter() - t0)
            checked(setup_ops)
            if r:
                shutil.rmtree(os.path.join(work, f"setup{r - 1}"))
        passes = []
        t_start = time.perf_counter()
        while True:  # passes while at least half of the next fits in `seconds`
            out = os.path.join(work, f"pass{len(passes)}")
            passes.append(checked(workload.run_pass(seed, state, out)))
            shutil.rmtree(out, ignore_errors=True)
            elapsed = time.perf_counter() - t_start
            if trace or elapsed * (1.0 + 0.5 / len(passes)) > seconds:
                break
        walls = [sum(op.seconds for op in p) for p in passes]
        if trace:
            tracer = Tracer()
            with Instrumentation(tracer, PROBES if probes is None else probes) as inst:
                traced = workload.run_pass(seed, state, os.path.join(work, "traced"))
            checked(traced)
            metrics = layer_metrics(tracer.stats())
            traced_wall = sum(op.seconds for op in traced)
            metrics["trace.overhead_s"] = (traced_wall - walls[0], "s")
            metrics["trace.absent"] = (len(inst.absent), "count")
            lines += [f"absent: {t}" for t in inst.absent]
            lines += [f"work not counted: {t}" for t in sorted(tracer.uncounted)]
            lines += _span_table(tracer)
            if spans_path:
                tracer.write_csv(spans_path)
                lines.append(f"wrote {len(tracer)} spans to {spans_path}")
        else:
            # The mean, not the median pass: the host's speed switches between
            # two levels for seconds at a time, which only an average over the
            # whole run smooths out.
            metrics = {"setup_s": (statistics.median(setup_times), "s"),
                       "wall_s": (statistics.fmean(walls), "s"),
                       "peak_rss_mb": (_peak_rss_mb(), "MB")}
            lines.append("set-up runs, import included [s]: "
                         + " ".join(f"{t:.4f}" for t in setup_times))
        lines.append("pass walls [s]: " + " ".join(f"{w:.4f}" for w in walls))
        report = [] if failures else workload.report(passes)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(TMP_ROOT)  # only when no other run is using it
    failed = sum(1 for op in ops if op.error is not None)
    lines += [f"FAILED {m}" for m in failures]
    report.append(("error_rate", failed / len(ops), "1"))
    return {"workload": workload.name, "lines": lines, "report": report, "ops": ops,
            "correct": failed == 0, "attempted": len(ops), "failed": failed,
            "metrics": metrics}


def _span_table(tracer) -> list:
    stats = tracer.stats()
    lines = [f"{'span':32s} {'calls':>8s} {'total_s':>10s} {'self_s':>10s}"]
    for name in sorted(stats, key=lambda n: -stats[n].self_s):
        s = stats[name]
        lines.append(f"{name:32s} {s.calls:8d} {s.total_s:10.4f} {s.self_s:10.4f}")
    return lines


def manifest(workload: str, seed: int, seconds: float, trace: bool, load_start) -> dict:
    """Where and how a result was measured. Stdlib only; /sys is read, never written."""
    import numpy
    import scipy

    blas = "unknown"
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}"
    except (TypeError, KeyError, AttributeError):
        pass
    caches = []
    cache_dir = "/sys/devices/system/cpu/cpu0/cache"
    for entry in sorted(os.listdir(cache_dir)) if os.path.isdir(cache_dir) else []:
        try:
            with open(os.path.join(cache_dir, entry, "level")) as fh:
                level = fh.read().strip()
            with open(os.path.join(cache_dir, entry, "type")) as fh:
                kind = fh.read().strip()
            with open(os.path.join(cache_dir, entry, "size")) as fh:
                size = fh.read().strip()
        except OSError:
            continue
        if kind != "Instruction":
            caches.append(f"L{level} {kind} {size}")
    return {
        "workload": workload, "seed": seed, "cli_seed": cli_seed(seed),
        "seconds": seconds, "trace": int(trace), "git_sha": _git_sha(),
        "python": sys.version.split()[0], "numpy": numpy.__version__,
        "scipy": scipy.__version__, "blas": blas,
        "thread_env": {k: v for k, v in sorted(os.environ.items())
                       if k.endswith("_NUM_THREADS")},
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "caches_cpu0": caches,
        "loadavg_start": list(load_start), "loadavg_end": list(os.getloadavg()),
    }


def _git_sha():
    """HEAD of the checkout, read from .git without running git; None outside git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _print_result(result: dict) -> None:
    name = result["workload"]
    for line in result["lines"]:
        print(f"[{name}] {line}")
    for metric, (value, unit) in result["metrics"].items():
        print(f"[{name}] {metric:32s} {value:14.6g} {unit}")
    for metric, value, unit in result["report"]:
        print(f"[{name}] {metric:32s} {value:14.6g} {unit}")


def _result_json(result: dict) -> str:
    return json.dumps({
        "correct": result["correct"], "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
    })


def _run_all(args) -> int:
    """Each workload in its own process, so peak memory is per workload."""
    results = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited with code {proc.returncode}", file=sys.stderr)
            return 1
        results[name] = json.loads(lines[-1])
    if args.trace:
        m = {n: r["metrics"] for n, r in results.items()}

        def value(workload, metric):
            return m[workload][metric]["value"]

        replay = value("esn", "esn.replay_us_per_step") / value("identify",
                                                                "fprc.replay_us_per_step")
        live = value("esn", "esn.step.us_p50") / value("track", "fprc.step.us_p50")
        print(f"batch replay: esn {value('esn', 'esn.replay_us_per_step'):.3f} us/step / "
              f"fprc {value('identify', 'fprc.replay_us_per_step'):.3f} us/step "
              f"= {replay:.1f}x (traced)")
        print(f"live step p50: esn {value('esn', 'esn.step.us_p50'):.1f} us / "
              f"fprc {value('track', 'fprc.step.us_p50'):.1f} us = {live:.2f}x (traced)")
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
    }))
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--spans", metavar="PATH", help="traced run: write every span to PATH (CSV)")
    args = p.parse_args(argv)
    if args.workload == "all":
        return _run_all(args)

    load_start = os.getloadavg()
    _import_pneurc()
    from workloads import WORKLOAD_TYPES

    workload = next(t for t in WORKLOAD_TYPES if t.name == args.workload)()
    reference = load_references()["seeds"][str(cli_seed(args.seed))][workload.name]
    result = run_workload(workload, cli_seed(args.seed), args.seconds, bool(args.trace),
                          reference, spans_path=args.spans)
    _print_result(result)
    print(f"[{workload.name}] manifest "
          + json.dumps(manifest(workload.name, args.seed, args.seconds, bool(args.trace),
                                load_start)))
    print(_result_json(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
