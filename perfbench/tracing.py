"""Span tracing of pneurc from the outside.

The benchmark never edits ``src/``. It measures a layer by wrapping the
public functions of that module for the length of one traced pass and
putting them back afterwards. Because pneurc imports names with
``from .x import y``, a wrapper is bound where the caller looks the name
up (``pneurc.control.actuator_step``, not ``pneurc.plant.actuator_step``).
Methods are wrapped on their class. A target that no longer exists is
recorded as absent; the pass still runs.

Each span records its name, start, end and parent span in flat arrays that
stay in memory until the pass ends. A span's self time is its duration
minus the time its direct children cover. A duration includes the cost of
its children's wrappers, so per-call figures of spans with children
(``fprc.step``, ``esn.step``) read a few microseconds high; the run's
``trace.overhead_s`` gives the total cost of tracing.
"""
from __future__ import annotations

import functools
import importlib
import time
from array import array
from dataclasses import dataclass
from typing import Callable

import numpy as np


class Tracer:
    """In-memory span store for one single-threaded traced pass."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.work_a = array("d")
        self.work_b = array("d")
        self._stack: list[int] = []
        self.uncounted: set[str] = set()  # targets whose work could not be read

    def open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        i = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.work_a.append(0.0)
        self.work_b.append(0.0)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def close(self, i: int, work=None) -> None:
        self.end[i] = time.perf_counter()
        self._stack.pop()
        if work is not None:
            if isinstance(work, tuple):
                self.work_a[i], self.work_b[i] = work
            else:
                self.work_a[i] = work

    def __len__(self) -> int:
        return len(self.start)

    def stats(self) -> dict:
        """Per span name: calls, total and self seconds, summed work, and
        the duration of every call (for percentiles)."""
        n = len(self)
        start = np.frombuffer(self.start, dtype=float, count=n)
        end = np.frombuffer(self.end, dtype=float, count=n)
        dur = end - start
        parent = np.frombuffer(self.parent, dtype=np.int32, count=n)
        nid = np.frombuffer(self.name_id, dtype=np.int32, count=n)
        child_time = np.zeros(n)
        has_parent = parent >= 0
        np.add.at(child_time, parent[has_parent], dur[has_parent])
        self_time = dur - child_time
        work_a = np.frombuffer(self.work_a, dtype=float, count=n)
        work_b = np.frombuffer(self.work_b, dtype=float, count=n)
        out = {}
        for k, name in enumerate(self.names):
            sel = nid == k
            out[name] = SpanStat(calls=int(np.count_nonzero(sel)),
                                 total_s=float(np.sum(dur[sel])),
                                 self_s=float(np.sum(self_time[sel])),
                                 work_a=float(np.sum(work_a[sel])),
                                 work_b=float(np.sum(work_b[sel])),
                                 durations=dur[sel])
        return out

    def write_csv(self, path) -> None:
        """All spans, one per line: id,parent,name,start_s,end_s,work_a,work_b."""
        with open(path, "w", encoding="ascii", newline="\n") as fh:
            fh.write("id,parent,name,start_s,end_s,work_a,work_b\n")
            for i in range(len(self)):
                fh.write(f"{i},{self.parent[i]},{self.names[self.name_id[i]]},"
                         f"{self.start[i]!r},{self.end[i]!r},"
                         f"{self.work_a[i]!r},{self.work_b[i]!r}\n")


@dataclass
class SpanStat:
    calls: int
    total_s: float
    self_s: float
    work_a: float
    work_b: float
    durations: np.ndarray


@dataclass(frozen=True)
class Probe:
    """One wrapper target.

    ``module`` is where the caller looks the name up; ``cls`` names a class
    in that module when ``attr`` is a method. ``span`` is the span name, or
    a function of the call's (args, kwargs) giving it. ``work`` maps
    (args, kwargs, result) to a count, or a pair of counts, for the span.
    """

    module: str
    attr: str
    span: str | Callable
    cls: str | None = None
    work: Callable | None = None

    @property
    def target(self) -> str:
        owner = f"{self.module}.{self.cls}" if self.cls else self.module
        return f"{owner}.{self.attr}"


def _cli_span(args, kwargs) -> str:
    argv = list(args[0])
    command = next(a for a in argv if a in ("generate", "train", "evaluate", "simulate"))
    if "--model" in argv:
        return f"cli.{command}.{argv[argv.index('--model') + 1]}"
    return f"cli.{command}"


def _run_span(args, kwargs) -> str:
    return "control.run." + kwargs.get("method", "").replace("+", "_")


PROBES = (
    Probe("pneurc.cli", "main", _cli_span),
    Probe("pneurc.config", "from_json", "config.load", cls="ExperimentConfig"),
    Probe("pneurc.signals", "render", "signals.render", cls="SignalSpec"),
    Probe("pneurc.datasets", "actuator_step", "plant.actuator_step"),
    Probe("pneurc.control", "actuator_step", "plant.actuator_step"),
    Probe("pneurc.datasets", "reservoir_step", "plant.reservoir_step"),
    Probe("pneurc.fprc", "reservoir_step", "plant.reservoir_step"),
    Probe("pneurc.cli", "generate_dataset", "datasets.generate"),
    Probe("pneurc.datasets", "save_csv", "datasets.save_csv", cls="Dataset",
          work=lambda a, k, r: len(a[0])),
    Probe("pneurc.datasets", "load_csv", "datasets.load_csv", cls="Dataset",
          work=lambda a, k, r: len(r)),
    Probe("pneurc.fprc", "fprc_collect_training", "fprc.features"),
    Probe("pneurc.fprc", "evaluate", "fprc.evaluate", cls="FprcModel",
          work=lambda a, k, r: len(r[1])),
    Probe("pneurc.fprc", "step", "fprc.step", cls="FprcFeedforward"),
    Probe("pneurc.fprc", "fcm_cluster", "fuzzy.fcm"),
    Probe("pneurc.fprc", "train_fuzzy_readout", "fuzzy.readout"),
    Probe("pneurc.fprc", "fuzzy_infer_batch", "fuzzy.infer",
          work=lambda a, k, r: len(r)),
    Probe("pneurc.training", "kfold_cv", "training.kfold",
          work=lambda a, k, r: len(r[1].folds)),
    Probe("pneurc.fuzzy", "ridge_solve", "training.ridge"),
    Probe("pneurc.esn", "ridge_solve", "training.ridge"),
    Probe("pneurc.esn", "esn_collect_states", "esn.collect_states"),
    Probe("pneurc.esn", "esn_update", "esn.update",
          work=lambda a, k, r: 8.0 * a[0].w_reservoir.size),
    Probe("pneurc.esn", "step", "esn.step", cls="EsnFeedforward"),
    Probe("pneurc.esn", "evaluate", "esn.evaluate", cls="TrainedEsn",
          work=lambda a, k, r: len(r[1])),
    Probe("pneurc.control", "run_closed_loop", _run_span,
          work=lambda a, k, r: (len(r), r.clamp_steps)),
    Probe("pneurc.control", "to_csv", "control.runlog_csv", cls="RunLog",
          work=lambda a, k, r: len(a[0])),
)


def _wrap(fn, probe: Probe, tracer: Tracer):
    span, work = probe.span, probe.work

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        i = tracer.open(span if isinstance(span, str) else span(args, kwargs))
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            tracer.close(i)
            raise
        counted = None
        if work is not None:
            try:
                counted = work(args, kwargs, result)
            except (AttributeError, TypeError, IndexError):  # the target's signature changed
                tracer.uncounted.add(probe.target)
        tracer.close(i, counted)
        return result

    return traced


class Instrumentation:
    """Installs the probes' wrappers and puts the originals back.

    Use as a context manager; ``absent`` lists the targets that could not
    be found, ``originals`` maps each installed target to the object that
    was there before.
    """

    def __init__(self, tracer: Tracer, probes):
        self.tracer = tracer
        self.probes = probes
        self.absent: list[str] = []
        self.originals: dict[str, tuple] = {}

    def __enter__(self) -> "Instrumentation":
        try:
            for probe in self.probes:
                self._install(probe)
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def _install(self, probe: Probe) -> None:
        try:
            owner = importlib.import_module(probe.module)
        except ImportError:
            owner = None
        if owner is not None and probe.cls is not None:
            owner = getattr(owner, probe.cls, None)
        raw = None
        if owner is not None:
            # a method is wrapped where the class defines it, a function where it is looked up
            raw = vars(owner).get(probe.attr) if probe.cls else getattr(owner, probe.attr, None)
        if raw is None:
            self.absent.append(probe.target)
            return
        if isinstance(raw, classmethod):
            wrapped = classmethod(_wrap(raw.__func__, probe, self.tracer))
        else:
            wrapped = _wrap(raw, probe, self.tracer)
        self.originals[probe.target] = (owner, probe.attr, raw)
        setattr(owner, probe.attr, wrapped)

    def restore(self) -> None:
        for owner, attr, raw in self.originals.values():
            setattr(owner, attr, raw)
        self.originals.clear()


def _total(stats, name):
    s = stats.get(name)
    return s.total_s if s else 0.0


def _calls(stats, name):
    s = stats.get(name)
    return s.calls if s else 0


def _us_mean(stats, name):
    s = stats.get(name)
    return 1e6 * s.total_s / s.calls if s and s.calls else 0.0


def _us_pct(stats, name, q):
    s = stats.get(name)
    return 1e6 * float(np.percentile(s.durations, q)) if s and s.calls else 0.0


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(stats: dict) -> dict:
    """Per-layer metrics of one traced pass as name -> (value, unit).

    A metric whose spans never ran (the layer is not on this workload, or
    its target is absent) reads 0.
    """
    g = functools.partial
    total, calls, us_mean, us_pct = (g(f, stats) for f in (_total, _calls, _us_mean, _us_pct))

    def work(name, which="work_a"):
        s = stats.get(name)
        return getattr(s, which) if s else 0.0

    m = {
        "cli.generate_s": (total("cli.generate"), "s"),
        "cli.train.fprc_s": (total("cli.train.fprc"), "s"),
        "cli.train.fuzzy-linear_s": (total("cli.train.fuzzy-linear"), "s"),
        "cli.train.esn_s": (total("cli.train.esn"), "s"),
        "cli.evaluate_s": (sum((s.total_s for n, s in stats.items()
                                if n.startswith("cli.evaluate")), 0.0), "s"),
        "cli.simulate_s": (total("cli.simulate"), "s"),
        "config.load_s": (total("config.load"), "s"),
        "signals.render_s": (total("signals.render"), "s"),
        "plant.actuator_step.calls": (calls("plant.actuator_step"), "count"),
        "plant.actuator_step.us_mean": (us_mean("plant.actuator_step"), "us"),
        "plant.reservoir_step.calls": (calls("plant.reservoir_step"), "count"),
        "plant.reservoir_step.us_mean": (us_mean("plant.reservoir_step"), "us"),
        "datasets.generate_s": (total("datasets.generate"), "s"),
        "datasets.save_csv_s": (total("datasets.save_csv"), "s"),
        "datasets.load_csv_s": (total("datasets.load_csv"), "s"),
        "datasets.load_csv.calls": (calls("datasets.load_csv"), "count"),
        "datasets.csv_rows_per_s": (_ratio(work("datasets.save_csv") + work("datasets.load_csv"),
                                           total("datasets.save_csv")
                                           + total("datasets.load_csv")), "1/s"),
        "fprc.features_s": (total("fprc.features"), "s"),
        "fprc.evaluate_s": (total("fprc.evaluate"), "s"),
        "fprc.replay_us_per_step": (1e6 * _ratio(total("fprc.evaluate"),
                                                 work("fprc.evaluate")), "us"),
        "fprc.step.calls": (calls("fprc.step"), "count"),
        "fprc.step.us_p50": (us_pct("fprc.step", 50), "us"),
        "fprc.step.us_p99": (us_pct("fprc.step", 99), "us"),
        "fuzzy.fcm.calls": (calls("fuzzy.fcm"), "count"),
        "fuzzy.fcm_s": (total("fuzzy.fcm"), "s"),
        "fuzzy.readout_s": (total("fuzzy.readout"), "s"),
        "fuzzy.infer.calls": (calls("fuzzy.infer"), "count"),
        "fuzzy.infer.rows_per_call": (_ratio(work("fuzzy.infer"), calls("fuzzy.infer")),
                                      "rows"),
        "fuzzy.infer_s": (total("fuzzy.infer"), "s"),
        "training.kfold_s": (total("training.kfold"), "s"),
        "training.folds": (work("training.kfold"), "count"),
        "training.ridge.calls": (calls("training.ridge"), "count"),
        "training.ridge_s": (total("training.ridge"), "s"),
        "esn.collect_states_s": (total("esn.collect_states"), "s"),
        "esn.evaluate_s": (total("esn.evaluate"), "s"),
        "esn.replay_us_per_step": (1e6 * _ratio(total("esn.evaluate"),
                                                work("esn.evaluate")), "us"),
        "esn.update.calls": (calls("esn.update"), "count"),
        "esn.update.us_mean": (us_mean("esn.update"), "us"),
        "esn.step.us_p50": (us_pct("esn.step", 50), "us"),
        "esn.step.us_p99": (us_pct("esn.step", 99), "us"),
        "esn.matvec_gb_per_s_computed": (1e-9 * _ratio(work("esn.update"),
                                                       total("esn.update")), "GB/s"),
    }
    for method in ("fprc", "fprc_pd", "pd", "esn_pd"):
        name = f"control.run.{method}"
        m[f"{name}_s"] = (total(name), "s")
        m[f"control.tick_us.{method}"] = (1e6 * _ratio(total(name), work(name)), "us")
    m["control.runlog_csv_s"] = (total("control.runlog_csv"), "s")
    m["control.runlog_csv.rows"] = (work("control.runlog_csv"), "count")
    m["control.clamp_steps"] = (sum(s.work_b for n, s in stats.items()
                                    if n.startswith("control.run.")), "count")
    return {k: (int(v) if unit == "count" else v, unit) for k, (v, unit) in m.items()}
