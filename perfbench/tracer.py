"""In-memory span tracer that wraps mpcx's module-level functions from outside.

``Tracer.install`` replaces every function defined in the traced modules by
a wrapper that records a span (name, start, end, parent span, trial id).
Each wrapper is bound under every name that refers to the original, in
every ``mpcx`` module namespace and in the package namespace, so calls made
from one module into another (``mpcx.cli.greedy_ls``) and calls inside one
module (``mpcx.extract.subtract_path``) are both seen.  ``uninstall``
restores the originals.  Nothing under ``src/`` is modified.

A few wrappers also record counts at the same boundary (LS sizes, LAP
sizes, file bytes, grid bytes, commit counts); they are kept per trial.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

TRACED_MODULES = ("sounder", "scenario", "beamspace", "extract", "assoc",
                  "fileio", "cli")

SETUP_TRIAL = -1  # trial id of spans recorded during set-up
ROOT = "bench.trial"  # span the benchmark opens around each traced trial


def _file_size(arg) -> int:
    if isinstance(arg, (str, os.PathLike)) and os.path.isfile(arg):
        return os.path.getsize(arg)
    return 0


def _probe_ls(tracer, idx, args, result):
    tracer.count_max("ls.max_paths", len(args[1]))


def _probe_assign(tracer, idx, args, result):
    n, m = args[0].shape
    tracer.count_max("lap_size", n + m if n and m else 0)


def _probe_greedy_ls(tracer, idx, args, result):
    _, trace = result
    tracer.count_add("commits", len(trace.residual_power))
    tracer.count_add("ls.dropped", trace.dropped_duplicates)


def _probe_subtract(tracer, idx, args, result):
    # computed traffic of one rank-1 update: read and write the whole grid
    tracer.count_add("subtract.bytes", 2 * args[0].nbytes)


def _probe_transform(tracer, idx, args, result):
    tracer.count_max("grid.bytes", result.values.nbytes)


def _probe_file(tracer, idx, args, result):
    # a read file has its size before the call, a written one after it
    if args:
        tracer.span_bytes[idx] = _file_size(args[0])


PROBES = {
    "extract.ls_amplitudes": _probe_ls,
    "extract.greedy_ls": _probe_greedy_ls,
    "assoc.assign": _probe_assign,
    "beamspace.subtract_path": _probe_subtract,
    "beamspace.beamspace_transform": _probe_transform,
}


def fileio_kind(label: str) -> str | None:
    "'read' or 'write' for the public fileio entry points, else None."
    if not label.startswith("fileio."):
        return None
    fn = label.split(".", 1)[1]
    if fn.startswith("save_"):
        return "write"
    if fn.startswith(("load_", "parse_")):
        return "read"
    return None


class Tracer:
    "Span recorder; spans live in flat arrays until ``write_csv``."

    def __init__(self):
        self.labels: list[str] = []
        self._label_ids: dict[str, int] = {}
        self.label = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.trial = array("q")
        self.span_bytes: dict[int, int] = {}
        self.counters: dict[tuple[int, str], float] = defaultdict(float)
        self.recording = False
        self.trial_id = SETUP_TRIAL
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    # -- span bookkeeping ---------------------------------------------------

    def _label_id(self, label: str) -> int:
        lid = self._label_ids.get(label)
        if lid is None:
            lid = self._label_ids[label] = len(self.labels)
            self.labels.append(label)
        return lid

    def open(self, label_id: int) -> int:
        idx = len(self.start)
        self.label.append(label_id)
        self.parent.append(self._stack[-1])
        self.trial.append(self.trial_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def count_add(self, key: str, value: float) -> None:
        self.counters[(self.trial_id, key)] += value

    def count_max(self, key: str, value: float) -> None:
        slot = (self.trial_id, key)
        self.counters[slot] = max(self.counters[slot], value)

    def run_trial(self, trial_id: int, fn):
        "Call ``fn()`` under a root span; ``SETUP_TRIAL`` marks set-up work."
        self.trial_id = trial_id
        self.recording = True
        idx = self.open(self._label_id(ROOT))
        try:
            return fn()
        finally:
            self.close(idx)
            self.recording = False

    # -- patching -----------------------------------------------------------

    def _wrap(self, label: str, fn):
        tracer = self
        label_id = self._label_id(label)
        probe = _probe_file if fileio_kind(label) else PROBES.get(label)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            idx = tracer.open(label_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if probe is not None:
                probe(tracer, idx, args, result)
            return result

        return wrapper

    def install(self) -> None:
        "Wrap every function defined in the traced modules, wherever it is bound."
        package = sys.modules["mpcx"]
        modules = [sys.modules[f"mpcx.{name}"] for name in TRACED_MODULES]
        wrappers = {}
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[1]
            for name, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    wrappers[obj] = self._wrap(f"{short}.{name}", obj)
        namespaces = [package] + [m for n, m in sys.modules.items()
                                  if n.startswith("mpcx.")]
        for ns in namespaces:
            for name, obj in list(vars(ns).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patches.append((ns, name, obj))
                    setattr(ns, name, wrappers[obj])

    def uninstall(self) -> None:
        for ns, name, original in reversed(self._patches):
            setattr(ns, name, original)
        self._patches.clear()

    # -- output -------------------------------------------------------------

    def write_csv(self, path) -> None:
        "Spans as CSV: id, name, start_s, end_s, parent id (-1 none), trial id."
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,name,start_s,end_s,parent,trial\n")
            for i in range(len(self.start)):
                fh.write(f"{i},{self.labels[self.label[i]]},{self.start[i]!r},"
                         f"{self.end[i]!r},{self.parent[i]},{self.trial[i]}\n")


# -- per-layer summary -------------------------------------------------------

STAGES = ("scenario", "synth", "extract", "associate", "report")


def span_table(tracer: Tracer, trials: list[int]) -> dict[str, dict[str, float]]:
    """Calls, seconds and self seconds per span name, per trial of ``trials``.

    Self time is a span's duration minus the durations of its direct
    children (spans nest strictly, so children never overlap).  The root
    span's self time is the part of the trial wall no wrapped call covers.
    """
    n = len(tracer.start)
    if n == 0 or not trials:
        return {}
    label = np.frombuffer(tracer.label, dtype=np.int32)
    parent = np.frombuffer(tracer.parent, dtype=np.int64)
    dur = np.frombuffer(tracer.end) - np.frombuffer(tracer.start)
    nested = parent >= 0
    covered = np.bincount(parent[nested], weights=dur[nested], minlength=n)
    own = dur - covered
    keep = np.isin(np.frombuffer(tracer.trial, dtype=np.int64), trials)
    k = len(tracer.labels)
    calls = np.bincount(label[keep], minlength=k)
    total = np.bincount(label[keep], weights=dur[keep], minlength=k)
    selfs = np.bincount(label[keep], weights=own[keep], minlength=k)
    t = len(trials)
    return {name: {"calls": calls[i] / t, "s": total[i] / t, "self_s": selfs[i] / t}
            for i, name in enumerate(tracer.labels) if calls[i]}


def _fileio_totals(tracer: Tracer, trials: list[int]) -> dict[str, float]:
    "Seconds and bytes of outermost fileio reads and writes, per trial."
    out = {"read.s": 0.0, "read.bytes": 0.0, "write.s": 0.0, "write.bytes": 0.0}
    kinds = [fileio_kind(name) for name in tracer.labels]
    wanted = set(trials)
    for i in range(len(tracer.start)):
        kind = kinds[tracer.label[i]]
        if kind is None or tracer.trial[i] not in wanted:
            continue
        p = tracer.parent[i]
        if p >= 0 and kinds[tracer.label[p]] is not None:
            continue  # nested inside another fileio call: counted there
        out[f"{kind}.s"] += tracer.end[i] - tracer.start[i]
        out[f"{kind}.bytes"] += tracer.span_bytes.get(i, 0)
    return {key: value / len(trials) for key, value in out.items()}


def _peak_picks_in_greedy_ls(tracer: Tracer, trials: list[int]) -> int:
    names = tracer.labels
    wanted = set(trials)
    picks = 0
    for i in range(len(tracer.start)):
        if (names[tracer.label[i]] in ("extract._argmax_peak", "extract.find_peak")
                and tracer.trial[i] in wanted and tracer.parent[i] >= 0
                and names[tracer.label[tracer.parent[i]]] == "extract.greedy_ls"):
            picks += 1
    return picks


def per_layer_metrics(tracer: Tracer, trials: list[int],
                      overhead_frac: float) -> dict[str, tuple[float, str]]:
    """The benchmark's per-layer metrics as name -> (value, unit).

    Counts and seconds are means per traced trial.  A layer whose function
    no longer exists reads zero; its time then shows in its caller's self
    time.
    """
    table = span_table(tracer, trials)

    def get(name, field):
        return float(table.get(name, {}).get(field, 0.0))

    def counter(key, reduce):
        values = [tracer.counters.get((t, key), 0.0) for t in trials]
        return float(reduce(values)) if values else 0.0

    def mean(values):
        return sum(values) / len(values)

    m: dict[str, tuple[float, str]] = {}
    m["beamspace.subtract_path.calls"] = (get("beamspace.subtract_path", "calls"), "count")
    m["beamspace.subtract_path.s"] = (get("beamspace.subtract_path", "s"), "s")
    m["beamspace.subtract_path.bytes"] = (counter("subtract.bytes", mean), "B")
    m["beamspace.grid_mb"] = (counter("grid.bytes", max) / 1e6, "MB")
    m["beamspace.transform.calls"] = (get("beamspace.beamspace_transform", "calls"), "count")
    m["beamspace.transform.s"] = (get("beamspace.beamspace_transform", "s"), "s")
    m["beamspace.point.calls"] = (get("beamspace.beamspace_point", "calls"), "count")
    m["beamspace.point.s"] = (get("beamspace.beamspace_point", "s"), "s")
    m["extract.peak.calls"] = (get("extract.find_peak", "calls")
                               + get("extract._argmax_peak", "calls"), "count")
    m["extract.peak.s"] = (get("extract.find_peak", "s")
                           + get("extract._argmax_peak", "s"), "s")
    m["extract.greedy_ls.self_s"] = (get("extract.greedy_ls", "self_s"), "s")
    m["extract.sage_refine.s"] = (get("extract.sage_refine", "s"), "s")
    m["extract.sage_refine.self_s"] = (get("extract.sage_refine", "self_s"), "s")
    m["extract.ls.calls"] = (get("extract.ls_amplitudes", "calls"), "count")
    m["extract.ls.s"] = (get("extract.ls_amplitudes", "s")
                         + get("extract.ls_condition", "s"), "s")
    m["extract.ls_condition.s"] = (get("extract.ls_condition", "s"), "s")
    m["extract.ls.max_paths"] = (counter("ls.max_paths", max), "count")
    m["extract.ls.dropped"] = (counter("ls.dropped", mean), "count")
    picks = _peak_picks_in_greedy_ls(tracer, trials)
    commits = counter("commits", sum)
    m["extract.commit_ratio"] = (commits / picks if picks else 0.0, "ratio")
    m["sounder.synthesize_response.calls"] = (get("sounder.synthesize_response", "calls"), "count")
    m["sounder.synthesize_response.s"] = (get("sounder.synthesize_response", "s"), "s")
    m["assoc.associate.s"] = (get("assoc.associate", "s"), "s")
    m["assoc.assign.s"] = (get("assoc.assign", "s"), "s")
    m["assoc.pairwise_cost.calls"] = (get("assoc.pairwise_cost", "calls"), "count")
    m["assoc.lap_size"] = (counter("lap_size", max), "count")
    io = _fileio_totals(tracer, trials)
    m["fileio.write.s"] = (io["write.s"], "s")
    m["fileio.write.bytes"] = (io["write.bytes"], "B")
    m["fileio.read.s"] = (io["read.s"], "s")
    m["fileio.read.bytes"] = (io["read.bytes"], "B")
    for stage in STAGES:
        m[f"cli.{stage}.s"] = (get(f"cli.cmd_{stage}", "s"), "s")
        m[f"cli.{stage}.self_s"] = (get(f"cli.cmd_{stage}", "self_s"), "s")
    # scenario generation is set-up work in some workloads: seconds per call
    setup_and_trials = span_table(tracer, [SETUP_TRIAL] + list(trials))
    gen = setup_and_trials.get("scenario.generate_scenario")
    m["scenario.generate_scenario.s"] = (gen["s"] / gen["calls"] if gen else 0.0, "s")
    m["trial.unattributed_s"] = (get(ROOT, "self_s"), "s")
    m["trace_overhead_frac"] = (overhead_frac, "frac")
    return m
