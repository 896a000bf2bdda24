"""Outside-in span recorder for the benchmark's traced run.

It wraps public ``sparsevar`` functions by rebinding every ``sparsevar.*``
module attribute that holds the original function object, so copies made
by ``from x import y`` (``cv.lasso_path``, ``forecasting.select_lambda``,
``granger.standardize``) are traced as well. Nothing under ``src/`` is
edited. Spans are kept in memory and written out when the run ends.

A span is (name, start, end, parent). Its self time is its duration minus
the durations of its children; calls are sequential, so children never
overlap. The ``lasso_path`` generator is timed only inside ``next()``, so
the caller's work between penalties is charged to the caller.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable


class Recorder:
    """Spans of the current process, plus counters taken from return values."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or None]
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        top = self._stack.pop()
        if top != idx:
            raise RuntimeError(f"span {self.spans[idx][0]} closed out of order")

    def reset(self) -> None:
        if self._stack:
            raise RuntimeError("reset with open spans")
        self.spans.clear()
        self.counts.clear()


def write_jsonl(path: str, spans: list[list], tag: dict) -> None:
    """Append spans as JSON lines; ``parent`` is the index of the parent span."""
    with open(path, "a", encoding="utf-8") as fh:
        for i, (name, start, end, parent) in enumerate(spans):
            fh.write(json.dumps({**tag, "id": i, "name": name, "start": start,
                                 "end": end, "parent": parent}) + "\n")


def self_times(spans: list[list]) -> list[float]:
    """Per-span duration minus the summed durations of its direct children."""
    child = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent is not None:
            child[parent] += end - start
    return [end - start - child[i] for i, (_, start, end, _) in enumerate(spans)]


def nesting_violations(spans: list[list]) -> int:
    """Spans that start before or end after their parent span."""
    return sum(1 for _, start, end, parent in spans if parent is not None
               and not spans[parent][1] <= start <= end <= spans[parent][2])


@dataclass(frozen=True)
class Target:
    """One public function to wrap and the metrics it feeds.

    ``time`` names the metric holding the summed inclusive duration of its
    spans, ``calls`` the metric counting calls, ``on_result`` (or
    ``on_item`` for a generator) adds the ``counts`` metrics, read from what
    it returns.
    """

    module: str
    func: str
    time: str | None = None
    calls: str | None = None
    on_result: Callable | None = None
    on_item: Callable | None = None
    counts: tuple[str, ...] = ()  # metrics that on_result / on_item fill

    @property
    def layer(self) -> str:
        return self.module.rsplit(".", 1)[-1]

    @property
    def span_name(self) -> str:
        return f"{self.layer}.{self.func}"


def _on_path_item(counts, args, item):
    _, _, converged, sweeps = item
    counts["lasso.path_points"] += 1
    counts["lasso.path_sweeps"] += sweeps
    counts["lasso.path_coord_visits"] += sweeps * args[1].shape[0]
    counts["lasso.nonconverged"] += not converged


def _on_fit(counts, model):
    counts["lasso.fit_sweeps"] += model.sweeps
    counts["lasso.nonconverged"] += not model.converged


def _on_fgls(counts, model):
    counts["lasso.nonconverged"] += not model.converged


def _on_select(counts, result):
    counts["cv.excluded"] += len(result[1].excluded)


def _on_exercise(counts, fs):
    counts["forecasting.origins"] += len(fs.origins)


def _on_network(counts, net):
    counts["granger.failures"] += len(net.failures)


TARGETS = (
    Target("sparsevar.cli", "main"),
    Target("sparsevar.panel", "read_panel_csv", time="panel.read_csv_s"),
    Target("sparsevar.panel", "standardize", time="panel.standardize_s",
           calls="panel.standardize_calls"),
    Target("sparsevar.panel", "lag_embed", time="panel.lag_embed_s",
           calls="panel.lag_embed_calls"),
    Target("sparsevar.lasso", "lasso_path", time="lasso.path_s", calls="lasso.path_calls",
           on_item=_on_path_item,
           counts=("lasso.path_points", "lasso.path_sweeps", "lasso.path_coord_visits",
                   "lasso.nonconverged")),
    Target("sparsevar.lasso", "fit_lasso_var", time="lasso.fit_s", calls="lasso.fit_calls",
           on_result=_on_fit, counts=("lasso.fit_sweeps", "lasso.nonconverged")),
    Target("sparsevar.lasso", "fit_fgls_lasso_var", time="lasso.fgls_fit_s",
           on_result=_on_fgls, counts=("lasso.nonconverged",)),
    Target("sparsevar.lasso", "fit_panel_var"),
    Target("sparsevar.cv", "select_lambda", time="cv.select_s", calls="cv.select_calls",
           on_result=_on_select, counts=("cv.excluded",)),
    Target("sparsevar.forecasting", "recursive_exercise", time="forecasting.exercise_s",
           on_result=_on_exercise, counts=("forecasting.origins",)),
    Target("sparsevar.forecasting", "iterate_forecast", time="forecasting.iterate_s"),
    Target("sparsevar.forecasting", "write_forecast_csv", time="forecasting.csv_s"),
    Target("sparsevar.forecasting", "read_forecast_csv", time="forecasting.csv_s"),
    Target("sparsevar.evaluation", "evaluate_forecasts", time="evaluation.evaluate_s"),
    Target("sparsevar.evaluation", "epa_test", calls="evaluation.epa_calls"),
    Target("sparsevar.granger", "granger_network", on_result=_on_network,
           counts=("granger.failures",)),
    Target("sparsevar.granger", "pds_granger", time="granger.pair_s", calls="granger.pairs"),
)

# layers whose summed span self time is reported as <layer>.self_s
SELF_LAYERS = ("cv", "forecasting", "granger", "cli")
# counts of failed work, recorded in result.json beside the failure ratio
# rather than reported as per-layer metrics (they are 0 on working code)
FAILURE_COUNTS = ("lasso.nonconverged", "cv.excluded", "granger.failures")


def _wrap(rec: Recorder, t: Target, orig):
    name = t.span_name

    if t.on_item is not None:
        def traced_items(gen, args):
            while True:
                idx = rec.begin(name)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    rec.end(idx)
                t.on_item(rec.counts, args, item)
                yield item

        @functools.wraps(orig)
        def gen_wrapper(*args, **kwargs):
            if t.calls:
                rec.counts[t.calls] += 1
            return traced_items(orig(*args, **kwargs), args)

        return gen_wrapper

    @functools.wraps(orig)
    def wrapper(*args, **kwargs):
        if t.calls:
            rec.counts[t.calls] += 1
        idx = rec.begin(name)
        try:
            result = orig(*args, **kwargs)
        finally:
            rec.end(idx)
        if t.on_result is not None:
            t.on_result(rec.counts, result)
        return result

    return wrapper


class Tracer:
    """Installs and removes the wrappers; records which targets are absent."""

    def __init__(self, rec: Recorder, targets: tuple[Target, ...] = TARGETS):
        self.rec = rec
        self.present: list[Target] = []
        self.absent: list[str] = []
        self._patches: list[tuple[object, str, object]] = []
        for t in targets:
            try:
                mod = importlib.import_module(t.module)
            except ImportError:
                mod = None
            if mod is not None and callable(getattr(mod, t.func, None)):
                self.present.append(t)
            else:
                self.absent.append(f"{t.module}.{t.func}")

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "sparsevar" or n.startswith("sparsevar."))]
        for t in self.present:
            orig = getattr(importlib.import_module(t.module), t.func)
            wrapper = _wrap(self.rec, t, orig)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, attr, wrapper)
                        self._patches.append((mod, attr, orig))

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._patches):
            setattr(mod, attr, orig)
        self._patches.clear()

    def metric_names(self) -> list[str]:
        """Per-layer metric names; FAILURE_COUNTS are left out."""
        return [name for name in self._names() if name not in FAILURE_COUNTS]

    def _names(self) -> list[str]:
        names: list[str] = []
        for t in self.present:
            names += [m for m in (t.time, t.calls) if m]
            names += t.counts
        layers = {t.layer for t in self.present}
        names += [f"{layer}.self_s" for layer in SELF_LAYERS if layer in layers]
        return sorted(set(names))

    def pass_metrics(self) -> dict[str, float]:
        """Metrics and failure counts of the spans and counts recorded since
        the last reset."""
        spans = self.rec.spans
        out = {name: 0.0 if name.endswith("_s") else 0 for name in self._names()}
        by_span = {t.span_name: t.time for t in self.present if t.time}
        selfs = self_times(spans)
        for (name, start, end, _), own in zip(spans, selfs):
            metric = by_span.get(name)
            if metric is not None:
                out[metric] += end - start
            key = f"{name.split('.', 1)[0]}.self_s"
            if key in out:
                out[key] += own
        for name, value in self.rec.counts.items():
            if name in out:
                out[name] += value
        return out


def median_metrics(per_pass: list[dict[str, float]]) -> dict[str, float]:
    keys = per_pass[0].keys() if per_pass else ()
    return {k: statistics.median(p[k] for p in per_pass) for k in keys}
