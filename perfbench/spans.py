"""Span recorder for the traced run.

The benchmark times each layer from outside the program: `Tracer.install`
replaces every public function of the microagc modules at every module that
binds it (the import sites calls go through, e.g. `simcore.dw_step` and
`cli.dw_step`), plus the per-step methods in METHODS, with a timing wrapper.
`uninstall` puts the originals back, so untraced jobs run unwrapped code.

Per function the recorder keeps exact counts, total time and child time
(time covered by wrapped callees), so self time = total - child. It also keeps
full span records (name, start, end, parent span, job id) in memory, at most
SPAN_CAP per function and job so that per-step functions stay bounded, and
writes them out with `dump` when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import pkgutil
import time
from pathlib import Path

PACKAGE = "microagc"
METHODS = (("simcore", "ZohStepper", "step"), ("simcore", "TimeSeries", "to_csv"))
SKIP = {("cli", "main"), ("cli", "build_parser")}  # the job span covers these
SPAN_CAP = 20


def _observe_gain(values, args, result):
    residual = getattr(result, "care_residual", None)
    if residual is not None:
        values["care_residual_max"] = max(values.get("care_residual_max", 0.0), residual)


def _observe_run(values, args, result):
    time_axis = getattr(result, "time", None)
    if time_axis is not None:
        values["control_steps"] = values.get("control_steps", 0) + len(time_axis)


def _observe_csv(values, args, result):
    path = args[1] if len(args) > 1 else None
    if path is not None and os.path.exists(path):
        values["csv_bytes"] = values.get("csv_bytes", 0) + os.path.getsize(path)


def _observe_flag(values, args, result):
    if isinstance(result, tuple) and result and result[0]:
        values["flag_steps"] = values.get("flag_steps", 0) + 1


# Values read from arguments or results of a wrapped call, by function name.
OBSERVERS = {
    "lqr.lqr_gain": _observe_gain,
    "simcore.run_scenario": _observe_run,
    "simcore.to_csv": _observe_csv,
    "watermark.dw_step": _observe_flag,
}


def modules() -> dict[str, object]:
    """Every submodule of the package, imported, by short name."""
    pkg = importlib.import_module(PACKAGE)
    return {
        info.name: importlib.import_module(f"{PACKAGE}.{info.name}")
        for info in pkgutil.iter_modules(pkg.__path__)
    }


def call_sites() -> list[tuple[object, str, str, str]]:
    """(owner, attribute, function name, site name) for every wrapped binding.

    The function name says where the function is defined ("watermark.dw_step");
    the site name says which module's binding the call went through
    ("simcore.dw_step").
    """
    mods = modules()
    sites = []
    for short, mod in sorted(mods.items()):
        for attr, obj in sorted(vars(mod).items()):
            if attr.startswith("_") or (short, attr) in SKIP:
                continue
            if not inspect.isfunction(obj) or not obj.__module__.startswith(PACKAGE + "."):
                continue
            home = obj.__module__.rsplit(".", 1)[1]
            sites.append((mod, attr, f"{home}.{obj.__name__}", f"{short}.{attr}"))
    for short, cls_name, attr in METHODS:
        cls = getattr(mods.get(short), cls_name, None)
        if cls is not None and inspect.isfunction(vars(cls).get(attr)):
            sites.append((cls, attr, f"{short}.{attr}", f"{short}.{cls_name}.{attr}"))
    return sites


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {}       # name -> [calls, total_s, child_s]
        self.site_calls: dict[str, int] = {}
        self.values: dict[str, float] = {}
        self.spans: list[list] = []            # [name, start, end, parent, job]
        self._stack: list[list] = []           # [child_s, kept span index]
        self._job_counts: dict[str, int] = {}
        self._job: str | None = None
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> None:
        if self._saved:
            return
        for owner, attr, name, site in call_sites():
            original = vars(owner)[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, site))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def begin_job(self, job_id: str) -> None:
        self._job = job_id
        self._job_counts.clear()
        self._stack.append([0.0, len(self.spans)])
        self.spans.append(["job", time.perf_counter(), None, None, job_id])

    def end_job(self) -> None:
        frame = self._stack.pop()
        self.spans[frame[1]][2] = time.perf_counter()
        self._job = None

    def _wrap(self, fn, name: str, site: str):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        self.site_calls.setdefault(site, 0)
        site_calls, stack, spans = self.site_calls, self._stack, self.spans
        job_counts, values = self._job_counts, self.values
        observe = OBSERVERS.get(name)
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1][1] if stack else None
            seen = job_counts.get(name, 0)
            job_counts[name] = seen + 1
            kept = None
            t0 = clock()
            if seen < SPAN_CAP:
                kept = len(spans)
                spans.append([name, t0, None, parent, tracer._job])
            frame = [0.0, kept if kept is not None else parent]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                elapsed = t1 - t0
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += frame[0]
                site_calls[site] += 1
                if stack:
                    stack[-1][0] += elapsed
                if kept is not None:
                    spans[kept][2] = t1
            if observe is not None:
                observe(values, args, result)
            return result

        return traced

    def calls(self, name: str) -> int:
        return self.stats.get(name, [0])[0]

    def total_s(self, name: str) -> float:
        return self.stats.get(name, [0, 0.0])[1]

    def self_s(self, name: str) -> float:
        calls, total, child = self.stats.get(name, [0, 0.0, 0.0])
        return total - child

    def dump(self, path: Path) -> None:
        """Write stats and span records as JSON."""
        path.parent.mkdir(parents=True, exist_ok=True)
        data = {
            "stats": {k: {"calls": v[0], "total_s": v[1], "self_s": v[1] - v[2]}
                      for k, v in sorted(self.stats.items())},
            "site_calls": dict(sorted(self.site_calls.items())),
            "values": self.values,
            "span_fields": ["name", "start_s", "end_s", "parent", "job"],
            "spans": self.spans,
        }
        path.write_text(json.dumps(data), encoding="utf-8")
