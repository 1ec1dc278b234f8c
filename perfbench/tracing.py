"""Span tracing of hfpa's layers from outside the package.

``Tracer.install`` replaces every binding of each layer function in the
loaded ``hfpa`` modules with a wrapper, because modules import names
directly (``measure.simulate`` is ``pamodel.simulate``,
``biasctl.drive_for_pout`` is ``measure.drive_for_pout``). A wrapper opens a
span on entry and closes it on exit. Closed spans are folded into per-layer
totals at once, so memory stays bounded however many calls a fit makes;
only the first ``SPAN_CAP`` spans are kept whole for writing out.
"""
from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import Counter
from typing import Dict, List, Optional, Tuple

#: Layer name = ``<module>.<attribute path>`` inside the hfpa package.
LAYERS = (
    "signalgen.generate",
    "pamodel.simulate",
    "kernels.pa_pipeline",
    "measure.sweep_bias",
    "measure.drive_for_pout",
    "measure.simulate_cw",
    "measure.measure_imd",
    "calibrate.default_init",
    "calibrate.objective",
    "calibrate.fit",
    "biasctl.BiasController.process",
    "biasctl.classify_envelope",
    "biasctl.command_for_mode",
    "biasctl.predict_peak_envelope",
    "psusim.encode",
    "psusim.decode",
    "psusim.PsuSim.handle_wire",
)

#: Work counts taken from a layer's result: layer -> (count name, amount).
_COUNTS = {
    "signalgen.generate": ("signalgen.samples", lambda r: len(r)),
    "pamodel.simulate": ("pamodel.samples", lambda r: len(r[0])),
    "calibrate.fit": ("calibrate.fit.evaluations", lambda r: r.evaluations),
}

COUNT_NAMES = ("signalgen.samples", "pamodel.samples",
               "measure.simulate_cw_per_solve", "calibrate.fit.evaluations",
               "psusim.nacks")


SPAN_CAP = 20000   # spans kept whole; the rest only feed the totals


class Tracer:
    def __init__(self):
        self.op_id: Optional[int] = None
        self.active = True                   # False: wrappers only pass through
        self.calls: Counter = Counter()
        self.busy: Dict[str, float] = Counter()
        self.self_time: Dict[str, float] = Counter()
        self.edges: Counter = Counter()      # (parent layer, layer) -> calls
        self.counts: Counter = Counter()
        self.spans: List[Tuple] = []         # (id, parent, op, name, start, end)
        self.spans_dropped = 0
        self.absent: List[str] = []
        self._stack: List[list] = []         # [name, start, child time, id]
        self._next_id = 0
        self._restore: List[Tuple[object, str, object]] = []

    # --- wrappers ---------------------------------------------------------

    def _wrap(self, name: str, fn):
        count = _COUNTS.get(name)
        nack_id = (sys.modules["hfpa.psusim"].ID_NACK
                   if name == "psusim.PsuSim.handle_wire" else None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit()
            if count is not None:
                self.counts[count[0]] += count[1](result)
            elif nack_id is not None:   # a reply frame starts with its id
                self.counts["psusim.nacks"] += (
                    int.from_bytes(result[:4], "big") == nack_id)
            return result
        return wrapper

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if n == "hfpa" or n.startswith("hfpa.")]
        for name in LAYERS:
            module_name, *path = name.split(".")
            try:
                owner = importlib.import_module("hfpa." + module_name)
                for part in path[:-1]:
                    owner = getattr(owner, part)
                original = getattr(owner, path[-1])
            except (ImportError, AttributeError):
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, original)
            if len(path) > 1:   # a method: its one binding is on the class
                self._replace(owner, path[-1], original, wrapper)
                continue
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._replace(module, attr, original, wrapper)

    def _replace(self, owner, attr, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._restore.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # --- spans --------------------------------------------------------------

    def _enter(self, name: str) -> None:
        self._next_id += 1
        self._stack.append([name, time.perf_counter(), 0.0, self._next_id])

    def _exit(self) -> None:
        end = time.perf_counter()
        name, start, child, span_id = self._stack.pop()
        duration = end - start
        self.calls[name] += 1
        self.busy[name] += duration
        self.self_time[name] += duration - child
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[2] += duration
            self.edges[(parent[0], name)] += 1
        if len(self.spans) < SPAN_CAP:
            self.spans.append((span_id, parent[3] if parent else None,
                               self.op_id, name, start, end))
        else:
            self.spans_dropped += 1

    # --- results ------------------------------------------------------------

    def metrics(self) -> Dict[str, Tuple[float, str]]:
        """calls, busy_s and self_s per layer plus the work counts."""
        out = {}
        for name in LAYERS:
            out[f"{name}.calls"] = (self.calls[name], "count")
            out[f"{name}.busy_s"] = (self.busy[name], "s")
            out[f"{name}.self_s"] = (self.self_time[name], "s")
        solves = self.calls["measure.drive_for_pout"]
        per_solve = (self.edges[("measure.drive_for_pout", "measure.simulate_cw")]
                     / solves if solves else 0.0)
        for name in COUNT_NAMES:
            if name == "measure.simulate_cw_per_solve":
                out[name] = (per_solve, "calls/solve")
            else:
                out[name] = (self.counts[name], "count")
        return out

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, parent, op, name, start, end in self.spans:
                fh.write(json.dumps({"id": span_id, "parent": parent, "op": op,
                                     "name": name, "start": start,
                                     "end": end}) + "\n")
