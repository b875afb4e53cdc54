"""Span tracing of threshold_lab from outside the package.

``Tracer.install`` replaces every public function of the traced modules by a
wrapper that records a span (name, start, end, parent) in memory.  The
wrapper goes wherever the function can be looked up: the defining module,
every package module that imported it by name (``threebody`` calls
``subcriticality_margin`` through its own global, not through ``twobody``),
module-level tables such as ``cli.RUNNERS``, and the package namespace.  A
function wrapped in only one place would be undercounted without any sign.
"""

from __future__ import annotations

import functools
import sys
import time

PACKAGE = "threshold_lab"
LAYERS = ("cli", "model", "twobody", "faddeev_ops", "ims", "threebody")

# methods wrapped because a per-layer metric counts them: the committed forms,
# and the partition evaluation that cli.run_ims_audit makes on the whole mesh
EXTRA_METHODS = (("threebody", "_Assembler", "add"), ("ims", "IMSPartition", "evaluate"))


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list = []          # (name index, start, end, parent span index)
        self._stack: list[int] = []
        self._undo: list = []

    def _wrap(self, name: str, fn):
        index = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            slot = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(slot)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[slot] = (index, start, end, parent)

        return traced

    def _set(self, owner, key, value):
        if isinstance(owner, dict):
            self._undo.append((owner, key, owner[key]))
            owner[key] = value
        else:
            self._undo.append((owner, key, getattr(owner, key)))
            setattr(owner, key, value)

    def install(self):
        modules = {name: sys.modules[f"{PACKAGE}.{name}"] for name in LAYERS}
        wrappers = {}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if (attr.startswith("_") or isinstance(obj, type) or not callable(obj)
                        or getattr(obj, "__module__", None) != mod.__name__):
                    continue
                wrappers[id(obj)] = self._wrap(f"{layer}.{attr}", obj)
        lookups = [m for n, m in sys.modules.items()
                   if n == PACKAGE or n.startswith(PACKAGE + ".")]
        for mod in lookups:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers:
                    self._set(mod, attr, wrappers[id(obj)])
                elif isinstance(obj, dict) and not attr.startswith("__"):
                    for key, value in list(obj.items()):
                        if id(value) in wrappers:
                            self._set(obj, key, wrappers[id(value)])
        for layer, cls_name, method in EXTRA_METHODS:
            cls = getattr(modules[layer], cls_name)
            self._set(cls, method,
                      self._wrap(f"{layer}.{cls_name}.{method}", getattr(cls, method)))

    def uninstall(self):
        while self._undo:
            owner, key, value = self._undo.pop()
            if isinstance(owner, dict):
                owner[key] = value
            else:
                setattr(owner, key, value)

    def take(self):
        """Spans recorded since the last call, as (name, start, end, parent)."""
        out = [(self.names[i], s, e, p) for i, s, e, p in self.spans]
        self.spans.clear()
        return out


def _covered(spans, names):
    """Time in spans whose name is in ``names`` and that no such span encloses."""
    total = 0.0
    for name, start, end, parent in spans:
        if name not in names:
            continue
        p = parent
        while p >= 0 and spans[p][0] not in names:
            p = spans[p][3]
        if p < 0:
            total += end - start
    return total


def layer_metrics(spans, wall: float, output_bytes: int) -> dict:
    """Per-layer metrics of one round from its spans."""
    calls: dict[str, int] = {}
    for name, *_ in spans:
        calls[name] = calls.get(name, 0) + 1

    def time_in(*names):
        return _covered(spans, set(names))

    record_point_self = 0.0
    for name, start, end, parent in spans:
        if name == "threebody.record_point":
            record_point_self += end - start
    for name, start, end, parent in spans:
        if name in ("threebody.tail_masses", "threebody.solve_ground"):
            p = parent
            while p >= 0 and spans[p][0] not in ("threebody.record_point",
                                                 "threebody.tail_masses",
                                                 "threebody.solve_ground"):
                p = spans[p][3]
            if p >= 0 and spans[p][0] == "threebody.record_point":
                record_point_self -= end - start

    solves = calls.get("threebody.solve_ground", 0)
    top_level = sum(end - start for _, start, end, parent in spans if parent < 0)
    ims_names = {name for name, *_ in spans if name.startswith("ims.")}
    return {
        "threebody.tail_masses_s": time_in("threebody.tail_masses"),
        "threebody.tail_masses_calls": calls.get("threebody.tail_masses", 0),
        "threebody.record_point_self_s": record_point_self,
        "threebody.critical_coupling_3body_s": time_in("threebody.critical_coupling_3body"),
        "threebody.grow_basis_s": time_in("threebody.grow_basis"),
        "threebody.solve_ground_calls": solves,
        "threebody.solve_ground_s": time_in("threebody.solve_ground"),
        "threebody.element_block_calls": calls.get("threebody.element_block", 0),
        "threebody.element_block_s": time_in("threebody.element_block"),
        "threebody.forms_per_solve":
            calls.get("threebody._Assembler.add", 0) / solves if solves else 0.0,
        "model.fit_gaussian_terms_s": time_in("threebody.fit_gaussian_terms"),
        "twobody.sweep_two_body_s": time_in("twobody.sweep_two_body"),
        "twobody.binding_energy_calls": calls.get("twobody.twobody_binding_energy", 0),
        "twobody.bs_matrix_calls": calls.get("twobody.bs_matrix", 0),
        "twobody.bs_matrix_s": time_in("twobody.bs_matrix"),
        "twobody.oracle_s": time_in("twobody.oracle_critical_coupling",
                                    "twobody.oracle_binding_energy"),
        "twobody.critical_coupling_calls": calls.get("twobody.critical_coupling", 0),
        "faddeev_ops.fiber_norms_calls": calls.get("faddeev_ops.fiber_norms", 0),
        "faddeev_ops.fiber_norms_s": time_in("faddeev_ops.fiber_norms"),
        "ims.audit_s": _covered(spans, ims_names),
        "cli.write_s": time_in("cli.write_csv", "cli.write_json", "cli.write_plot_data"),
        "cli.output_bytes": output_bytes,
        "unattributed_s": wall - top_level,
    }


def unit_of(metric: str) -> str:
    if metric.endswith("_calls"):
        return "count"
    if metric.endswith("_bytes"):
        return "bytes"
    if metric.endswith("_per_solve"):
        return "ratio"
    return "s"
