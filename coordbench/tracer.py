"""Tracing for the per-layer run: spans around the package's public functions.

:func:`install` replaces each public function of a layer (``TRACED``)
with a wrapper that records a span, in every ``coordest`` module namespace
that holds it (``from .estimators import estimate_query`` copies the name
into ``cli``).  The traced run then calls ``coordest.cli.main`` exactly as
the untraced run does: spans nest as the program really calls its
functions, and no work is added beside it.

A span records its trace id (the operation), name, parent span, start and
end in process CPU time, and a work count.  A span's self time is its
duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import inspect
import sys
from time import process_time

import numpy as np

# layer name -> the functions that make it up, as (module, attribute);
# "InstanceSet.vector" is a method, patched on the class.  The CLI hashes
# item seeds one item at a time through hash_seed; the layer also covers the
# batch seeds_for_items, so it keeps measuring item hashing if the samplers
# move to it.
TRACED = {
    "cli.ingest": [("cli", "ingest")],
    "model.seeds_for_items": [("model", "hash_seed"), ("model", "seeds_for_items")],
    "model.seeds_for_salts": [("model", "seeds_for_salts")],
    "model.instance_vector": [("model", "InstanceSet.vector")],
    "samplers.sample_instances": [("samplers", "sample_instances")],
    "samplers.write_samples": [("samplers", "write_samples")],
    "samplers.read_samples": [("samplers", "read_samples")],
    "samplers.bottomk_sample": [("samplers", "bottomk_sample")],
    "functions.lower_bound": [("functions", "lower_bound")],
    "functions.lower_bound_from_vector": [("functions", "lower_bound_from_vector")],
    "functions.lb_function": [("functions", "lb_function")],
    "estimators.j_estimate": [("estimators", "j_estimate")],
    "estimators.ht_estimate": [("estimators", "ht_estimate")],
    "estimators.estimate_query": [("estimators", "estimate_query")],
    "estimators.exact_query": [("estimators", "exact_query")],
    "estimators.bottomk_estimate": [("estimators", "bottomk_estimate")],
    "estimators.mc_query_estimates": [("estimators", "mc_query_estimates")],
    "estimators.j_piece_values": [("estimators", "j_piece_values")],
    "estimators.v_optimal_estimates": [("estimators", "v_optimal_estimates")],
    "hull.lower_hull": [("hull", "lower_hull")],
    "hull.integrate_square": [("hull", "integrate_square")],
    "analysis.competitiveness_ratio": [("analysis", "competitiveness_ratio")],
    "analysis.check_estimable": [("analysis", "check_estimable")],
    "analysis.check_bounded": [("analysis", "check_bounded")],
    "analysis.check_finite_variance": [("analysis", "check_finite_variance")],
    "analysis.curve_table": [("analysis", "curve_table")],
}


def _n_items(a: dict) -> int:
    """Items a query call covers: its ``item_ids``, or all of its input."""
    if a["item_ids"] is not None:
        return len(a["item_ids"])
    return a["data"].n_items if a.get("data") is not None else len(a["samples"])


# work count of one call of a batch function, from its bound arguments and
# its result; any other call counts 1
COUNTS = {
    "cli.ingest": lambda a, res: res.n_items,
    "model.seeds_for_items": lambda a, res: np.size(res),
    "model.seeds_for_salts": lambda a, res: np.size(res),
    "samplers.sample_instances": lambda a, res: len(res),
    "samplers.write_samples": lambda a, res: len(a["outcomes"]),
    "samplers.read_samples": lambda a, res: len(res),
    "samplers.bottomk_sample": lambda a, res: len(dict(a["instance_values"])),
    "functions.lower_bound_from_vector": lambda a, res: np.size(res),
    "estimators.estimate_query": lambda a, res: _n_items(a),
    "estimators.exact_query": lambda a, res: _n_items(a),
    "estimators.mc_query_estimates": lambda a, res: len(a["item_ids"]) * np.size(a["salts"]),
    "hull.lower_hull": lambda a, res: len(res.vertices),
    "analysis.curve_table": lambda a, res: len(res),
}


class Tracer:
    """Spans in memory, as ``[trace, name, parent, start, end, count]``
    lists; written out once, when the run ends."""

    FIELDS = ("trace", "name", "parent", "start", "end", "count")

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.trace_id = ""

    def record(self, name: str, start: float, end: float, count: int) -> None:
        """A span measured elsewhere, under the current one."""
        parent = self._stack[-1] if self._stack else None
        self.spans.append([self.trace_id, name, parent, start, end, count])

    def call(self, name: str, fn, args, kwargs, count=None):
        """``fn(*args, **kwargs)`` inside a span; ``count(args, kwargs,
        result)`` gives its work count.  When a function calls itself (the
        Jaccard queries do, once per sum), the inner calls count the work
        and the outer one counts none."""
        parent = self._stack[-1] if self._stack else None
        span = [self.trace_id, name, parent, 0.0, 0.0, 0]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[3] = process_time()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[4] = process_time()
            self._stack.pop()
        if span[5] is None:
            span[5] = 0
        elif count is None:
            span[5] = 1
        else:
            span[5] = int(count(args, kwargs, result))
        if parent is not None and self.spans[parent][1] == name:
            self.spans[parent][5] = None
        return result

    def self_times(self) -> list[float]:
        """Duration of each span minus the time its child spans cover."""
        own = [s[4] - s[3] for s in self.spans]
        for s in self.spans:
            if s[2] is not None:
                own[s[2]] -= s[4] - s[3]
        return own

    def totals(self) -> dict[str, list[float]]:
        """``name -> [self seconds, count]`` summed over every span."""
        out: dict[str, list[float]] = {}
        for s, own in zip(self.spans, self.self_times()):
            acc = out.setdefault(s[1], [0.0, 0])
            acc[0] += own
            acc[1] += s[5]
        return out


def _wrap(tracer: Tracer, name: str, fn):
    count = None
    if name in COUNTS:
        signature = inspect.signature(fn)

        def count(args, kwargs, result):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            return COUNTS[name](bound.arguments, result)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        return tracer.call(name, fn, args, kwargs, count)

    return traced


def install(tracer: Tracer) -> None:
    """Wrap every function of ``TRACED`` wherever a ``coordest`` module
    namespace holds it."""
    modules = [m for key, m in list(sys.modules.items())
               if m is not None and (key == "coordest" or key.startswith("coordest."))]
    for name, targets in TRACED.items():
        for modname, attr in targets:
            owner = sys.modules[f"coordest.{modname}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                setattr(cls, meth, _wrap(tracer, name, getattr(cls, meth)))
                continue
            original = getattr(owner, attr)
            traced = _wrap(tracer, name, original)
            for module in modules:
                if getattr(module, attr, None) is original:
                    setattr(module, attr, traced)
