"""Outside-in trace of edgesep's layers.

The tracer wraps public functions of the ``edgesep`` modules from the
benchmark's side; nothing inside the program changes.  ``from .graphs import
components`` copies the binding into every importing module, so a function is
replaced in each ``edgesep.*`` namespace that binds it, and calls from
``partition`` and ``tree_or_sep`` alike pass through the same wrapper.

Each wrapped call records a span (name, start, end, parent span, job) in
memory.  A layer's self time is its span time minus the time of the wrapped
spans it caused.  Deterministic counters (calls and the work counts below)
are kept apart from wall times, per job and per pass, so two passes over the
same inputs can be compared bit for bit.
"""

from __future__ import annotations

import importlib
import json
import sys
from time import perf_counter


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _size(x) -> int:
    return len(x) if hasattr(x, "__len__") else 0


def _verts_scanned(args, kwargs, result):
    within = _arg(args, kwargs, 1, "within")
    return {"verts_scanned": args[0].n if within is None else _size(within)}


def _edges_inside(g, within) -> int:
    inside = set(within)
    return sum(1 for v in inside for u in g.adj[v] if u in inside) // 2


def _edge_tree_or_separator(args, kwargs, result):
    """Tree outcomes, and the c_sep a separator outcome actually needed.

    achieved * r / ((h-1) * m_work) is the factor the size bound
    |F| <= c_sep * (h-1) * m_work / r was met with.
    """
    out = {"trees": 1 if result.is_tree() else 0}
    h = len(_arg(args, kwargs, 1, "targets"))
    if not result.is_tree() and h >= 2:
        g = args[0]
        within = _arg(args, kwargs, 3, "within")
        m_work = g.m if within is None else _edges_inside(g, within)
        r = float(_arg(args, kwargs, 2, "r"))
        if m_work:
            out["c_sep_achieved"] = len(result.separator) * r / ((h - 1) * m_work)
    return out


def _minimalize(args, kwargs, result):
    return {"kept": len(result),
            "offered": len(set(_arg(args, kwargs, 1, "f_edges")))}


def _nodes(args, kwargs, result):
    return {"bags_copied": len(result.bags)}


#: work counted after each call, by qualified function name
COUNTERS = {
    "graphs.components": _verts_scanned,
    "graphs.induced_edge_ids": _verts_scanned,
    "tree_or_sep.edge_tree_or_separator": _edge_tree_or_separator,
    "tree_or_sep.minimalize_edge_separator": _minimalize,
    "partition.partition_line_graph": lambda a, k, r: {
        "parts": len(r.partition.parts) if hasattr(r, "partition") else 0},
    "treedecomp.glue": _nodes,
    "treedecomp.attach_vertex": _nodes,
    "treedecomp.product_blowup": lambda a, k, r: {
        "bag_elems": sum(len(b) for b in r.bags)},
    "separator.separator_from_partition": lambda a, k, r: {"f_edges": len(r.edges)},
    "formats.parse_graph": lambda a, k, r: {"bytes": len(_arg(a, k, 0, "text"))},
}

#: counters aggregated by maximum rather than by sum
MAXIMA = frozenset({"c_sep_achieved"})

#: ratios reported from two summed counters
RATIOS = {"tree_share": ("trees", "calls"), "kept_ratio": ("kept", "offered")}


def _add(counts: dict, metric: str, value) -> None:
    if metric.rsplit(".", 1)[1] in MAXIMA:
        counts[metric] = max(counts.get(metric, value), value)
    else:
        counts[metric] = counts.get(metric, 0) + value


class Tracer:
    """Spans and counters for a set of ``module.function`` names."""

    def __init__(self, names):
        self.names = sorted(set(names))
        self.missing: list[str] = []     # names that no longer exist
        self.broken: set[str] = set()    # counters that could not be taken
        self.spans: list = []
        self.passes: list[dict] = []     # per pass: {"counts": {job: {..}}, "self_s": {..}}
        self.job = None
        self._stack: list = []
        self._undo: list = []

    # ------------------------------------------------------------ install

    def install(self) -> None:
        for qual in self.names:
            mod_name, fn_name = qual.rsplit(".", 1)
            try:
                module = importlib.import_module(f"edgesep.{mod_name}")
            except ImportError:
                self.missing.append(qual)
                continue
            original = getattr(module, fn_name, None)
            if not callable(original):
                self.missing.append(qual)
                continue
            wrapper = self._wrap(qual, original)
            for mod in list(sys.modules.values()):
                name = getattr(mod, "__name__", "")
                if name != "edgesep" and not name.startswith("edgesep."):
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._undo.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._undo):
            setattr(mod, attr, original)
        self._undo.clear()

    def begin_pass(self) -> None:
        self.passes.append({"counts": {}, "self_s": {}})

    def count(self, metric: str, value) -> None:
        """Add to a counter of the current job in the current pass."""
        _add(self.passes[-1]["counts"].setdefault(self.job, {}), metric, value)

    def _wrap(self, qual, fn):
        counter = COUNTERS.get(qual)
        stack = self._stack
        spans = self.spans

        def wrapper(*args, **kwargs):
            span_id = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            frame = [span_id, 0.0]          # own span id, time of wrapped children
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                self_time = self.passes[-1]["self_s"]
                self_time[qual] = self_time.get(qual, 0.0) + (end - start - frame[1])
                spans[span_id] = (qual, start, end,
                                  None if parent is None else parent[0], self.job)
            self.count(qual + ".calls", 1)
            if counter is not None:
                try:
                    for quantity, value in counter(args, kwargs, result).items():
                        self.count(f"{qual}.{quantity}", value)
                except (AttributeError, TypeError, IndexError, KeyError):
                    self.broken.add(qual)
            if parent is not None:
                # counting is bookkeeping: keep it out of the caller's self time
                parent[1] += perf_counter() - start
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # ------------------------------------------------------------ results

    def pass_totals(self, index: int) -> dict:
        """Counters of one pass summed over jobs, plus its self times."""
        totals: dict = {}
        for counts in self.passes[index]["counts"].values():
            for metric, value in counts.items():
                _add(totals, metric, value)
        for qual, seconds in self.passes[index]["self_s"].items():
            totals[qual + ".self_s"] = seconds
        return totals

    def value(self, totals: dict, metric: str):
        """A per-layer metric from one pass's totals; 0 when it never ran."""
        qual, quantity = metric.rsplit(".", 1)
        if quantity in RATIOS:
            num, den = (totals.get(f"{qual}.{q}", 0) for q in RATIOS[quantity])
            return num / den if den else 0.0
        return totals.get(metric, 0)

    def nondeterministic_jobs(self) -> list:
        """Jobs whose counters differ between traced passes."""
        first = self.passes[0]["counts"]
        return sorted({job for p in self.passes[1:]
                       for job in set(first) | set(p["counts"])
                       if first.get(job) != p["counts"].get(job)})

    def write_spans(self, path) -> None:
        """One JSON array per line: [id, name, start, end, parent id, job]."""
        with open(path, "w") as fh:
            for i, span in enumerate(self.spans):
                if span is not None:
                    fh.write(json.dumps([i, *span]) + "\n")
