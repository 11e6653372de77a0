"""Timing and counting shims around rankatlas's public functions.

A shim replaces a function at the module attribute its caller looks up
(``rankatlas.certify.rank_drop_search`` is the name ``certify`` calls, not
``rankatlas.pencil.rank_drop_search``).  Each call of a span shim records
a span (id, name, start, end, parent) in memory; a counting shim only
bumps a counter.  Nothing under ``src/`` is modified: ``Tracer.uninstall``
puts every original function back.

Self time is a span's duration minus the part of it that its child spans
cover.  Spans opened in worker threads (``run_experiment`` with
``threads > 1``) with nothing open in their own thread take the span that
is open in the main thread as parent, so the pool's self time is what the
workers' spans leave uncovered.
"""

from __future__ import annotations

import itertools
import json
import sys
import threading
import time
from collections import defaultdict

SEARCH_PATHS = ("square", "two_param", "multistart")


def search_path(Y) -> str:
    """The solver path ``rank_drop_search`` dispatches to for pencil Y."""
    u, n, m = Y.d1, Y.d2, Y.d3
    if u == n:
        return "square"
    if m == 3 and u <= 2 * n:
        return "two_param"
    return "multistart"


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (id, name, start, end, parent)
        self.counts: dict[str, int] = defaultdict(int)
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack: list[int] = self._stack()
        self._patches: list[tuple] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self.counts[name] += amount

    def _patch(self, module: str, attr: str, make) -> None:
        mod = sys.modules[module]
        original = getattr(mod, attr)
        self._patches.append((mod, attr, original))
        setattr(mod, attr, make(original))

    def span(self, module: str, attr: str, name, on_result=None) -> None:
        """Wrap ``module.attr`` in a span.  ``name`` is a string or a
        function of the call's arguments; ``on_result(tracer, result)``
        turns the result into counters."""

        def make(fn):
            def shim(*args, **kwargs):
                label = name if isinstance(name, str) else name(*args, **kwargs)
                stack = self._stack()
                if stack:
                    parent = stack[-1]
                elif self._main_stack and stack is not self._main_stack:
                    parent = self._main_stack[-1]
                else:
                    parent = None
                sid = next(self._ids)
                stack.append(sid)
                start = time.perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = time.perf_counter()
                    stack.pop()
                    self.spans.append((sid, label, start, end, parent))
                if on_result is not None:
                    on_result(self, result)
                return result
            return shim

        self._patch(module, attr, make)

    def counter(self, module: str, attr: str, name: str) -> None:
        def make(fn):
            def shim(*args, **kwargs):
                self.add(name)
                return fn(*args, **kwargs)
            return shim

        self._patch(module, attr, make)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    def self_ms(self) -> dict[str, float]:
        """Total self time per span name, in ms."""
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for _, _, start, end, parent in self.spans:
            if parent is not None:
                children[parent].append((start, end))
        totals: dict[str, float] = defaultdict(float)
        for sid, name, start, end, _ in self.spans:
            covered, reach = 0.0, start
            for c0, c1 in sorted(children.get(sid, ())):
                c0, c1 = max(c0, reach), min(c1, end)
                if c1 > c0:
                    covered += c1 - c0
                    reach = c1
            totals[name] += (end - start - covered) * 1000.0
        return totals

    def calls(self) -> dict[str, int]:
        out: dict[str, int] = defaultdict(int)
        for _, name, _, _, _ in self.spans:
            out[name] += 1
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for sid, name, start, end, parent in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": start,
                                     "end": end, "parent": parent}) + "\n")


def install(tracer: Tracer) -> None:
    """Put the shims on every layer boundary the per-layer metrics use."""

    def margin_info(tr, info):
        tr.add("pencil.afcr_margin_info.restarts", info.restarts)

    def search_points(tr, points):
        tr.add("pencil.rank_drop_search.points", len(points))

    def table_entries(tr, table):
        tr.add("hopf.bounds_entries_built", len(table.entries))

    def search_name(Y, *args, **kwargs):
        return "pencil.rank_drop_search." + search_path(Y)

    tracer.span("rankatlas.experiments", "run_experiment",
                "experiments.run_experiment")
    tracer.span("rankatlas.experiments", "sample_gaussian_tensor",
                "experiments.sample_gaussian_tensor")
    tracer.span("rankatlas.experiments", "als_fit", "experiments.als_fit")
    tracer.span("rankatlas.experiments", "certify", "certify.certify")
    tracer.span("rankatlas.experiments", "classify", "classify.classify")
    tracer.span("rankatlas.certify", "certify", "certify.certify")
    tracer.span("rankatlas.certify", "decompose", "certify.decompose")
    tracer.span("rankatlas.certify", "sigma", "certify.sigma")
    tracer.span("rankatlas.certify", "afcr_margin_info",
                "pencil.afcr_margin_info", margin_info)
    tracer.span("rankatlas.certify", "rank_drop_search", search_name,
                search_points)
    tracer.counter("rankatlas.certify", "contract_pencil",
                   "pencil.contract_pencil.calls")
    tracer.counter("rankatlas.pencil", "contract_pencil",
                   "pencil.contract_pencil.calls")
    tracer.span("rankatlas.pencil", "is_afcr", "pencil.is_afcr")
    tracer.span("rankatlas.bilinear", "nonsingularity_margin",
                "bilinear.nonsingularity_margin")
    tracer.span("rankatlas.cli", "run", "cli.run")
    tracer.span("rankatlas.cli", "classify", "classify.classify")
    tracer.span("rankatlas.cli", "build_bounds_table",
                "hopf.build_bounds_table", table_entries)
    tracer.span("rankatlas.classify", "build_bounds_table",
                "hopf.build_bounds_table", table_entries)


def layer_metrics(tracer: Tracer, circ_misses: int,
                  overhead_frac: float) -> dict[str, float]:
    """The per-layer metrics of one traced pass."""
    ms = tracer.self_ms()
    calls = tracer.calls()
    counts = tracer.counts
    certifies = calls["certify.certify"]
    searches = sum(calls["pencil.rank_drop_search." + p] for p in SEARCH_PATHS)
    points = counts["pencil.rank_drop_search.points"]
    out = {
        "certify.sigma.ms": ms["certify.sigma"],
        "certify.certify.self_ms": ms["certify.certify"],
        "certify.decompose.ms": ms["certify.decompose"],
        "certify.search_rounds_per_certify":
            searches / certifies if certifies else 0.0,
        "pencil.afcr_margin_info.ms": ms["pencil.afcr_margin_info"],
        "pencil.afcr_margin_info.calls": calls["pencil.afcr_margin_info"],
        "pencil.afcr_margin_info.restarts":
            counts["pencil.afcr_margin_info.restarts"],
    }
    for path in SEARCH_PATHS:
        key = "pencil.rank_drop_search." + path
        out[key + ".ms"] = ms[key]
        out[key + ".calls"] = calls[key]
    out.update({
        "pencil.rank_drop_search.points": points,
        "pencil.points_per_search": points / searches if searches else 0.0,
        "pencil.contract_pencil.calls": counts["pencil.contract_pencil.calls"],
        "pencil.is_afcr.ms": ms["pencil.is_afcr"],
        "bilinear.nonsingularity_margin.ms":
            ms["bilinear.nonsingularity_margin"],
        "bilinear.nonsingularity_margin.calls":
            calls["bilinear.nonsingularity_margin"],
        "hopf.build_bounds_table.ms": ms["hopf.build_bounds_table"],
        "hopf.build_bounds_table.calls": calls["hopf.build_bounds_table"],
        "hopf.bounds_entries_built": counts["hopf.bounds_entries_built"],
        "hopf.circ.misses": circ_misses,
        "classify.classify.self_ms": ms["classify.classify"],
        "experiments.sample_gaussian_tensor.ms":
            ms["experiments.sample_gaussian_tensor"],
        "experiments.als_fit.ms": ms["experiments.als_fit"],
        "experiments.als_fit.calls": calls["experiments.als_fit"],
        "experiments.run_experiment.self_ms":
            ms["experiments.run_experiment"],
        "cli.run.self_ms": ms["cli.run"],
        "trace.overhead_frac": overhead_frac,
    })
    return out
