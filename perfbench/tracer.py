"""Per-layer tracing from outside the library.

``Tracer.install()`` replaces each listed public function with a wrapper in
every ``jelonek`` module namespace that binds it, so module-level imports
(``from .poly import resultant``), calls inside the defining module and lazy
in-function imports all go through the wrapper.  ``uninstall()`` restores
the originals.  The library itself is never edited.

Each call becomes one span: (case id, function, start, end, parent span).
Spans are kept in flat arrays in memory and written out by ``write()``.
Self time of a span is its duration minus the durations of its direct
wrapped children; ``total_s`` only counts outermost calls of a function,
so recursion is not counted twice.
"""

from __future__ import annotations

import gzip
import importlib
import sys
from array import array
from time import perf_counter

# (module, function) pairs whose spans are recorded, grouped by layer
TRACED = {
    "parsing": ["parse_polynomial"],
    "core": ["sparse_jelonek_2", "check_dominant", "preprocess_translate",
             "semi_origin_components", "edge_transform"],
    "polytope": ["newton_polygon", "minkowski_sum", "test_number_of_roots"],
    "multiplicity": ["ms_resultant", "ms_fulton", "fulton_multiplicity",
                     "discriminant_curve", "emptiness_test"],
    "realroots": ["count_real_solutions", "count_real_solutions_param", "isolate_real_roots"],
    "poly": ["resultant", "gcd_multivar", "exact_div", "pseudo_division", "content_wrt",
             "squarefree_part_multivar"],
    "extension": ["with_dynamic_splitting", "ext_gcd_multivar", "split_minpoly"],
}

SPAN_NAMES = [f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns]

# counters read from arguments and return values
COUNT_NAMES = [
    "poly.resultant.in_degree",
    "poly.resultant.out_terms",
    "polytope.test_number_of_roots.true",
    "polytope.test_number_of_roots.false",
    "polytope.test_number_of_roots.none",
    "multiplicity.emptiness_test.nonempty",
    "multiplicity.emptiness_test.empty",
    "multiplicity.emptiness_test.undetermined",
]


def _count_resultant(counts, args, kwargs, result):
    p, q, var = args
    counts["poly.resultant.in_degree"] += max(p.degree(var), 0) + max(q.degree(var), 0)
    counts["poly.resultant.out_terms"] += len(result.terms)


def _count_mv_check(counts, args, kwargs, result):
    key = {True: "true", False: "false", None: "none"}[result]
    counts[f"polytope.test_number_of_roots.{key}"] += 1


_VERDICT_KEYS = {"confirmed-nonempty": "nonempty", "confirmed-empty": "empty",
                 "undetermined": "undetermined"}


def _count_verdict(counts, args, kwargs, result):
    counts[f"multiplicity.emptiness_test.{_VERDICT_KEYS[result]}"] += 1


COUNTERS = {
    "poly.resultant": _count_resultant,
    "polytope.test_number_of_roots": _count_mv_check,
    "multiplicity.emptiness_test": _count_verdict,
}


class Tracer:
    """Span recorder; one instance per traced pass."""

    def __init__(self):
        self.name_id = {name: i for i, name in enumerate(SPAN_NAMES)}
        # one entry per span
        self.sp_name = array("i")
        self.sp_case = array("i")
        self.sp_parent = array("l")
        self.sp_start = array("d")
        self.sp_end = array("d")
        self.case_id = -1
        self._stack: list[int] = []      # open span indices
        self._child: list[float] = []    # time of direct children, per open span
        self._active: list[int] = [0] * len(SPAN_NAMES)  # open spans per function
        n = len(SPAN_NAMES)
        self.calls = [0] * n
        self.total = [0.0] * n
        self.self_time = [0.0] * n
        self.counts = dict.fromkeys(COUNT_NAMES, 0)
        self._saved: list[tuple[object, str, object]] = []

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, name: str, fn):
        nid = self.name_id[name]
        counter = COUNTERS.get(name)
        stack, child, active = self._stack, self._child, self._active
        sp_name, sp_case, sp_parent = self.sp_name, self.sp_case, self.sp_parent
        sp_start, sp_end = self.sp_start, self.sp_end

        def traced(*args, **kwargs):
            idx = len(sp_start)
            start = perf_counter()
            sp_start.append(start)
            sp_name.append(nid)
            sp_case.append(self.case_id)
            sp_parent.append(stack[-1] if stack else -1)
            sp_end.append(0.0)
            stack.append(idx)
            child.append(0.0)
            active[nid] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx, nid, start, perf_counter())
            if counter is not None:
                counter(self.counts, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def _close(self, idx: int, nid: int, start: float, end: float) -> None:
        self.sp_end[idx] = end
        self._stack.pop()
        inner = self._child.pop()
        self._active[nid] -= 1
        dur = end - start
        if self._child:
            self._child[-1] += dur
        self.calls[nid] += 1
        self.self_time[nid] += dur - inner
        if not self._active[nid]:
            self.total[nid] += dur

    def close_open_spans(self, end: float) -> None:
        """After a time-out: end any span the interrupt left open."""
        while self._stack:
            idx = self._stack[-1]
            self._close(idx, self.sp_name[idx], self.sp_start[idx], end)

    def install(self) -> None:
        """Wrap every listed function in every jelonek namespace binding it."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "jelonek" or key.startswith("jelonek."))]
        for mod, fns in TRACED.items():
            home = importlib.import_module(f"jelonek.{mod}")
            for fn in fns:
                orig = getattr(home, fn)
                wrapper = self._wrap(f"{mod}.{fn}", orig)
                for m in modules:
                    for attr, val in list(vars(m).items()):
                        if val is orig:
                            self._saved.append((m, attr, orig))
                            setattr(m, attr, wrapper)

    def uninstall(self) -> None:
        for m, attr, orig in reversed(self._saved):
            setattr(m, attr, orig)
        self._saved.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- results ------------------------------------------------------------

    def bindings(self) -> list[str]:
        """The wrapped namespace attributes, as 'module.attr'."""
        return sorted(f"{m.__name__}.{attr}" for m, attr, _ in self._saved)

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-function calls/total_s/self_s plus the counters."""
        out: dict[str, tuple[float, str]] = {}
        for i, name in enumerate(SPAN_NAMES):
            out[f"{name}.calls"] = (self.calls[i], "count")
            out[f"{name}.total_s"] = (self.total[i], "s")
            out[f"{name}.self_s"] = (self.self_time[i], "s")
        for key in COUNT_NAMES:
            out[key] = (self.counts[key], "count")
        mv_calls = self.calls[self.name_id["polytope.test_number_of_roots"]]
        share = self.counts["polytope.test_number_of_roots.true"] / mv_calls if mv_calls else 0.0
        out["polytope.mv_skip_share"] = (share, "ratio")
        return out

    def per_case_summary(self, case_names: list[str]) -> dict:
        """Per case and function: calls, total_s (outermost calls) and self_s."""
        n = len(self.sp_start)
        dur = [self.sp_end[i] - self.sp_start[i] for i in range(n)]
        inner = [0.0] * n
        for i in range(n):
            if self.sp_parent[i] >= 0:
                inner[self.sp_parent[i]] += dur[i]
        out: dict = {}
        for i in range(n):
            c = self.sp_case[i]
            name = SPAN_NAMES[self.sp_name[i]]
            row = out.setdefault(case_names[c] if c >= 0 else "-", {}).setdefault(
                name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["self_s"] += dur[i] - inner[i]
            p = self.sp_parent[i]
            while p >= 0 and self.sp_name[p] != self.sp_name[i]:
                p = self.sp_parent[p]
            if p < 0:
                row["total_s"] += dur[i]
        return out

    def write(self, path, case_names: list[str]) -> None:
        """Write spans as gzipped TSV: span, case, function, start, end, parent."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("span\tcase\tfunction\tstart_s\tend_s\tparent\n")
            for i in range(len(self.sp_start)):
                c = self.sp_case[i]
                fh.write(f"{i}\t{case_names[c] if c >= 0 else '-'}\t{SPAN_NAMES[self.sp_name[i]]}\t"
                         f"{self.sp_start[i]:.9f}\t{self.sp_end[i]:.9f}\t{self.sp_parent[i]}\n")
