"""Span tracer for the traced benchmark run.

`Tracer.install` wraps the public functions of each tancat module listed in
`LAYERS` (and every `criterion_N` of `tancat.selftest`), rebinding every
alias: module globals that imported a function by name, and class attributes
that share one boundary (`__add__`/`__radd__`/`__sub__`).  A boundary that is
missing, or an alias left unbound, raises `TraceError`, so a rename breaks the
benchmark instead of reporting zeros.

Each call records a span (name, start, end, parent span, case id) in flat
arrays kept in memory; `write_spans` writes them out at the end.  Self time
is a span's duration minus its child spans and minus the argument
bookkeeping the tracer does inside it.  Cache-traffic ratios are measured
from the arguments at the boundary:

  poly.compose_maps.selection_frac   inner map is a coordinate selection:
                                     every component is one variable with
                                     coefficient 1
  flatspace.Prolongation.repeat_frac (shape, V) seen before in the pass
  wterm.eval_model.repeat_frac       (term, identity of the model) seen before
  tangent.structure_nat.repeat_frac  (phi, n) seen before
"""

from __future__ import annotations

import gc
import gzip
import importlib
import re
import sys
import time
from array import array
from collections import Counter

LAYERS = {
    "poly": ["Polynomial.mul", "Polynomial.add", "Polynomial.substitute",
             "compose_maps", "differential"],
    "weil": ["compose_morphisms", "tensor_morphisms"],
    "wterm": ["eval_weil", "eval_model", "terms_equal"],
    "tangent": ["weil_prolong", "structure_nat", "certify_linear_pullback"],
    "flatspace": ["Prolongation", "tensor_action", "split_left", "join_at",
                  "whiskered_generator"],
    "algebroid": ["involution_from_bracket", "check_structure_equations",
                  "check_involution_axioms", "section_bracket"],
    "nerve": ["check_functoriality", "check_cartesian_p", "lie_tangent",
              "check_lie_table"],
    "bundle": ["euler_vector_field", "check_universality"],
}

# Boundaries that live on a class: the class and every attribute they cover.
CLASS_BOUNDARIES = {
    "Polynomial.mul": ("Polynomial", ("__mul__", "__rmul__")),
    "Polynomial.add": ("Polynomial", ("__add__", "__radd__", "__sub__")),
    "Polynomial.substitute": ("Polynomial", ("substitute",)),
    "Prolongation": ("Prolongation", ("__init__",)),
}

CRITERIA = range(1, 10)

RATIOS = {
    "poly.compose_maps": "selection_frac",
    "flatspace.Prolongation": "repeat_frac",
    "wterm.eval_model": "repeat_frac",
    "tangent.structure_nat": "repeat_frac",
}


def unit(name: str) -> str:
    if name.endswith(".calls") or name == "report.failing_verdicts":
        return "count"
    if name.endswith("_frac"):
        return "ratio"
    if name == "report.witness_chars":
        return "chars"
    return "s"


class TraceError(RuntimeError):
    pass


_VARIABLE = re.compile(r"x\d+")


def _is_selection(inner) -> bool:
    """True when every component of the map is one variable, coefficient 1."""
    return all(c.degree() == 1 and _VARIABLE.fullmatch(str(c))
               for c in inner.components)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.span_name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.case = array("i")
        self.book = array("d")
        self.stack = [-1]
        self.case_id = -1
        self.ratio_hits: Counter = Counter()
        self.seen: dict[str, set] = {name: set() for name in RATIOS}
        self.models: dict[int, object] = {}
        self.failing_verdicts = 0
        self.witness_chars = 0
        self._patches: list[tuple[object, str, object]] = []
        self._originals: list = []

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        """Wrap every boundary; raise TraceError if one is missing or escapes.

        On failure every wrapper already installed is removed again.
        """
        modules = {m: importlib.import_module(f"tancat.{m}")
                   for m in list(LAYERS) + ["report", "selftest", "cli"]}
        try:
            for module, boundaries in LAYERS.items():
                for name in boundaries:
                    self._wrap_boundary(modules, module, name)
            selftest = modules["selftest"]
            for n in CRITERIA:
                found = [a for a in vars(selftest) if a.startswith(f"criterion_{n}_")]
                if len(found) != 1:
                    raise TraceError(f"expected one tancat.selftest.criterion_{n}_*, "
                                     f"found {found}")
                self._wrap_function(selftest, found[0], f"selftest.AC{n}")
            self._wrap_report_add(modules["report"])
            self._check_no_alias_left()
        except TraceError:
            self.uninstall()
            raise

    def _wrap_boundary(self, modules, module: str, name: str) -> None:
        owner = modules[module]
        label = f"{module}.{name}"
        if name not in CLASS_BOUNDARIES:
            self._wrap_function(owner, name, label)
            return
        cls_name, attrs = CLASS_BOUNDARIES[name]
        cls = getattr(owner, cls_name, None)
        if cls is None:
            raise TraceError(f"boundary tancat.{module}.{cls_name} is missing")
        wrappers: dict[int, object] = {}
        for attr in attrs:
            fn = vars(cls).get(attr)
            if fn is None:
                raise TraceError(f"boundary tancat.{module}.{cls_name}.{attr} is missing")
            if id(fn) not in wrappers:
                wrappers[id(fn)] = self._wrapper(label, fn)
                self._originals.append(fn)
            self._patches.append((cls, attr, fn))
            setattr(cls, attr, wrappers[id(fn)])

    def _wrap_function(self, owner, attr: str, label: str) -> None:
        fn = getattr(owner, attr, None)
        if fn is None:
            raise TraceError(f"boundary {owner.__name__}.{attr} is missing")
        wrapper = self._wrapper(label, fn)
        self._originals.append(fn)
        loaded = [m for name, m in sys.modules.items()
                  if name == "tancat" or name.startswith("tancat.")]
        for module in loaded:
            for alias, value in list(vars(module).items()):
                if value is fn:
                    self._patches.append((module, alias, fn))
                    setattr(module, alias, wrapper)

    def _wrap_report_add(self, report) -> None:
        fn = report.CheckReport.add
        tracer = self

        def add(report_self, name, passed, witness=None):
            if not passed:
                tracer.failing_verdicts += 1
                tracer.witness_chars += len(witness or "")
            return fn(report_self, name, passed, witness)

        self._originals.append(fn)
        self._patches.append((report.CheckReport, "add", fn))
        report.CheckReport.add = add

    def _check_no_alias_left(self) -> None:
        """Every reference to a wrapped original must be a wrapper's own cell."""
        own = {id(self._originals), *(id(p) for p in self._patches)}
        for fn in self._originals:
            for ref in gc.get_referrers(fn):
                if id(ref) in own or type(ref).__name__ == "cell":
                    continue
                if isinstance(ref, (dict, list, tuple)):
                    raise TraceError(f"{fn.__qualname__} is still reachable "
                                     "through an alias the tracer did not rebind")

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._patches):
            setattr(owner, attr, fn)
        self._patches.clear()
        self._originals.clear()

    # -- recording -------------------------------------------------------------

    def _wrapper(self, label: str, fn):
        name_id = len(self.names)
        self.names.append(label)
        observe = self._observer(label)
        stack, clock = self.stack, time.perf_counter
        span_name, start, end = self.span_name, self.start, self.end
        parent, case, book = self.parent, self.case, self.book
        tracer = self

        def traced(*args, **kwargs):
            idx = len(start)
            span_name.append(name_id)
            parent.append(stack[-1])
            case.append(tracer.case_id)
            end.append(0.0)
            book.append(0.0)
            stack.append(idx)
            t0 = clock()
            start.append(t0)
            if observe is not None:
                observe(args)
                book[idx] = clock() - t0
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        traced.__name__, traced.__qualname__ = fn.__name__, fn.__qualname__
        return traced

    def _observer(self, label: str):
        if label not in RATIOS:
            return None
        seen, hits = self.seen[label], self.ratio_hits
        if label == "poly.compose_maps":
            def observe(args):
                hits[label] += _is_selection(args[1])
            return observe
        if label == "flatspace.Prolongation":
            def key(args):
                return args[1], args[2]
        elif label == "wterm.eval_model":
            models = self.models

            def key(args):
                models[id(args[1])] = args[1]   # kept alive, so its id stays unique
                return args[0], id(args[1])
        else:
            def key(args):
                return args[0], args[1]

        def observe(args):
            k = key(args)
            if k in seen:
                hits[label] += 1
            else:
                seen.add(k)
        return observe

    # -- results ------------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics from the recorded spans (trace.overhead_s excluded)."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        calls: Counter = Counter()
        self_s: Counter = Counter()
        total_s: Counter = Counter()
        for i in range(n):
            label = self.names[self.span_name[i]]
            duration = self.end[i] - self.start[i]
            calls[label] += 1
            total_s[label] += duration
            self_s[label] += duration - child[i] - self.book[i]
        out: dict[str, float] = {}
        for module, boundaries in LAYERS.items():
            for name in boundaries:
                label = f"{module}.{name}"
                out[f"{label}.calls"] = calls[label]
                out[f"{label}.self_s"] = self_s[label]
                if label in RATIOS:
                    out[f"{label}.{RATIOS[label]}"] = (
                        self.ratio_hits[label] / calls[label] if calls[label] else 0.0)
        out["report.failing_verdicts"] = self.failing_verdicts
        out["report.witness_chars"] = self.witness_chars
        for n_ in CRITERIA:
            out[f"selftest.AC{n_}_s"] = total_s[f"selftest.AC{n_}"]
        return out

    def write_spans(self, path) -> int:
        """Write every span as a tab-separated line; returns the span count."""
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("span\tname\tstart\tend\tparent\tcase\n")
            t0 = self.start[0] if len(self.start) else 0.0
            for i in range(len(self.start)):
                out.write(f"{i}\t{self.names[self.span_name[i]]}\t"
                          f"{self.start[i] - t0:.9f}\t{self.end[i] - t0:.9f}\t"
                          f"{self.parent[i]}\t{self.case[i]}\n")
        return len(self.start)
