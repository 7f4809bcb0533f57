"""Per-layer tracing from outside the package.

The traced run replaces each listed public function of a ``biortho`` module
with a wrapper that records calls, busy time and exceptions.  Wrappers are
installed on every module global bound to the original object, because
``from .numerics import gauss_laguerre`` gives each importing module its own
binding.  Evaluators returned by ``chgue_type_one``, ``w_alpha`` and
``xi_family`` are wrapped too, so the time spent in them lands on the
function that built them.

Self time is busy time minus the time spent in nested wrapped calls; a
layer's metrics are the sums over its functions.  Computed work counts are
derived from argument and array sizes, not measured.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import threading
import time
import warnings
from collections import Counter, defaultdict

import biortho
import numpy as np
from biortho.errors import NumericWarning

LAYERS: dict[str, tuple[str, ...]] = {
    "numerics": ("gauss_laguerre", "gauss_legendre", "hyp0f1", "laguerre", "elem_sym",
                 "solve", "integrate_nd"),
    "ensembles": ("build_kernel", "kernel_eval", "correlation", "pdf_eval",
                  "correlation_by_marginal"),
    "multipoly": ("type_one", "type_two", "xi_family"),
    "chgue": ("chgue_kernel", "chgue_type_one", "chgue_type_two", "kernel_sum_check",
              "rank_decomposition", "w_alpha", "confluent_weights"),
    "charpoly": ("sample_spectra", "avg_charpoly", "rho1_check", "kernel_from_ratio",
                 "residue_extract", "RatioOracle.build", "RatioOracle.average"),
    "cli": ("main",),
}
# span name -> class attribute it wraps
_METHODS = {"RatioOracle.build": "__init__", "RatioOracle.average": "average"}
_RETURNS_EVALUATOR = {"chgue.chgue_type_one", "chgue.w_alpha"}
_RETURNS_EVALUATORS = {"multipoly.xi_family"}

# computed work counts: metric name, unit
COMPUTED = (
    ("numerics.hyp0f1.points", "count"),
    ("numerics.gauss_laguerre.distinct_ratio", "ratio"),
    ("numerics.integrate_nd.points", "count"),
    ("charpoly.sample_spectra.samples", "count"),
    ("charpoly.RatioOracle.tensor_bytes", "bytes"),
    ("cli.main.rows_emitted", "count"),
)


def metric_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units: dict[str, str] = {}
    for layer, names in LAYERS.items():
        for name in names:
            units[f"{layer}.{name}.calls"] = "count"
            units[f"{layer}.{name}.self_s"] = "s"
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.self_s"] = "s"
        units[f"{layer}.errors"] = "count"
    units["charpoly.residue_extract.warnings"] = "count"
    units.update(COMPUTED)
    units["trace.overhead"] = "ratio"
    return units


class Tracer:
    """Installs the wrappers, accumulates per-span totals, and restores the
    original objects on :meth:`uninstall`."""

    def __init__(self):
        self.calls: Counter[str] = Counter()
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.errors: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.laguerre_keys: set[tuple] = set()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._undo: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def _stack(self) -> list[float]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _timed(self, span: str, layer: str, fn, args, kwargs, count: bool):
        stack = self._stack()
        stack.append(0.0)  # time spent in nested wrapped calls
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        except BaseException:
            with self._lock:
                self.errors[layer] += 1
            raise
        finally:
            busy = time.perf_counter() - t0
            nested = stack.pop()
            if stack:
                stack[-1] += busy
            with self._lock:
                self.self_s[span] += busy - nested
                if count:
                    self.calls[span] += 1

    def _evaluator(self, span: str, layer: str, fn):
        @functools.wraps(fn)
        def evaluator(*args, **kwargs):
            return self._timed(span, layer, fn, args, kwargs, count=False)

        return evaluator

    def _wrap(self, span: str, layer: str, fn, hook=None):
        params = list(inspect.signature(fn).parameters)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if span == "charpoly.residue_extract":
                out = self._count_warnings(span, layer, fn, args, kwargs)
            else:
                out = self._timed(span, layer, fn, args, kwargs, count=True)
            if hook:
                def arg(name):
                    i = params.index(name)
                    return args[i] if i < len(args) else kwargs[name]

                hook(arg)
            if span in _RETURNS_EVALUATOR:
                return self._evaluator(span, layer, out)
            if span in _RETURNS_EVALUATORS:
                return [self._evaluator(span, layer, f) for f in out]
            return out

        return wrapper

    def _count_warnings(self, span, layer, fn, args, kwargs):
        """Counts NumericWarnings raised inside, then passes every warning on
        to the caller's filters unchanged."""
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            out = self._timed(span, layer, fn, args, kwargs, count=True)
        with self._lock:
            self.counts["charpoly.residue_extract.warnings"] += sum(
                issubclass(w.category, NumericWarning) for w in caught)
        for w in caught:
            warnings.warn_explicit(w.message, w.category, w.filename, w.lineno, source=w.source)
        return out

    # -- computed work counts --------------------------------------------------

    def _hooks(self):
        """Work counters, keyed by span; each gets the call's arguments by name."""
        def add(name, value):
            with self._lock:
                self.counts[name] += int(value)

        def laguerre(arg):
            with self._lock:
                self.laguerre_keys.add((arg("n"), arg("alpha")))

        def integrate(arg):
            points = 1
            for rule in arg("rules"):
                points *= rule.n
            add("numerics.integrate_nd.points", points)

        def oracle(arg):
            me = arg("self")
            add("charpoly.RatioOracle.tensor_bytes", 8 * me.nodes.size ** me.model.n)

        return {
            "numerics.hyp0f1": lambda arg: add("numerics.hyp0f1.points", np.size(arg("z"))),
            "numerics.gauss_laguerre": laguerre,
            "numerics.integrate_nd": integrate,
            "charpoly.sample_spectra": lambda arg: add("charpoly.sample_spectra.samples",
                                                       arg("count")),
            "charpoly.RatioOracle.build": oracle,
        }

    # -- installation ------------------------------------------------------------

    def _modules(self):
        names = ("numerics", "ensembles", "multipoly", "chgue", "charpoly", "cli")
        return [biortho] + [importlib.import_module(f"biortho.{n}") for n in names]

    def _replace(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        modules = self._modules()
        hooks = self._hooks()
        for layer, names in LAYERS.items():
            home = importlib.import_module(f"biortho.{layer}")
            for name in names:
                span = f"{layer}.{name}"
                if name in _METHODS:
                    cls_name, _ = name.split(".")
                    cls, attr = getattr(home, cls_name), _METHODS[name]
                    self._replace(cls, attr,
                                  self._wrap(span, layer, cls.__dict__[attr], hooks.get(span)))
                    continue
                original = getattr(home, name)
                wrapper = self._wrap(span, layer, original, hooks.get(span))
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._replace(mod, attr, wrapper)
        # rows emitted by the CLI: counted where its one output routine is called
        cli = importlib.import_module("biortho.cli")
        emit = cli._emit

        def counting_emit(args, header, rows, *rest, **kw):
            with self._lock:
                self.counts["cli.main.rows_emitted"] += len(rows)
            return emit(args, header, rows, *rest, **kw)

        self._replace(cli, "_emit", counting_emit)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- report --------------------------------------------------------------------

    def metrics(self, overhead: float) -> dict[str, float]:
        out: dict[str, float] = {}
        for layer, names in LAYERS.items():
            for name in names:
                span = f"{layer}.{name}"
                out[f"{span}.calls"] = self.calls[span]
                out[f"{span}.self_s"] = self.self_s[span]
            spans = [f"{layer}.{n}" for n in names]
            out[f"{layer}.calls"] = sum(self.calls[s] for s in spans)
            out[f"{layer}.self_s"] = sum(self.self_s[s] for s in spans)
            out[f"{layer}.errors"] = self.errors[layer]
        out["charpoly.residue_extract.warnings"] = self.counts["charpoly.residue_extract.warnings"]
        for name, _ in COMPUTED:
            out[name] = self.counts[name]
        calls = self.calls["numerics.gauss_laguerre"]
        out["numerics.gauss_laguerre.distinct_ratio"] = (
            len(self.laguerre_keys) / calls if calls else 0.0)
        out["trace.overhead"] = overhead
        return out
