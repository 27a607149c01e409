"""Spans and counters recorded from outside the program.

``install`` wraps the public functions of each layer and rebinds every
name that points at them in every loaded ``stringlinks`` module, because
``cli``, ``morita`` and ``milnor`` bind names such as ``special_artin``
and ``homology`` at import and a wrapper on the defining module alone
would miss those calls.  The program's source is not touched.

Each span records inclusive time, self time (inclusive minus the child
spans) and calls.  Spans only record while ``Tracer.enabled`` is set, so
the benchmark can leave its own input generation and checking out.
"""

from __future__ import annotations

import sys
import time
from contextlib import contextmanager

# (span name, module, attribute); "Class.method" attributes wrap methods.
SPANS = (
    ("words.longitudes", "words", "longitudes"),
    ("expansions.build_special", "expansions", "build_special"),
    ("expansions.is_special", "expansions", "is_special"),
    ("expansions.braid_magnus_images", "expansions", "braid_magnus_images"),
    ("expansions.magnus_integer", "expansions", "magnus_integer"),
    ("expansions.filtration_degree", "expansions", "filtration_degree"),
    ("tensor.mul", "tensor", "TensorSeries.__mul__"),
    ("tensor.exp", "tensor", "TensorSeries.exp"),
    ("tensor.log", "tensor", "TensorSeries.log"),
    ("tensor.inverse", "tensor", "TensorSeries.inverse"),
    ("tensor.substitute", "tensor", "Substitution.__call__"),
    ("lie.from_tensor", "lie", "LieElement.from_tensor"),
    ("lie.conjugating_element", "lie", "conjugating_element"),
    ("linalg.rref", "linalg", "rref"),
    ("milnor.special_artin", "milnor", "special_artin"),
    ("trees.eta_inverse", "trees", "eta_inverse"),
    ("trees.enumerate_trees", "trees", "enumerate_trees"),
    ("koszul.homology_build", "koszul", "HomologyBasis.__init__"),
    ("koszul.project", "koszul", "HomologyBasis.project"),
    ("koszul.boundary", "koszul", "boundary"),
    ("koszul.phi_class", "koszul", "phi_class"),
    ("morita.sigma", "morita", "sigma"),
    ("morita.solve_boundary", "morita", "solve_boundary"),
    ("morita.d2_composition", "morita", "d2_composition"),
)
CLI_COMMANDS = ("milnor", "trees", "morita", "homology", "level")
ALL_SPANS = tuple(name for name, _, _ in SPANS) + ("cli.startup",) + tuple(
    f"cli.{c}" for c in CLI_COMMANDS)

# Which workload each span must fire on, and where it must stay silent.
LAYER_MAP = {
    "cli-session": {
        "fires": ("words.longitudes", "expansions.build_special",
                  "expansions.is_special", "expansions.braid_magnus_images",
                  "expansions.magnus_integer", "expansions.filtration_degree",
                  "tensor.mul", "tensor.exp", "tensor.log", "tensor.inverse",
                  "tensor.substitute", "lie.from_tensor",
                  "lie.conjugating_element", "linalg.rref",
                  "milnor.special_artin", "trees.eta_inverse",
                  "trees.enumerate_trees", "koszul.homology_build",
                  "koszul.project", "koszul.boundary", "koszul.phi_class",
                  "morita.sigma", "morita.solve_boundary",
                  "morita.d2_composition", "cli.startup")
                 + tuple(f"cli.{c}" for c in CLI_COMMANDS),
        "silent": (),
    },
    "koszul-h3": {
        "fires": ("linalg.rref", "koszul.homology_build", "koszul.project",
                  "koszul.boundary"),
        "silent": ("expansions.build_special", "milnor.special_artin",
                   "tensor.mul", "trees.eta_inverse", "cli.startup"),
    },
}


class Tracer:
    """Aggregated spans: name -> [inclusive s, self s, calls]."""

    def __init__(self):
        self.enabled = False
        self.stats = {name: [0.0, 0.0, 0] for name in ALL_SPANS}
        self.counts = {"tensor.mul.term_pairs": 0, "linalg.rref.cells": 0,
                       "expansions.evaluate.long_calls": 0,
                       "milnor.special_artin.repeats": 0}
        self.covered_s = 0.0  # time inside outermost spans
        self._stack: list[list[float]] = []
        self._depth = {name: 0 for name in ALL_SPANS}
        self._artin_seen: set = set()
        self._keep_alive: list = []

    def _enter(self, name):
        self._depth[name] += 1
        frame = [0.0]
        self._stack.append(frame)
        return frame, time.perf_counter()

    def _exit(self, name, frame, start):
        elapsed = time.perf_counter() - start
        self._stack.pop()
        self._depth[name] -= 1
        stat = self.stats[name]
        stat[2] += 1
        stat[1] += elapsed - frame[0]
        if not self._depth[name]:
            stat[0] += elapsed  # recursion is counted once, at the outermost call
        if self._stack:
            self._stack[-1][0] += elapsed
        else:
            self.covered_s += elapsed

    def record(self, name, elapsed):
        """An outermost span timed by the caller."""
        stat = self.stats[name]
        stat[0] += elapsed
        stat[1] += elapsed
        stat[2] += 1
        self.covered_s += elapsed

    @contextmanager
    def span(self, name):
        if not self.enabled:
            yield
            return
        frame, start = self._enter(name)
        try:
            yield
        finally:
            self._exit(name, frame, start)

    def wrap(self, name, fn, count=None):
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            if count is not None:
                count(*args, **kwargs)
            frame, start = self._enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(name, frame, start)
        traced.__wrapped__ = fn
        return traced

    # -- work counters -----------------------------------------------------

    def _count_mul(self, a, b):
        self.counts["tensor.mul.term_pairs"] += len(a.coeffs) * len(b.coeffs)

    def _count_rref(self, rows, *args):
        if rows:
            self.counts["linalg.rref.cells"] += len(rows) * len(rows[0])

    def _count_artin(self, data, theta, max_degree=None):
        letters = (data.letters if hasattr(data, "letters")
                   else tuple(y.letters for y in data.words))
        degree = theta.trunc - 1 if max_degree is None else max_degree
        key = (type(data).__name__, letters, degree, id(theta))
        if key in self._artin_seen:
            self.counts["milnor.special_artin.repeats"] += 1
        else:
            self._artin_seen.add(key)
            self._keep_alive.append(theta)  # keeps id(theta) unique

    def report(self) -> dict:
        return {"spans": self.stats, "counts": self.counts,
                "covered_s": self.covered_s}


def _modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "stringlinks"
                                  or name.startswith("stringlinks."))]


def install(tracer: Tracer) -> None:
    """Wrap every span target and rebind all names that refer to it."""
    import stringlinks  # noqa: F401  (loads every layer)
    from stringlinks import expansions

    counters = {"tensor.mul": tracer._count_mul,
                "linalg.rref": tracer._count_rref,
                "milnor.special_artin": tracer._count_artin}
    modules = _modules()
    for name, module, attr in SPANS:
        owner = sys.modules[f"stringlinks.{module}"]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(owner, cls_name)
            raw = cls.__dict__[meth]
            if isinstance(raw, classmethod):
                setattr(cls, meth, classmethod(
                    tracer.wrap(name, raw.__func__, counters.get(name))))
            else:
                setattr(cls, meth, tracer.wrap(name, raw, counters.get(name)))
            continue
        original = getattr(owner, attr)
        traced = tracer.wrap(name, original, counters.get(name))
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, traced)

    evaluate = expansions.Expansion.evaluate

    def counted_evaluate(self, word, trunc=None):
        if tracer.enabled and len(word.letters) >= expansions._DENSE_EVAL_CUTOFF:
            tracer.counts["expansions.evaluate.long_calls"] += 1
        return evaluate(self, word, trunc)

    expansions.Expansion.evaluate = counted_evaluate


def cached_entries() -> int:
    """Entries held by the program's lru caches; 0 in a cold interpreter."""
    total = 0
    for mod in _modules():
        for value in vars(mod).values():
            info = getattr(value, "cache_info", None)
            if callable(info):
                total += info().currsize
    return total


def merge(reports: list[dict]) -> dict:
    """Sum the reports of several processes."""
    out = {"spans": {name: [0.0, 0.0, 0] for name in ALL_SPANS},
           "counts": {}, "covered_s": 0.0}
    for rep in reports:
        for name, stat in rep["spans"].items():
            for k in range(3):
                out["spans"][name][k] += stat[k]
        for key, value in rep["counts"].items():
            out["counts"][key] = out["counts"].get(key, 0) + value
        out["covered_s"] += rep["covered_s"]
    return out


def per_layer_metrics(report: dict, region_s: float, wall_s: float) -> dict:
    """The per-layer metric set, by name, with units.

    ``region_s`` is the traced time (set-up and queries) that the spans
    should cover; ``wall_s`` is the traced query round, comparable with
    the untraced ``wall_s``.
    """
    metrics = {}
    for name in ALL_SPANS:
        incl, self_s, calls = report["spans"][name]
        metrics[f"{name}.s"] = {"value": incl, "unit": "s"}
        metrics[f"{name}.self_s"] = {"value": self_s, "unit": "s"}
        metrics[f"{name}.calls"] = {"value": calls, "unit": "count"}
    counts = report["counts"]
    for key in ("tensor.mul.term_pairs", "linalg.rref.cells",
                "expansions.evaluate.long_calls"):
        metrics[key] = {"value": counts.get(key, 0), "unit": "count"}
    artin_calls = report["spans"]["milnor.special_artin"][2]
    metrics["milnor.special_artin.repeat_ratio"] = {
        "value": counts.get("milnor.special_artin.repeats", 0) / artin_calls
        if artin_calls else 0.0, "unit": "ratio"}
    metrics["trace.wall_s"] = {"value": wall_s, "unit": "s"}
    metrics["trace.coverage"] = {
        "value": report["covered_s"] / region_s if region_s else 0.0,
        "unit": "ratio"}
    return metrics
