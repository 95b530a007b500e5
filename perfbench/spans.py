"""Spans around the package's public functions, installed from outside it.

``install`` wraps every public module-level function of the eight layers
(and two named methods) in a timing wrapper and rebinds every module-level
alias of it across the package: ``cli``, ``scan`` and ``excursion`` bind names
with ``from .x import f``, so patching only the defining module would record
nothing for their calls.  Spans (name, layer, start, end, parent) stay in
memory; ``per_layer_metrics`` folds them into the benchmark's per-layer
metrics and ``write_spans`` dumps them when the pass ends.  The package source
is not touched.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict

import numpy as np

PACKAGE = "khintchine_lab"
LAYERS = ("ifs", "flows", "lattices", "excursion", "dani", "scan", "constants", "cli")
# (layer, class, method) -> span name; the other methods run inside their callers' spans
METHODS = {
    ("dani", "ApproxFunction", "__call__"): "psi_eval",
    ("dani", "RateFunction", "check_monotonicity"): "check_monotonicity",
}


def _arg(args, kwargs, index, name, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else default


def _dim_variant(basis) -> str:
    return f"d{np.shape(basis)[0] - 1}"


# Per-call facts a metric needs beyond calls and time: (variant, work, extra).
# ``variant`` splits a function's calls (by lattice dimension, scan flavour),
# ``work`` counts items processed, ``extra`` is a result-derived count.
def _lll(args, kwargs, result):
    u = result[1]
    return _dim_variant(args[0]), 1, int(not np.array_equal(u, np.eye(u.shape[0])))


def _diagonal_heights(args, kwargs, result):
    return f"d{np.size(args[0])}", int(np.size(result)) - 1, 0


def _tail_report(args, kwargs, result):
    walks = _arg(args, kwargs, 2, "walks")
    steps = _arg(args, kwargs, 3, "steps")
    burn_in = _arg(args, kwargs, 8, "burn_in", 64)
    return None, walks * (burn_in + steps), 0


def _scan_hits(args, kwargs, result):
    exact = _arg(args, kwargs, 3, "x_exact") is not None
    return "exact" if exact else "float", int(args[2]), 0


def _survey(args, kwargs, result):
    count = _arg(args, kwargs, 2, "sample_count")
    q_max = _arg(args, kwargs, 3, "q_max")
    return None, count * q_max, 0


EXTRACTORS = {
    "ifs.sample_fractal": lambda a, k, r: (None, len(r), 0),
    "lattices.lll_reduce": _lll,
    "lattices.shortest_of_basis": lambda a, k, r: (_dim_variant(a[0]), 1, 0),
    "excursion.diagonal_heights": _diagonal_heights,
    "excursion.diagonal_excursions": lambda a, k, r: (None, 1, len(r)),
    "excursion.tail_report": _tail_report,
    "dani.r_from_psi": lambda a, k, r: (None, int(np.size(a[2])), 0),
    "scan.scan_hits": _scan_hits,
    "scan.dani_cross_check": lambda a, k, r: (None, 1, r.times_checked),
    "scan.survey": _survey,
    "constants.subspace_mass": lambda a, k, r: (None, int(np.shape(a[1])[0]), 0),
    "constants.cover_hyperplane": lambda a, k, r: (None, 1, r.count),
}


class Tracer:
    """In-memory span store; one per traced pass."""

    def __init__(self):
        # (name, layer, start, end, parent index, raised, facts)
        self.spans: list = []
        self._stack: list[int] = []
        self.extract_errors: list[str] = []
        self.stale: list[str] = []

    def wrap(self, fn, name: str, layer: str):
        extract = EXTRACTORS.get(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            raised = True
            start = clock()
            try:
                result = fn(*args, **kwargs)
                raised = False
                return result
            finally:
                end = clock()
                stack.pop()
                facts = None
                if extract is not None and not raised:
                    try:
                        facts = extract(args, kwargs, result)
                    except Exception as exc:  # a broken extractor must not change the run
                        self.extract_errors.append(f"{name}: {exc!r}")
                spans[index] = (name, layer, start, end, parent, raised, facts)

        return functools.update_wrapper(wrapper, fn)

    def install(self) -> None:
        """Wrap the public functions of every layer and rebind every alias;
        record in ``stale`` any reference to an original left reachable."""
        modules = {
            name: mod
            for name, mod in list(sys.modules.items())
            if name == PACKAGE or name.startswith(PACKAGE + ".")
        }
        originals, wrapped = {}, {}  # keyed by id(original); originals keeps ids unique
        for layer in LAYERS:
            mod = modules[f"{PACKAGE}.{layer}"]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != mod.__name__:
                    continue
                originals[id(obj)] = obj
                wrapped[id(obj)] = self.wrap(obj, f"{layer}.{attr}", layer)
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped:
                    setattr(mod, attr, wrapped[id(obj)])
        for (layer, cls_name, method), span in METHODS.items():
            cls = getattr(modules[f"{PACKAGE}.{layer}"], cls_name)
            original = cls.__dict__[method]
            setattr(cls, method, self.wrap(original, f"{layer}.{span}", layer))
        self.stale = _stale_references(modules.values(), originals)

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for index, (name, layer, start, end, parent, raised, _) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": index, "name": name, "start": start, "end": end,
                    "parent": parent, "raised": raised,
                }) + "\n")


def _stale_references(modules, originals: dict) -> list[str]:
    """Places that still hold an unwrapped function: module attributes, one
    level into module-level containers, class attributes, default arguments."""

    def held(value):
        return id(value) in originals

    found = []
    for mod in modules:
        for attr, obj in vars(mod).items():
            where = f"{mod.__name__}.{attr}"
            if held(obj):
                found.append(where)
            elif isinstance(obj, dict):
                found += [f"{where}[{k!r}]" for k, v in obj.items() if held(v)]
            elif isinstance(obj, (list, tuple)):
                found += [f"{where}[{i}]" for i, v in enumerate(obj) if held(v)]
            elif isinstance(obj, type) and obj.__module__ == mod.__name__:
                for name, member in vars(obj).items():
                    inner = getattr(member, "__func__", member)
                    if held(inner):
                        found.append(f"{where}.{name}")
            if inspect.isfunction(obj):
                inner = getattr(obj, "__wrapped__", obj)
                defaults = list(inner.__defaults__ or ()) + list((inner.__kwdefaults__ or {}).values())
                found += [f"{where} default" for v in defaults if held(v)]
    return found


def _fold(spans):
    """Calls, seconds, work and extra per function (and per function.variant),
    plus self time per layer and per function, and raised calls per layer."""
    child = [0.0] * len(spans)
    for name, layer, start, end, parent, raised, facts in spans:
        if parent >= 0:
            child[parent] += end - start
    calls = defaultdict(int)
    secs = defaultdict(float)
    work = defaultdict(int)
    extra = defaultdict(int)
    self_s = defaultdict(float)
    errors = defaultdict(int)
    for index, (name, layer, start, end, parent, raised, facts) in enumerate(spans):
        dur = end - start
        self_s[layer] += dur - child[index]
        self_s[name] += dur - child[index]
        errors[layer] += raised
        keys = [name]
        if facts is not None and facts[0] is not None:
            keys.append(f"{name}.{facts[0]}")
        for key in keys:
            calls[key] += 1
            secs[key] += dur
            if facts is not None:
                work[key] += facts[1]
                extra[key] += facts[2]
    return calls, secs, work, extra, self_s, errors


def call_counts(spans) -> dict:
    """Calls per function and per function.variant, for the coverage guard."""
    return dict(_fold(spans)[0])


def per_layer_metrics(spans) -> dict:
    """Fold one pass's spans into the per-layer metrics computed in-process
    (the import-time and overhead metrics come from run.py)."""
    calls, secs, work, extra, self_s, errors = _fold(spans)

    def per(total, count, scale):
        return total * scale / count if count else 0.0

    m = {"cli.run.self_s": self_s["cli.run"]}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = self_s[layer]
        m[f"{layer}.errors"] = errors[layer]
    m["ifs.sample_fractal.calls"] = calls["ifs.sample_fractal"]
    m["ifs.sample_fractal.points"] = work["ifs.sample_fractal"]
    m["ifs.sample_fractal.us_per_point"] = per(secs["ifs.sample_fractal"], work["ifs.sample_fractal"], 1e6)
    m["ifs.sample_words.s"] = secs["ifs.sample_words"]
    m["ifs.points_of_words.s"] = secs["ifs.points_of_words"]
    m["ifs.diameter_estimate.calls"] = calls["ifs.diameter_estimate"]
    m["ifs.diameter_estimate.s"] = secs["ifs.diameter_estimate"]
    m["flows.diagonal_point.calls"] = calls["flows.diagonal_point"]
    m["flows.diagonal_point.us_per_call"] = per(secs["flows.diagonal_point"], calls["flows.diagonal_point"], 1e6)
    m["flows.similarity_to_group.calls"] = calls["flows.similarity_to_group"]
    lll = "lattices.lll_reduce.d2"
    m["lattices.lll_reduce.calls.d2"] = calls[lll]
    m["lattices.lll_reduce.us_per_call.d2"] = per(secs[lll], calls[lll], 1e6)
    m["lattices.lll_reduce.nontrivial_frac.d2"] = per(extra[lll], calls[lll], 1.0)
    for d in ("d1", "d2"):
        key = f"lattices.shortest_of_basis.{d}"
        m[f"lattices.shortest_of_basis.calls.{d}"] = calls[key]
        m[f"lattices.shortest_of_basis.us_per_call.{d}"] = per(secs[key], calls[key], 1e6)
    dh = "excursion.diagonal_heights.d2"
    m["excursion.diagonal_heights.steps.d2"] = work[dh]
    m["excursion.diagonal_heights.us_per_step.d2"] = per(secs[dh], work[dh], 1e6)
    m["excursion.diagonal_excursions.calls"] = calls["excursion.diagonal_excursions"]
    m["excursion.diagonal_excursions.records"] = extra["excursion.diagonal_excursions"]
    m["excursion.growth_bound_check.s"] = secs["excursion.growth_bound_check"]
    m["excursion.tail_report.walk_steps"] = work["excursion.tail_report"]
    m["excursion.tail_report.us_per_step"] = per(secs["excursion.tail_report"], work["excursion.tail_report"], 1e6)
    m["dani.r_from_psi.calls"] = calls["dani.r_from_psi"]
    m["dani.r_from_psi.times"] = work["dani.r_from_psi"]
    m["dani.r_from_psi.us_per_time"] = per(secs["dani.r_from_psi"], work["dani.r_from_psi"], 1e6)
    m["dani.equivalence_check.s"] = secs["dani.equivalence_check"]
    m["dani.check_monotonicity.s"] = secs["dani.check_monotonicity"]
    m["dani.psi_eval.calls"] = calls["dani.psi_eval"]
    m["dani.psi_eval.us_per_call"] = per(secs["dani.psi_eval"], calls["dani.psi_eval"], 1e6)
    for flavour in ("exact", "float"):
        key = f"scan.scan_hits.{flavour}"
        m[f"scan.scan_hits.calls.{flavour}"] = calls[key]
        m[f"scan.scan_hits.q_scanned.{flavour}"] = work[key]
        m[f"scan.scan_hits.us_per_q.{flavour}"] = per(secs[key], work[key], 1e6)
    m["scan.dani_cross_check.s"] = secs["scan.dani_cross_check"]
    m["scan.dani_cross_check.times_checked"] = extra["scan.dani_cross_check"]
    m["scan.survey.s"] = secs["scan.survey"]
    m["scan.survey.pairs"] = work["scan.survey"]
    m["scan.survey.ns_per_pair"] = per(secs["scan.survey"], work["scan.survey"], 1e9)
    m["constants.alpha_estimate.s"] = secs["constants.alpha_estimate"]
    m["constants.subspace_mass.calls"] = calls["constants.subspace_mass"]
    m["constants.subspace_mass.ns_per_point"] = per(secs["constants.subspace_mass"], work["constants.subspace_mass"], 1e9)
    m["constants.cover_hyperplane.calls"] = calls["constants.cover_hyperplane"]
    m["constants.cover_hyperplane.s"] = secs["constants.cover_hyperplane"]
    m["constants.cover_hyperplane.cubes"] = extra["constants.cover_hyperplane"]
    return m
