"""Spans around the public functions of covspectra, recorded from outside.

`Tracer.install()` replaces each public function and method listed in
`TRACED` by a wrapper that records a span (name, start, end, parent) and
puts the original back on `uninstall()`.  Module-level functions are replaced
under every name that refers to them in any covspectra module, because the
modules import each other's functions by name.  Nothing under `src/` changes.

Spans stay in memory while the run goes on; `write_jsonl` saves them when it
ends and `layer_metrics` derives the per-layer numbers from the saved file.
"""

from __future__ import annotations

import contextlib
import functools
import json
import statistics
import sys
import time
from collections import defaultdict

# layer -> public callables wrapped in that layer ("Class.method" for methods);
# continuation_solve is there to tell path nodes from single solves
TRACED = {
    "model": [
        "EnsembleModel.__init__",
        "EnsembleModel.traces_against_all",
        "EnsembleModel.mixture_matrix",
        "EnsembleModel.realize_sigma",
        "EnsembleModel.column_root_matvec",
    ],
    "fixedpoint": ["solve_lambda", "continuation_solve", "psi_matrix"],
    "equivalent": ["density_grid", "support_scan", "r_tilde"],
    "contour": ["contour_solves", "project_functionals"],
    "empirical": ["sample_matrix", "spectrum", "empirical_projection", "compare"],
    "qve": ["solve_qve"],
    "cli": ["main"],
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.active = False
        self.rep = 0
        self._stack: list[dict] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            parent = tracer._stack[-1] if tracer._stack else None
            span = {"id": len(tracer.spans), "name": name, "rep": tracer.rep,
                    "parent": None if parent is None else parent["id"]}
            if parent is not None:
                parent["_children"] = span["child"] = parent.get("_children", 0) + 1
            if name == "fixedpoint.solve_lambda":
                span["warm"] = kwargs.get("warm", args[3] if len(args) > 3 else None) is not None
            tracer.spans.append(span)
            tracer._stack.append(span)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span["end"] = time.perf_counter()
                span["error"] = type(exc).__name__
                if hasattr(exc, "iterations"):
                    span["iterations"] = exc.iterations
                raise
            else:
                span["end"] = time.perf_counter()
                if hasattr(result, "iterations"):
                    span["iterations"] = result.iterations
                return result
            finally:
                tracer._stack.pop()

        return traced

    @contextlib.contextmanager
    def recording(self, rep: int):
        self.active, self.rep = True, rep
        try:
            yield
        finally:
            self.active = False

    # -- installation ------------------------------------------------------

    def install(self, package) -> None:
        modules = [m for k, m in sys.modules.items()
                   if k == package.__name__ or k.startswith(package.__name__ + ".")]
        for layer, names in TRACED.items():
            mod = sys.modules[f"{package.__name__}.{layer}"]
            for qual in names:
                if "." in qual:
                    cls_name, meth = qual.split(".")
                    cls = getattr(mod, cls_name)
                    span_name = f"{layer}.{'init' if meth == '__init__' else meth}"
                    self._patch(cls, meth, self._wrap(span_name, cls.__dict__[meth]))
                    continue
                orig = getattr(mod, qual)
                wrapped = self._wrap(f"{layer}.{qual}", orig)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is orig:
                            self._patch(m, attr, wrapped)

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        for owner, attr, old in reversed(self._patches):
            setattr(owner, attr, old)
        self._patches.clear()

    # -- output --------------------------------------------------------------

    def write_jsonl(self, path: str) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps({k: v for k, v in span.items() if k != "_children"}))
                fh.write("\n")


def read_jsonl(path: str) -> list[dict]:
    with open(path) as fh:
        return [json.loads(line) for line in fh]


def tail(values: list[float]) -> tuple[float, float] | None:
    """(percentile, value) of the highest percentile with at least ten samples
    beyond it, or None when there are fewer than twenty samples."""
    n = len(values)
    if n < 20:
        return None
    ordered = sorted(values)
    return 100.0 * (n - 10) / n, ordered[n - 11]


def _self_times(spans: list[dict]) -> dict[int, float]:
    """Span duration minus the part of it that its child spans cover.  The
    calls are synchronous, so children never overlap one another."""
    own = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def _rep_metrics(spans: list[dict]) -> tuple[dict[str, float], list[float]]:
    by_id = {s["id"]: s for s in spans}
    own = _self_times(spans)
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    total_s: dict[str, float] = defaultdict(float)
    for s in spans:
        calls[s["name"]] += 1
        self_s[s["name"]] += own[s["id"]]
        total_s[s["name"]] += s["end"] - s["start"]

    def ancestor(span: dict, names: tuple[str, ...]) -> dict | None:
        while span["parent"] is not None:
            span = by_id[span["parent"]]
            if span["name"] in names:
                return span
        return None

    solves = [s for s in spans if s["name"] == "fixedpoint.solve_lambda"]
    evals: dict[int, int] = defaultdict(int)  # solve id -> map evaluations
    for s in spans:
        if s["name"] == "model.traces_against_all":
            solve = ancestor(s, ("fixedpoint.solve_lambda",))
            if solve is not None:
                evals[solve["id"]] += 1
    map_evals = sum(evals.values())
    useful = sum(evals[s["id"]] for s in solves if "error" not in s)
    cold = sum(
        1 for s in solves
        if s["parent"] is not None
        and by_id[s["parent"]]["name"] == "fixedpoint.continuation_solve"
        and s["child"] > 1 and not s["warm"]
    )
    contour_solves = sum(
        1 for s in solves
        if ancestor(s, ("contour.contour_solves", "contour.project_functionals"))
    )
    projections = calls["contour.project_functionals"]

    m = {
        "fixedpoint.iterations": float(sum(s.get("iterations", 0) for s in solves)),
        "fixedpoint.map_evals": float(map_evals),
        "fixedpoint.cold_starts": float(cold),
        "fixedpoint.failed_solves": float(sum(1 for s in solves if "error" in s)),
        "fixedpoint.useful_eval_ratio": useful / map_evals if map_evals else 1.0,
        "contour.nodes": contour_solves / projections if projections else 0.0,
        "contour.contour_solves.s": total_s["contour.contour_solves"],
        "model.init_s": total_s["model.init"],
    }
    for name in ("model.traces_against_all", "model.mixture_matrix",
                 "model.realize_sigma", "fixedpoint.solve_lambda", "equivalent.r_tilde",
                 "empirical.sample_matrix", "qve.solve_qve"):
        m[f"{name}.calls"] = float(calls[name])
    for name in ("model.traces_against_all", "model.mixture_matrix", "model.realize_sigma",
                 "model.column_root_matvec", "fixedpoint.solve_lambda",
                 "fixedpoint.psi_matrix", "equivalent.density_grid",
                 "equivalent.support_scan", "equivalent.r_tilde",
                 "contour.project_functionals", "empirical.sample_matrix",
                 "empirical.spectrum", "empirical.empirical_projection",
                 "empirical.compare", "qve.solve_qve", "cli.main"):
        m[f"{name}.self_s"] = self_s[name]
    durations = [(s["end"] - s["start"]) * 1e3 for s in solves]
    return m, durations


def layer_metrics(spans: list[dict]) -> tuple[dict[str, float], dict[str, object]]:
    """Per-layer metrics: the median over traced repetitions of each
    repetition's figure, and the solve_lambda latency over all of them.
    Returns (metrics, notes) where notes give sample counts and percentiles."""
    reps: dict[int, list[dict]] = defaultdict(list)
    for s in spans:
        reps[s["rep"]].append(s)
    per_rep = []
    durations: list[float] = []
    for rep_spans in reps.values():
        m, d = _rep_metrics(rep_spans)
        per_rep.append(m)
        durations += d
    metrics = {k: statistics.median(m[k] for m in per_rep) for k in per_rep[0]}
    metrics["fixedpoint.solve_lambda.p50_ms"] = statistics.median(durations) if durations else 0.0
    t = tail(durations)
    metrics["fixedpoint.solve_lambda.tail_ms"] = t[1] if t else metrics["fixedpoint.solve_lambda.p50_ms"]
    notes = {"traced_reps": len(per_rep), "solve_lambda_samples": len(durations),
             "solve_lambda_tail_percentile": t[0] if t else None}
    return metrics, notes
