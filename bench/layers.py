"""Per-layer metrics of a traced run.

The tracer wraps every public function of the package's working modules.
`LayerCounters` adds the counts that time alone does not give: which
evaluated individuals were feasible or traded in recourse, how many rows
the vine sampled, and how many vine fits saw a panel already fitted in
the same pass.
"""

from __future__ import annotations

import functools
import hashlib

import numpy as np

from vinefolio import bicop, ga, harness, marginals, model, overlay, rvine, scenarios

import tracer as tracing

MODULES = (marginals, bicop, rvine, scenarios, overlay, model, ga, harness)
OPERATORS = ("ga.rank_scaled_values", "ga.select_stochastic_uniform",
             "ga.crossover_arithmetic", "ga.mutate_adaptive_feasible")
FEASIBILITY_TOL = 1e-6

# (name, unit), in the order of BENCHMARK.json.
PER_LAYER = (
    ("marginals.pit_transform.s", "s"),
    ("marginals.inv_cdf.s", "s"),
    ("bicop.fit.calls", "count"),
    ("bicop.fit.s", "s"),
    ("rvine.select_and_fit.calls", "count"),
    ("rvine.select_and_fit.self_s", "s"),
    ("rvine.fit_useful_ratio", "ratio"),
    ("rvine.sample.s", "s"),
    ("rvine.sample.rows_per_s", "1/s"),
    ("scenarios.generate.calls", "count"),
    ("scenarios.generate.s", "s"),
    ("model.scenario_prices.s", "s"),
    ("model.evaluate.calls", "count"),
    ("model.evaluate.us_per_call", "us"),
    ("model.evaluate.self_s", "s"),
    ("model.evaluate_first_stage.s", "s"),
    ("model.evaluate_recourse.s", "s"),
    ("model.cvar_objective.s", "s"),
    ("ga.run.self_s", "s"),
    ("ga.decode.s", "s"),
    ("ga.operators.s", "s"),
    ("ga.evals", "count"),
    ("ga.feasible_ratio", "ratio"),
    ("ga.best_feasible_ratio", "ratio"),
    ("ga.recourse_active_ratio", "ratio"),
)


def feasible(ev) -> bool:
    return ev.violation <= FEASIBILITY_TOL


def _recourse_active(sol) -> bool:
    return sol.has_recourse and any(
        np.any(arr > 0.0)
        for arr in (sol.rb_asset, sol.rs_asset, sol.rb_fwd, sol.rs_fwd))


def _panel_key(u_panel) -> str:
    arrays = u_panel.values() if isinstance(u_panel, dict) else [u_panel]
    digest = hashlib.sha1()
    for arr in arrays:
        digest.update(np.ascontiguousarray(arr, dtype=float).tobytes())
    return digest.hexdigest()


class LayerCounters:
    """Counting wrappers, installed under the tracer's spans."""

    def __init__(self):
        self.evaluated = 0
        self.feasible = 0
        self.recourse_active = 0
        self.sampled_rows = 0
        self.fits = 0
        self.distinct_panels = 0
        self._seen: set[str] = set()

    def new_pass(self) -> None:
        self._seen.clear()

    def install(self, patches: tracing.Patches) -> None:
        for module, name, hook in ((model, "evaluate", self._on_evaluate),
                                   (rvine, "select_and_fit", self._on_fit),
                                   (rvine, "sample", self._on_sample)):
            patches.replace(module, name, lambda fn, hook=hook: _counted(fn, hook))

    def _on_evaluate(self, ev, inst, sol, *args, **kwargs) -> None:
        self.evaluated += 1
        self.feasible += feasible(ev)
        self.recourse_active += _recourse_active(sol)

    def _on_fit(self, spec, u_panel, *args, **kwargs) -> None:
        self.fits += 1
        key = _panel_key(u_panel)
        if key not in self._seen:
            self._seen.add(key)
            self.distinct_panels += 1

    def _on_sample(self, u, spec, n, *args, **kwargs) -> None:
        self.sampled_rows += int(n)


def _counted(fn, hook):
    @functools.wraps(fn)
    def counted(*args, **kwargs):
        result = fn(*args, **kwargs)
        hook(result, *args, **kwargs)
        return result
    return counted


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(summary: dict, counters: LayerCounters, evals: int,
                      best: list) -> dict:
    """`best` holds the evaluation each solve returned."""
    def total(name, key="s"):
        return summary.get(name, {}).get(key, 0.0)

    values = {
        "rvine.fit_useful_ratio": _ratio(counters.distinct_panels, counters.fits),
        "rvine.sample.rows_per_s": _ratio(counters.sampled_rows, total("rvine.sample")),
        "model.evaluate.us_per_call": 1e6 * _ratio(
            total("model.evaluate"), total("model.evaluate", "calls")),
        "ga.operators.s": sum(total(name) for name in OPERATORS),
        "ga.evals": evals,
        "ga.feasible_ratio": _ratio(counters.feasible, counters.evaluated),
        "ga.best_feasible_ratio": _ratio(sum(map(feasible, best)), len(best)),
        "ga.recourse_active_ratio": _ratio(counters.recourse_active, counters.evaluated),
    }
    for name, unit in PER_LAYER:
        if name not in values:
            layer_fn, key = name.rsplit(".", 1)
            values[name] = total(layer_fn, key)
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}
