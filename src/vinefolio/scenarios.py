"""Scenario generation for the two-stage portfolio model.

Raw panels are first carry-adjusted (asset returns minus the local rate,
currency returns plus it), so that cost of carry is implicit in the
returns. Joint scenarios are then drawn either from a fitted R-vine
copula over KDE marginals (RVC) or from a multivariate normal calibrated
to the same adjusted panel (MVN).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import marginals, rvine
from .bicop import ALL_FAMILIES
from .errors import (CovarianceFailure, EmptyPanel, InvalidScenarios, MissingRateSeries,
                     VinefolioError)


@dataclass(frozen=True)
class ReturnPanel:
    """Aligned monthly return series for assets, currencies and rates.

    Asset and currency returns are decimals per period; the base
    currency's return column is identically zero by definition. Rates
    are per-period interest rates keyed by currency.
    """

    periods: tuple[str, ...]
    assets: dict[str, np.ndarray]
    asset_currency: dict[str, str]
    currencies: dict[str, np.ndarray]
    rates: dict[str, np.ndarray]
    base: str
    adjusted: bool = False

    def __post_init__(self):
        m = len(self.periods)
        for name, col in list(self.assets.items()) + list(self.currencies.items()):
            if len(col) != m:
                raise EmptyPanel(f"column {name!r} length {len(col)} != {m}")
        for name in self.assets:
            if name not in self.asset_currency:
                raise EmptyPanel(f"asset {name!r} has no currency assignment")

    @property
    def n_periods(self) -> int:
        return len(self.periods)

    def column_names(self) -> list[str]:
        return list(self.assets) + list(self.currencies)

    def column_matrix(self) -> np.ndarray:
        cols = [self.assets[a] for a in self.assets]
        cols += [self.currencies[c] for c in self.currencies]
        return np.column_stack(cols)


@dataclass(frozen=True)
class ScenarioSet:
    """N equiprobable joint return realizations."""

    columns: tuple[str, ...]
    values: np.ndarray  # N x d
    probabilities: np.ndarray  # length N, sums to 1
    method: str = ""
    seed: int | None = None

    def __post_init__(self):
        if not np.all(np.isfinite(self.values)):
            raise InvalidScenarios("scenario values must be finite")
        if abs(self.probabilities.sum() - 1.0) > 1e-12:
            raise InvalidScenarios("probabilities must sum to 1")

    @property
    def n_scenarios(self) -> int:
        return self.values.shape[0]

    def column(self, name: str) -> np.ndarray:
        return self.values[:, self.columns.index(name)]


def adjust_returns(panel: ReturnPanel) -> ReturnPanel:
    """Carry-adjust the panel: assets r - i, currencies r + i.

    The identity a*(r_a - i) + c*(r_c + i) = a*r_a + c*r_c + (c - a)*i
    makes overlay carry implicit in the adjusted returns.
    """
    if panel.adjusted:
        return panel
    for name, ccy in panel.asset_currency.items():
        if ccy not in panel.rates:
            raise MissingRateSeries(ccy)
    for ccy in panel.currencies:
        if ccy not in panel.rates:
            raise MissingRateSeries(ccy)
    assets = {
        name: panel.assets[name] - panel.rates[panel.asset_currency[name]]
        for name in panel.assets
    }
    currencies = {
        ccy: panel.currencies[ccy] + panel.rates[ccy]
        for ccy in panel.currencies
    }
    return replace(panel, assets=assets, currencies=currencies, adjusted=True)


@dataclass(frozen=True)
class FittedRVC:
    """KDEs of the `live` columns and, if two or more are live, an R-vine
    over them in the same order; other columns are `constants`."""

    columns: tuple[str, ...]
    live: tuple[int, ...]
    constants: dict[int, float]
    kdes: tuple[marginals.MarginalModel, ...]
    spec: rvine.RVineSpec | None


def fit_rvc(panel: ReturnPanel) -> FittedRVC:
    """PIT through per-column KDEs, then a sequential R-vine fit."""
    names = panel.column_names()
    if not names:
        raise EmptyPanel("panel has no columns")
    matrix = panel.column_matrix()
    # Columns with (effectively) zero variance are carried as constants.
    const = {i: float(matrix[0, i]) for i in range(len(names))
             if marginals.effectively_constant(matrix[:, i])}
    live = [i for i in range(len(names)) if i not in const]
    live_names = [names[i] for i in live]
    uniforms, models = (marginals.pit_transform({names[i]: matrix[:, i] for i in live})
                        if live else ({}, {}))
    spec = (rvine.select_and_fit(uniforms, ALL_FAMILIES, column_order=live_names)
            if len(live) > 1 else None)
    return FittedRVC(tuple(names), tuple(live), const,
                     tuple(models[n] for n in live_names), spec)


def generate_rvc(panel: ReturnPanel, N: int, seed: int = 0,
                 fitted: FittedRVC | None = None) -> ScenarioSet:
    """Vine-copula scenarios: fit the panel unless `fitted` is its fit, then
    draw vine uniforms and map them through the inverse KDEs."""
    if N < 1:
        raise InvalidScenarios(f"need N >= 1 scenarios, got {N}")
    fitted = fitted or fit_rvc(panel)
    values = np.empty((N, len(fitted.columns)))
    for idx, val in fitted.constants.items():
        values[:, idx] = val
    u = (np.random.default_rng(seed).random((N, len(fitted.live)))
         if fitted.spec is None else rvine.sample(fitted.spec, N, seed))
    for pos, idx in enumerate(fitted.live):
        values[:, idx] = marginals.inv_cdf(fitted.kdes[pos], u[:, pos])
    return ScenarioSet(fitted.columns, values, np.full(N, 1.0 / N), method="rvc", seed=seed)


def generate_mvn(panel: ReturnPanel, N: int, seed: int = 0) -> ScenarioSet:
    """Multivariate-normal baseline calibrated to the panel's moments."""
    if N < 1:
        raise InvalidScenarios(f"need N >= 1 scenarios, got {N}")
    names = panel.column_names()
    if not names:
        raise EmptyPanel("panel has no columns")
    matrix = panel.column_matrix()
    mean = matrix.mean(axis=0)
    cov = np.cov(matrix, rowvar=False, ddof=1)
    cov = np.atleast_2d(cov)
    jitter = 1e-10 * np.trace(cov)
    try:
        L = np.linalg.cholesky(cov + jitter * np.eye(cov.shape[0]))
    except np.linalg.LinAlgError as exc:
        raise CovarianceFailure(str(exc)) from exc
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((N, len(names)))
    values = mean + z @ L.T
    probs = np.full(N, 1.0 / N)
    return ScenarioSet(tuple(names), values, probs, method="mvn", seed=seed)


def generate(panel: ReturnPanel, N: int, method: str, seed: int = 0,
             fitted: FittedRVC | None = None) -> ScenarioSet:
    """Scenarios of `method`; an rvc draw reuses `fitted` when given."""
    if method == "rvc":
        return generate_rvc(panel, N, seed, fitted)
    if method == "mvn":
        return generate_mvn(panel, N, seed)
    raise InvalidScenarios(f"unknown scenario method {method!r}")


def stability_report(panel: ReturnPanel, sizes, method: str, instance,
                     ga_config, mu_targets, seeds=(0,)) -> list[dict]:
    """Optimal-CVaR statistics per scenario-set size.

    The rvc model is fitted to the panel once; for each size, a scenario
    set is drawn for every seed, the model is solved at every return
    target, and descriptive statistics of the optimal CVaR are reported.
    A solve that raises a `VinefolioError` is recorded in `failures` as
    (seed, mu, reason); any other exception propagates.
    """
    from . import ga as ga_mod  # local import to avoid a module cycle
    from .model import with_return_target

    fitted = fit_rvc(panel) if method == "rvc" else None
    rows = []
    for size in sizes:
        cvars, failures = [], []
        for seed in seeds:
            scen = generate(panel, size, method, seed=seed, fitted=fitted)
            for mu in mu_targets:
                inst = with_return_target(instance, mu)
                try:
                    sol = ga_mod.run(inst, scen, ga_config)
                    cvars.append(sol.cvar)
                except VinefolioError as exc:
                    failures.append((seed, mu, repr(exc)))
        arr = np.asarray(cvars)
        rows.append({
            "size": int(size),
            "n_solved": int(arr.size),
            "n_failed": len(failures),
            "average": float(arr.mean()) if arr.size else float("nan"),
            "std": float(arr.std(ddof=1)) if arr.size > 1 else 0.0,
            "range": float(arr.max() - arr.min()) if arr.size else float("nan"),
            "min": float(arr.min()) if arr.size else float("nan"),
            "max": float(arr.max()) if arr.size else float("nan"),
            "failures": failures,
        })
    return rows
