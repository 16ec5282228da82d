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
from .errors import CovarianceFailure, EmptyPanel, InvalidScenarios, MissingRateSeries


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


def _split_constant_columns(names, matrix):
    """Columns with (effectively) zero variance are carried as constants."""
    flags = [marginals.effectively_constant(matrix[:, i]) for i in range(len(names))]
    live = [i for i in range(len(names)) if not flags[i]]
    const = {i: float(matrix[0, i]) for i in range(len(names)) if flags[i]}
    return live, const


def generate_rvc(panel: ReturnPanel, N: int, candidates=ALL_FAMILIES,
                 seed: int = 0) -> ScenarioSet:
    """Vine-copula scenarios: PIT, sequential vine fit, sample, invert."""
    if N < 1:
        raise ValueError("N must be >= 1")
    names = panel.column_names()
    if not names:
        raise EmptyPanel("panel has no columns")
    matrix = panel.column_matrix()
    live, const = _split_constant_columns(names, matrix)

    values = np.empty((N, len(names)))
    for idx, val in const.items():
        values[:, idx] = val

    if len(live) == 1:
        idx = live[0]
        model = marginals.fit_kde(matrix[:, idx])
        u = np.random.default_rng(seed).random(N)
        values[:, idx] = np.asarray(marginals.inv_cdf(model, u))
    elif live:
        cols = {names[i]: matrix[:, i] for i in live}
        uniforms, models = marginals.pit_transform(cols)
        spec = rvine.select_and_fit(uniforms, candidates,
                                    column_order=[names[i] for i in live])
        u = rvine.sample(spec, N, seed)
        for pos, idx in enumerate(live):
            values[:, idx] = np.asarray(
                marginals.inv_cdf(models[names[idx]], u[:, pos])
            )

    probs = np.full(N, 1.0 / N)
    return ScenarioSet(tuple(names), values, probs, method="rvc", seed=seed)


def generate_mvn(panel: ReturnPanel, N: int, seed: int = 0) -> ScenarioSet:
    """Multivariate-normal baseline calibrated to the panel's moments."""
    if N < 1:
        raise ValueError("N must be >= 1")
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
             candidates=ALL_FAMILIES) -> ScenarioSet:
    if method == "rvc":
        return generate_rvc(panel, N, candidates, seed)
    if method == "mvn":
        return generate_mvn(panel, N, seed)
    raise ValueError(f"unknown method {method!r}")


def stability_report(panel: ReturnPanel, sizes, method: str, instance,
                     ga_config, mu_targets, seeds=(0,)) -> list[dict]:
    """Optimal-CVaR statistics per scenario-set size.

    For each size, scenario sets are generated for every seed, the model
    is solved at every return target, and descriptive statistics of the
    optimal CVaR are reported. Per-target failures are recorded, not
    raised.
    """
    from . import ga as ga_mod  # local import to avoid a module cycle
    from .model import with_return_target

    rows = []
    for size in sizes:
        cvars, failures = [], []
        for seed in seeds:
            scen = generate(panel, size, method, seed=seed)
            for mu in mu_targets:
                inst = with_return_target(instance, mu)
                try:
                    sol = ga_mod.run(inst, scen, ga_config)
                    cvars.append(sol.cvar)
                except Exception as exc:  # noqa: BLE001 - sweep must not abort
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
