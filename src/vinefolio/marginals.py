"""Kernel-smoothed marginal return distributions.

Each return series gets an Epanechnikov kernel density on a fixed grid,
from which a monotone CDF and its generalized inverse are tabulated.
These provide the probability integral transform into copula space and
the inverse transform back to returns.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateSample, EmptyPanel

GRID_SIZE = 1024
MIN_SAMPLES = 8

# Silverman's rule-of-thumb constant adjusted for the Epanechnikov kernel.
EPANECHNIKOV_SILVERMAN_CONSTANT = 2.345


def effectively_constant(samples) -> bool:
    """True when the spread is below floating-point noise at the data's scale.

    A column of identical values can still report a std of ~1e-19 from
    cancellation in the mean; treating such columns as live would fit a
    density on pure rounding noise.
    """
    x = np.asarray(samples, dtype=float).ravel()
    scale = max(1.0, float(np.max(np.abs(x))) if x.size else 0.0)
    return float(np.std(x, ddof=1)) <= 1e-12 * scale


def silverman_bandwidth(samples: np.ndarray) -> float:
    """Rule-of-thumb bandwidth: 2.345 * min(std, IQR/1.349) * m^(-1/5)."""
    m = samples.size
    std = float(np.std(samples, ddof=1))
    q75, q25 = np.percentile(samples, [75.0, 25.0])
    iqr_scale = (q75 - q25) / 1.349
    sigma = min(std, iqr_scale) if iqr_scale > 0 else std
    return EPANECHNIKOV_SILVERMAN_CONSTANT * sigma * m ** (-0.2)


@dataclass(frozen=True)
class MarginalModel:
    """Immutable fitted marginal: density, CDF table and inverse on a grid."""

    samples: np.ndarray
    bandwidth: float
    grid: np.ndarray
    density: np.ndarray
    cdf_values: np.ndarray = field(repr=False)


def fit_kde(samples) -> MarginalModel:
    """Fit an Epanechnikov KDE to a return series.

    The grid spans [min - 3h, max + 3h] with 1024 points; the density is
    renormalized so its trapezoid integral is exactly 1, which bounds the
    CDF tabulation error by the grid resolution.

    Raises
    ------
    DegenerateSample
        If fewer than 8 finite samples, or the sample is constant.
    """
    x = np.asarray(samples, dtype=float).ravel()
    if x.size < MIN_SAMPLES or not np.all(np.isfinite(x)):
        raise DegenerateSample(f"need >= {MIN_SAMPLES} finite samples, got {x.size}")
    if effectively_constant(x):
        raise DegenerateSample("sample is constant")

    h = silverman_bandwidth(x)
    grid = np.linspace(x.min() - 3.0 * h, x.max() + 3.0 * h, GRID_SIZE)

    # Epanechnikov kernel sums, vectorized over (grid, samples).
    t = (grid[:, None] - x[None, :]) / h
    kern = np.where(np.abs(t) <= 1.0, 0.75 * (1.0 - t * t), 0.0)
    dens = kern.sum(axis=1) / (x.size * h)

    total = np.trapezoid(dens, grid)
    dens = dens / total
    cdf = np.concatenate(([0.0], np.cumsum(np.diff(grid) * 0.5 * (dens[1:] + dens[:-1]))))
    cdf = np.maximum.accumulate(np.clip(cdf, 0.0, 1.0))  # guard rounding
    cdf[-1] = 1.0
    return MarginalModel(samples=x, bandwidth=h, grid=grid, density=dens, cdf_values=cdf)


def cdf(model: MarginalModel, x) -> np.ndarray | float:
    """Smoothed CDF value(s) at x, clamped to [0, 1] outside the grid."""
    u = np.interp(np.asarray(x, dtype=float), model.grid, model.cdf_values, left=0.0, right=1.0)
    return u if u.ndim else float(u)


def inv_cdf(model: MarginalModel, u) -> np.ndarray | float:
    """Generalized inverse of the tabulated CDF by interpolation.

    u = 0 and u = 1 map to the grid endpoints.
    """
    uu = np.clip(np.asarray(u, dtype=float), 0.0, 1.0)
    x = np.interp(uu, model.cdf_values, model.grid)
    # The CDF table may be flat at the tails; pin the exact endpoints.
    x = np.where(uu <= 0.0, model.grid[0], x)
    x = np.where(uu >= 1.0, model.grid[-1], x)
    return x if x.ndim else float(x)


def pit_transform(columns: dict[str, np.ndarray]) -> tuple[dict[str, np.ndarray], dict[str, MarginalModel]]:
    """Probability integral transform of every column through its own fit.

    Returns the uniform pseudo-observations and the fitted models, keyed
    by column name. Degenerate columns raise with the column named.
    """
    if not columns:
        raise EmptyPanel("no columns to transform")
    models: dict[str, MarginalModel] = {}
    uniforms: dict[str, np.ndarray] = {}
    for name, series in columns.items():
        try:
            model = fit_kde(series)
        except DegenerateSample as exc:
            raise DegenerateSample(f"column {name!r}: {exc}") from exc
        models[name] = model
        uniforms[name] = np.asarray(cdf(model, series))
    return uniforms, models
