import numpy as np
import pytest

from vinefolio import marginals
from vinefolio.errors import DegenerateSample, EmptyPanel


@pytest.fixture(scope="module")
def normal_sample():
    return np.random.default_rng(0).normal(0.0, 1.0, 120)


def test_bandwidth_matches_independent_rederivation(normal_sample):
    x = normal_sample
    model = marginals.fit_kde(x)
    std = np.std(x, ddof=1)
    iqr = np.subtract(*np.percentile(x, [75, 25])) / 1.349
    expected = 2.345 * min(std, iqr) * len(x) ** (-1 / 5)
    assert model.bandwidth == pytest.approx(expected, rel=1e-12)


def test_constant_sample_is_degenerate():
    with pytest.raises(DegenerateSample):
        marginals.fit_kde(np.full(50, 0.01))


def test_too_few_samples_is_degenerate():
    with pytest.raises(DegenerateSample):
        marginals.fit_kde(np.arange(7.0))


def test_symmetric_sample_gives_symmetric_density():
    x = np.concatenate([np.linspace(0.1, 2.0, 40), -np.linspace(0.1, 2.0, 40)])
    model = marginals.fit_kde(x)
    assert np.max(np.abs(model.density - model.density[::-1])) < 1e-9


def test_density_nonnegative_and_integrates_to_one(normal_sample):
    model = marginals.fit_kde(normal_sample)
    assert np.all(model.density >= 0.0)
    assert np.trapezoid(model.density, model.grid) == pytest.approx(1.0, abs=1e-6)


def test_grid_covers_three_bandwidths(normal_sample):
    model = marginals.fit_kde(normal_sample)
    h = model.bandwidth
    assert model.grid[0] == pytest.approx(normal_sample.min() - 3 * h)
    assert model.grid[-1] == pytest.approx(normal_sample.max() + 3 * h)


def test_cdf_clamps_and_is_monotone(normal_sample):
    model = marginals.fit_kde(normal_sample)
    assert marginals.cdf(model, model.grid[0] - 10.0) == 0.0
    assert marginals.cdf(model, model.grid[-1] + 10.0) == 1.0
    xs = np.linspace(model.grid[0], model.grid[-1], 500)
    us = np.asarray(marginals.cdf(model, xs))
    assert np.all(np.diff(us) >= 0.0)


def test_cdf_at_mean_of_symmetric_sample():
    x = np.concatenate([np.linspace(0.1, 2.0, 60), -np.linspace(0.1, 2.0, 60)])
    model = marginals.fit_kde(x)
    assert marginals.cdf(model, 0.0) == pytest.approx(0.5, abs=0.02)


def test_cdf_matches_empirical_ranks(normal_sample):
    model = marginals.fit_kde(normal_sample)
    u = np.asarray(marginals.cdf(model, normal_sample))
    ranks = np.argsort(np.argsort(normal_sample)) + 1
    empirical = ranks / len(normal_sample)
    # Smoothed CDF tracks the rank CDF within kernel-smoothing slack,
    # about one bandwidth of probability mass at m = 120.
    assert np.max(np.abs(u - empirical)) < 0.06


def test_inv_cdf_boundaries(normal_sample):
    model = marginals.fit_kde(normal_sample)
    assert marginals.inv_cdf(model, 0.0) == pytest.approx(model.grid[0])
    assert marginals.inv_cdf(model, 1.0) == pytest.approx(model.grid[-1])


def test_round_trip_within_grid_step(normal_sample):
    model = marginals.fit_kde(normal_sample)
    xs = np.linspace(normal_sample.min(), normal_sample.max(), 100)
    back = np.asarray(marginals.inv_cdf(model, np.asarray(marginals.cdf(model, xs))))
    assert np.max(np.abs(back - xs)) < float(model.grid[1] - model.grid[0])


def test_generalized_inverse_property(normal_sample):
    model = marginals.fit_kde(normal_sample)
    us = np.linspace(0.02, 0.98, 97)
    xs = np.asarray(marginals.inv_cdf(model, us))
    back = np.asarray(marginals.cdf(model, xs))
    assert np.max(np.abs(back - us)) < 5e-3


def test_median_of_symmetric_sample():
    x = np.concatenate([np.linspace(0.1, 2.0, 60), -np.linspace(0.1, 2.0, 60)])
    model = marginals.fit_kde(x)
    assert marginals.inv_cdf(model, 0.5) == pytest.approx(np.median(x), abs=0.02)


def test_fit_is_deterministic(normal_sample):
    a = marginals.fit_kde(normal_sample)
    b = marginals.fit_kde(normal_sample)
    assert np.array_equal(a.grid, b.grid)
    assert np.array_equal(a.density, b.density)
    assert np.array_equal(a.cdf_values, b.cdf_values)


def test_pit_transform_near_uniform(normal_sample):
    uniforms, models = marginals.pit_transform({"a": normal_sample})
    u = uniforms["a"]
    assert np.all((u >= 0.0) & (u <= 1.0))
    assert abs(u.mean() - 0.5) < 0.05
    # KS statistic of the PIT of its own fit.
    s = np.sort(u)
    m = len(s)
    ks = np.max(np.maximum(np.arange(1, m + 1) / m - s, s - np.arange(m) / m))
    assert ks < 1.36 / np.sqrt(m)
    assert "a" in models


def test_pit_transform_empty_panel():
    with pytest.raises(EmptyPanel):
        marginals.pit_transform({})


def test_pit_transform_identical_columns(normal_sample):
    uniforms, _ = marginals.pit_transform({"a": normal_sample, "b": normal_sample.copy()})
    assert np.array_equal(uniforms["a"], uniforms["b"])


def test_pit_transform_names_degenerate_column(normal_sample):
    with pytest.raises(DegenerateSample, match="bad"):
        marginals.pit_transform({"ok": normal_sample, "bad": np.full(120, 0.5)})
