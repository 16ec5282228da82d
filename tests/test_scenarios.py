import numpy as np
import pytest

from vinefolio import rvine, scenarios
from vinefolio.errors import EmptyPanel, MissingRateSeries, VinefolioError
from vinefolio.ga import GAConfig
from vinefolio.scenarios import ReturnPanel, ScenarioSet, adjust_returns

from test_acceptance import _market_instance, _market_panel


def _make_panel(m=120, seed=11, gbp_rate=0.003, usd_rate=0.002):
    rng = np.random.default_rng(seed)
    return ReturnPanel(
        periods=tuple(f"p{t}" for t in range(m)),
        assets={
            "EQ_US": rng.normal(0.006, 0.04, m),
            "EQ_UK": rng.normal(0.005, 0.05, m),
            "BD_UK": rng.normal(0.002, 0.01, m),
        },
        asset_currency={"EQ_US": "USD", "EQ_UK": "GBP", "BD_UK": "GBP"},
        currencies={"USD": np.zeros(m), "GBP": rng.normal(0.0, 0.02, m)},
        rates={"USD": np.full(m, usd_rate), "GBP": np.full(m, gbp_rate)},
        base="USD",
    )


# ---------------------------------------------------------------------------
# adjust_returns
# ---------------------------------------------------------------------------


def test_zero_rates_identity():
    panel = _make_panel(gbp_rate=0.0, usd_rate=0.0)
    adj = adjust_returns(panel)
    for name in panel.assets:
        assert np.array_equal(adj.assets[name], panel.assets[name])
    for name in panel.currencies:
        assert np.array_equal(adj.currencies[name], panel.currencies[name])


def test_single_country_rate_terms_cancel():
    panel = _make_panel()
    adj = adjust_returns(panel)
    # Exposure 1 to asset and 1 to its currency: rates cancel exactly.
    total = adj.assets["EQ_UK"] + adj.currencies["GBP"]
    raw = panel.assets["EQ_UK"] + panel.currencies["GBP"]
    assert np.allclose(total, raw, atol=1e-15)


def test_adjusted_identity_worked_numbers():
    # Exposures 0.5 asset / 0.6 currency with r_a=2%, r_c=1%, i=3%:
    # both forms equal 0.5*(-1%) + 0.6*(4%) = 1.9%.
    a, c, ra, rc, i = 0.5, 0.6, 0.02, 0.01, 0.03
    adjusted_form = a * (ra - i) + c * (rc + i)
    raw_form = a * ra + c * rc + (c - a) * i
    assert adjusted_form == pytest.approx(0.019, abs=1e-15)
    assert adjusted_form == pytest.approx(raw_form, abs=1e-15)


def test_adjusted_identity_property():
    rng = np.random.default_rng(0)
    for _ in range(1000):
        a, c = rng.normal(size=2)
        ra, rc, i = rng.normal(scale=0.05, size=3)
        lhs = a * (ra - i) + c * (rc + i)
        rhs = a * ra + c * rc + (c - a) * i
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-15)


def test_missing_rate_series():
    panel = _make_panel()
    broken = ReturnPanel(
        periods=panel.periods, assets=panel.assets,
        asset_currency=panel.asset_currency, currencies=panel.currencies,
        rates={"USD": panel.rates["USD"]}, base="USD",
    )
    with pytest.raises(MissingRateSeries):
        adjust_returns(broken)


def test_adjust_is_idempotent():
    adj = adjust_returns(_make_panel())
    again = adjust_returns(adj)
    assert again is adj


# ---------------------------------------------------------------------------
# generate_rvc
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def adjusted_panel():
    return adjust_returns(_make_panel())


@pytest.fixture(scope="module")
def rvc_1000(adjusted_panel):
    return scenarios.generate_rvc(adjusted_panel, 1000, seed=3)


def test_rvc_columns_and_probabilities(rvc_1000, adjusted_panel):
    assert rvc_1000.columns == tuple(adjusted_panel.column_names())
    assert rvc_1000.n_scenarios == 1000
    assert np.allclose(rvc_1000.probabilities, 1 / 1000)
    assert rvc_1000.probabilities.sum() == pytest.approx(1.0, abs=1e-12)


def test_rvc_mean_consistency(rvc_1000, adjusted_panel):
    from vinefolio import marginals
    matrix = adjusted_panel.column_matrix()
    for pos, name in enumerate(adjusted_panel.column_names()):
        col = matrix[:, pos]
        if marginals.effectively_constant(col):
            continue
        tol = 2.0 * col.std(ddof=1) / np.sqrt(1000) + 0.25 * col.std(ddof=1)
        assert rvc_1000.column(name).mean() == pytest.approx(col.mean(), abs=tol)


def test_rvc_respects_kde_range(rvc_1000, adjusted_panel):
    from vinefolio import marginals
    matrix = adjusted_panel.column_matrix()
    for pos, name in enumerate(adjusted_panel.column_names()):
        col = matrix[:, pos]
        if marginals.effectively_constant(col):
            continue
        h = marginals.silverman_bandwidth(col)
        gen = rvc_1000.column(name)
        assert gen.min() >= col.min() - 3 * h - 1e-12
        assert gen.max() <= col.max() + 3 * h + 1e-12


def test_rvc_constant_column_carried_through(adjusted_panel):
    # The base currency's adjusted return is the constant base rate.
    scen = scenarios.generate_rvc(adjusted_panel, 50, seed=1)
    assert np.allclose(scen.column("USD"), adjusted_panel.currencies["USD"][0])


def test_rvc_deterministic(adjusted_panel):
    a = scenarios.generate_rvc(adjusted_panel, 200, seed=9)
    b = scenarios.generate_rvc(adjusted_panel, 200, seed=9)
    assert np.array_equal(a.values, b.values)


def test_rvc_column_ks_against_fitted_marginal(rvc_1000, adjusted_panel):
    from vinefolio import marginals
    N = rvc_1000.n_scenarios
    matrix = adjusted_panel.column_matrix()
    for pos, name in enumerate(adjusted_panel.column_names()):
        col = matrix[:, pos]
        if marginals.effectively_constant(col):
            continue
        model = marginals.fit_kde(col)
        u = np.sort(np.asarray(marginals.cdf(model, rvc_1000.column(name))))
        ks = np.max(np.maximum(np.arange(1, N + 1) / N - u, u - np.arange(N) / N))
        assert ks < 1.63 / np.sqrt(N)


def test_rvc_preserves_heavy_tail_minimum():
    # Heavy-tailed synthetic column: the empirical minimum survives under
    # the KDE/vine pipeline but a normal approximation truncates it.
    rng = np.random.default_rng(42)
    m = 120
    heavy = rng.standard_t(2, m) * 0.05
    heavy[rng.integers(0, m)] = -0.49
    panel = ReturnPanel(
        periods=tuple(f"p{t}" for t in range(m)),
        assets={"H": heavy, "N": rng.normal(0, 0.03, m)},
        asset_currency={"H": "USD", "N": "USD"},
        currencies={"USD": np.zeros(m)},
        rates={"USD": np.zeros(m)},
        base="USD",
    )
    adj = adjust_returns(panel)
    rvc = scenarios.generate_rvc(adj, 20_000, seed=5)
    mvn = scenarios.generate_mvn(adj, 20_000, seed=5)
    assert rvc.column("H").min() == pytest.approx(heavy.min(), abs=0.05)
    assert mvn.column("H").min() > heavy.min() + 0.1


def test_empty_panel_rejected():
    empty = ReturnPanel(periods=(), assets={}, asset_currency={},
                        currencies={}, rates={}, base="USD")
    with pytest.raises(EmptyPanel):
        scenarios.generate_rvc(empty, 10)


def _one_live_panel(m=60):
    rng = np.random.default_rng(3)
    return adjust_returns(ReturnPanel(
        periods=tuple(f"p{t}" for t in range(m)),
        assets={"A": rng.normal(0.0, 0.02, m)}, asset_currency={"A": "USD"},
        currencies={"USD": np.zeros(m)}, rates={"USD": np.full(m, 0.001)},
        base="USD",
    ))


@pytest.mark.parametrize("N", [1, 500])
@pytest.mark.parametrize("which", ["constant-column", "one-live-column"])
def test_generate_with_fitted_model_is_bit_identical(adjusted_panel, which, N):
    panel = adjusted_panel if which == "constant-column" else _one_live_panel()
    fitted = scenarios.fit_rvc(panel)
    assert len(fitted.live) == (4 if which == "constant-column" else 1)
    fresh = scenarios.generate(panel, N, "rvc", seed=6)
    reused = scenarios.generate(panel, N, "rvc", seed=6, fitted=fitted)
    assert reused.columns == fresh.columns
    assert reused.values.tobytes() == fresh.values.tobytes()
    assert reused.probabilities.tobytes() == fresh.probabilities.tobytes()


def _counting_select_and_fit(monkeypatch):
    calls = []
    real = rvine.select_and_fit

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)
    monkeypatch.setattr(rvine, "select_and_fit", counted)
    return calls


def test_stability_report_fits_the_vine_once(monkeypatch):
    panel = adjust_returns(_market_panel())
    inst = _market_instance()
    cfg = GAConfig(population=8, generations=2, seed=0, elite_count=1,
                   recourse_mode="no-recourse-trades")
    args = (panel, (30, 60), "rvc", inst, cfg, (0.0, 0.004), (0, 1))
    calls = _counting_select_and_fit(monkeypatch)
    rows = scenarios.stability_report(*args)
    assert len(calls) == 1

    # Reference: every set drawn by its own generate call, which refits.
    real_generate = scenarios.generate
    monkeypatch.setattr(scenarios, "generate",
                        lambda panel, N, method, seed=0, fitted=None:
                        real_generate(panel, N, method, seed=seed))
    refit = scenarios.stability_report(*args)
    assert len(calls) == 1 + 1 + 4   # its own unused fit, then one per set
    assert [r["size"] for r in rows] == [30, 60]
    for row, ref in zip(rows, refit):
        assert row.keys() == ref.keys()
        for key in row:
            assert repr(row[key]) == repr(ref[key]), key


# ---------------------------------------------------------------------------
# generate_mvn
# ---------------------------------------------------------------------------


def test_mvn_moments(adjusted_panel):
    scen = scenarios.generate_mvn(adjusted_panel, 100_000, seed=7)
    matrix = adjusted_panel.column_matrix()
    live = matrix.std(axis=0) > 0
    mean_in = matrix.mean(axis=0)
    cov_in = np.cov(matrix, rowvar=False, ddof=1)
    mean_out = scen.values.mean(axis=0)
    cov_out = np.cov(scen.values, rowvar=False, ddof=1)
    scale = np.abs(mean_in[live]) + matrix.std(axis=0)[live]
    assert np.all(np.abs(mean_out[live] - mean_in[live]) <= 0.005 * scale + 1e-6)
    rel = np.linalg.norm(cov_out - cov_in) / np.linalg.norm(cov_in)
    assert rel < 0.05


def test_mvn_diagonal_input_uncorrelated():
    rng = np.random.default_rng(1)
    m, N = 2000, 10_000
    panel = ReturnPanel(
        periods=tuple(f"p{t}" for t in range(m)),
        assets={"A": rng.normal(0, 0.01, m), "B": rng.normal(0, 0.02, m)},
        asset_currency={"A": "USD", "B": "USD"},
        currencies={"USD": np.zeros(m)},
        rates={"USD": np.zeros(m)},
        base="USD",
    )
    scen = scenarios.generate_mvn(adjust_returns(panel), N, seed=2)
    corr = np.corrcoef(scen.column("A"), scen.column("B"))[0, 1]
    # Input correlation is itself only ~1/sqrt(m); allow both noise terms.
    assert abs(corr) < 2 / np.sqrt(N) + 2 / np.sqrt(m)


def test_mvn_deterministic(adjusted_panel):
    a = scenarios.generate_mvn(adjusted_panel, 500, seed=4)
    b = scenarios.generate_mvn(adjusted_panel, 500, seed=4)
    assert np.array_equal(a.values, b.values)


def test_scenario_set_validates():
    with pytest.raises(ValueError):
        ScenarioSet(("a",), np.array([[np.inf]]), np.array([1.0]))
    with pytest.raises(ValueError):
        ScenarioSet(("a",), np.array([[0.0]]), np.array([0.7]))


def test_scenario_set_errors_are_named():
    with pytest.raises(VinefolioError):
        ScenarioSet(("a",), np.array([[np.nan]]), np.array([1.0]))
    with pytest.raises(VinefolioError):
        ScenarioSet(("a",), np.array([[0.0]]), np.array([0.7]))


def test_generate_dispatch(adjusted_panel):
    r = scenarios.generate(adjusted_panel, 50, "rvc", seed=1)
    m = scenarios.generate(adjusted_panel, 50, "mvn", seed=1)
    assert r.method == "rvc" and m.method == "mvn"
    with pytest.raises(ValueError):
        scenarios.generate(adjusted_panel, 50, "bootstrap")
