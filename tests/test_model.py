import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from vinefolio import ga, model, overlay
from vinefolio.errors import EmptyScenarios, InvalidParameter, MissingColumn
from vinefolio.model import (
    Instance, Solution, cvar_objective, evaluate, evaluate_first_stage,
    evaluate_recourse, expected_return, instance_from_dict, instance_to_dict,
    load_instance, save_instance, scenario_prices,
    with_return_target, zero_solution,
)
from vinefolio.scenarios import ScenarioSet

from test_acceptance import _market_instance
from test_ga import _four_currency_instance, _scenarios_for, _tiny_instance


def _make_instance(**overrides):
    """Two assets (EQ in USD, BD in GBP), one GBP/USD forward, base USD."""
    kwargs = dict(
        assets=("EQ", "BD"),
        asset_currency=("USD", "GBP"),
        currencies=("USD", "GBP"),
        base="USD",
        forward_pairs=((1, 0),),          # long GBP, short USD
        mu=0.0,
        beta=0.9,
        a_min=np.zeros(2),
        a_max=np.full(2, np.inf),
        c_min=np.array([10.0, 5.0]),
        c_max=np.full(2, np.inf),
        t_min_asset=np.array([1.0, 1.0]),
        t_min_forward=np.array([2.0]),
        v_u=0.5,
        k_c=2,
        k_g=1,
        margin_rate=0.1,
        big_b=1000.0,
        h0=100.0,
        a0=np.zeros(2),
        q0=np.zeros(1),
        w0=100.0,
        fixed_buy_asset=np.array([0.5, 0.3]),
        fixed_sell_asset=np.array([0.4, 0.2]),
        var_buy_asset=np.array([0.01, 0.02]),
        var_sell_asset=np.array([0.01, 0.01]),
        fixed_buy_forward=np.array([0.2]),
        fixed_sell_forward=np.array([0.1]),
        var_buy_forward=np.array([0.01]),
        var_sell_forward=np.array([0.01]),
        p0_asset=np.array([10.0, 20.0]),
        p0_forward=np.array([5.0]),
    )
    kwargs.update(overrides)
    return Instance(**kwargs)


def _costless(**overrides):
    zero2, zero1 = np.zeros(2), np.zeros(1)
    base = dict(
        fixed_buy_asset=zero2, fixed_sell_asset=zero2,
        var_buy_asset=zero2, var_sell_asset=zero2,
        fixed_buy_forward=zero1, fixed_sell_forward=zero1,
        var_buy_forward=zero1, var_sell_forward=zero1,
        t_min_asset=zero2, t_min_forward=zero1,
        c_min=np.full(2, -np.inf), margin_rate=0.0,
    )
    base.update(overrides)
    return _make_instance(**base)


def _hand_solution():
    return Solution(
        b_asset=np.array([4.0, 2.0]), s_asset=np.zeros(2),
        x_asset=np.ones(2), y_asset=np.zeros(2),
        b_fwd=np.array([3.0]), s_fwd=np.zeros(1),
        x_fwd=np.ones(1), y_fwd=np.zeros(1),
        z=np.ones(2),
    )


def _scenario_set(rows, columns=("EQ", "BD", "USD", "GBP")):
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    n = rows.shape[0]
    return ScenarioSet(tuple(columns), rows, np.full(n, 1.0 / n))


# ---------------------------------------------------------------------------
# Instance validation and serialization
# ---------------------------------------------------------------------------


def test_instance_validation():
    with pytest.raises(InvalidParameter):
        _make_instance(beta=1.0)
    with pytest.raises(InvalidParameter):
        _make_instance(margin_rate=-0.1)
    with pytest.raises(InvalidParameter):
        _make_instance(v_u=1.5)
    with pytest.raises(InvalidParameter):
        _make_instance(w0=0.0)
    with pytest.raises(InvalidParameter):
        _make_instance(base="EUR")
    with pytest.raises(InvalidParameter):
        _make_instance(c_min=np.array([1.0, 1.0]), c_max=np.array([0.0, 0.0]))
    with pytest.raises(InvalidParameter, match="currency 'EUR' not in universe"):
        _make_instance(asset_currency=("USD", "EUR"))
    for pair in ((1, 1), (2, 0), (0, -1)):
        with pytest.raises(InvalidParameter, match="two different currencies"):
            _make_instance(forward_pairs=(pair,))
    for limits in ({"k_c": -1}, {"k_g": -1}):
        with pytest.raises(InvalidParameter, match="k_c and k_g must be >= 0"):
            _make_instance(**limits)
    for key in ("mu", "w0", "h0"):
        for value in (np.nan, np.inf, -np.inf):
            with pytest.raises(InvalidParameter, match=f"{key} must be finite"):
                _make_instance(**{key: value})
    # Every number field, scalar or one entry of an array; a bound may be
    # infinite on its open side only.
    open_side = {"a_max": np.inf, "c_min": -np.inf, "c_max": np.inf}
    inst = _make_instance()
    for key, field_value in vars(inst).items():
        if isinstance(field_value, (str, tuple)):
            continue
        for value in (np.nan, np.inf, -np.inf):
            if isinstance(field_value, np.ndarray):
                value = np.concatenate([[value], field_value[1:]])
            if np.all(np.isfinite(value) | (value == open_side.get(key))):
                _make_instance(**{key: value})
                continue
            with pytest.raises(InvalidParameter, match=f"{key} must be finite, got"):
                _make_instance(**{key: value})
    with pytest.raises(InvalidParameter, match="mu must be finite"):
        with_return_target(_make_instance(), float("nan"))


def test_with_return_target():
    inst = _make_instance()
    assert with_return_target(inst, 0.03).mu == 0.03
    assert inst.mu == 0.0


def test_derived_target_shares_column_cache():
    # A target instance shares the shaped-column cache of the instance it
    # is derived from, and evaluates as a freshly built one, bit for bit.
    inst = _four_currency_instance()
    scen = _scenarios_for(inst, 200, 3)
    sols = _random_solutions(inst, np.random.default_rng(3), 6)
    p_a, p_f = scenario_prices(inst, scen)
    model.population_fitness(inst, sols, scen, p_a, p_f)     # fills inst's cache
    derived = with_return_target(inst, 0.01)
    assert derived._columns is inst._columns
    fresh = _four_currency_instance(mu=0.01)
    got = model.population_fitness(derived, sols, scen, p_a, p_f)
    assert np.array_equal(got, model.population_fitness(fresh, sols, scen, p_a, p_f))
    assert fresh._columns is not inst._columns


def test_forward_sign_matrix():
    T = _make_instance().forward_sign_matrix()
    assert np.array_equal(T, [[-1, 1]])


def test_default_big_b():
    assert model.default_big_b(100.0, np.array([4.0, 2.0])) == 500.0


def test_instance_json_round_trip(tmp_path):
    inst = _make_instance()
    path = tmp_path / "instance.json"
    save_instance(inst, str(path))
    back = load_instance(str(path))
    assert back.assets == inst.assets
    assert back.currencies == inst.currencies
    assert back.forward_pairs == inst.forward_pairs
    assert back.base == inst.base
    for name in ("mu", "beta", "v_u", "k_c", "k_g", "margin_rate",
                 "big_b", "h0", "w0"):
        assert getattr(back, name) == getattr(inst, name)
    for name in ("a_min", "a_max", "c_min", "c_max", "t_min_asset",
                 "t_min_forward", "a0", "q0", "p0_asset", "p0_forward",
                 "fixed_buy_asset", "fixed_sell_asset", "var_buy_asset",
                 "var_sell_asset", "fixed_buy_forward", "fixed_sell_forward",
                 "var_buy_forward", "var_sell_forward"):
        assert np.array_equal(getattr(back, name), getattr(inst, name)), name
    assert instance_to_dict(back) == instance_to_dict(inst)


def test_instance_from_dict_defaults():
    inst = instance_from_dict({
        "assets": [{"name": "A", "currency": "USD", "price": 2.0}],
        "currencies": [{"name": "USD"}],
        "base": "USD",
        "params": {"w0": 50.0},
    })
    assert inst.n_forwards == 0
    assert inst.beta == 0.95
    assert inst.h0 == 50.0
    assert inst.big_b == model.default_big_b(50.0, np.array([2.0]))
    assert np.isinf(inst.a_max[0]) and np.isinf(inst.c_max[0])


# ---------------------------------------------------------------------------
# Scenario prices
# ---------------------------------------------------------------------------


def test_scenario_prices_zero_returns():
    inst = _make_instance()
    scen = _scenario_set([[0.0, 0.0, 0.0, 0.0]])
    p_a, p_f = scenario_prices(inst, scen)
    assert np.array_equal(p_a, [[10.0, 20.0]])
    assert np.array_equal(p_f, [[5.0]])


def test_scenario_prices_symmetric_legs_cancel():
    inst = _make_instance()
    scen = _scenario_set([[0.0, 0.0, 0.03, 0.03]])
    p_a, p_f = scenario_prices(inst, scen)
    # equal leg returns leave the forward unchanged
    assert p_f[0, 0] == pytest.approx(5.0, abs=1e-15)
    # asset prices pick up the currency move
    assert p_a[0] == pytest.approx([10.0 * 1.03, 20.0 * 1.03], abs=1e-12)


def test_scenario_prices_hand_value():
    inst = _make_instance()
    scen = _scenario_set([[0.01, 0.0, 0.005, 0.02]])
    p_a, p_f = scenario_prices(inst, scen)
    assert p_a[0, 0] == pytest.approx(10.0 * 1.015, abs=1e-12)
    assert p_a[0, 1] == pytest.approx(20.0 * 1.02, abs=1e-12)
    # long GBP short USD: 5 * (1 + 0.02 - 0.005)
    assert p_f[0, 0] == pytest.approx(5.0 * 1.015, abs=1e-12)


def test_scenario_prices_missing_column():
    inst = _make_instance()
    scen = _scenario_set([[0.0, 0.0, 0.0]], columns=("EQ", "BD", "USD"))
    with pytest.raises(MissingColumn):
        scenario_prices(inst, scen)


# ---------------------------------------------------------------------------
# First stage: hand-computed oracle
# ---------------------------------------------------------------------------


def test_first_stage_hand_oracle():
    inst = _make_instance()
    first = evaluate_first_stage(inst, _hand_solution())
    assert np.array_equal(first.a, [4.0, 2.0])
    assert np.array_equal(first.q, [3.0])
    assert np.array_equal(first.q_value, [15.0])
    # outlay 4*10 + 2*20 + 3*5 = 95; costs 0.5+0.3 + 0.01*40+0.02*40
    # + 0.2 + 0.01*15 = 2.35; cash left 100 - 97.35
    assert first.free_cash == pytest.approx(2.65, abs=1e-12)
    # long GBP short USD, 15 of value
    assert np.array_equal(first.F, [[-15.0, 15.0]])
    assert first.margin == pytest.approx(1.5, abs=1e-12)
    # exposures: USD 40 - 15 + 1.5 margin, GBP 40 + 15
    assert first.c == pytest.approx([26.5, 55.0], abs=1e-12)
    assert float(sum(first.residuals.values())) == 0.0


def test_first_stage_cash_violation():
    inst = _make_instance(h0=90.0)
    first = evaluate_first_stage(inst, _hand_solution())
    assert first.free_cash == 0.0
    assert first.residuals["cash_balance"] == pytest.approx(0.0735, abs=1e-12)


def _held_instance(values, currencies, base, forwards=(), margin=0.0):
    """One asset per currency worth `values[j]` at price 1, and forwards
    (long, short, q0) held at price 1; nothing is traded."""
    return instance_from_dict({
        "assets": [{"name": f"A_{c}", "currency": c, "price": 1.0, "a0": v}
                   for c, v in zip(currencies, values)],
        "currencies": [{"name": c} for c in currencies], "base": base,
        "forwards": [{"pair": [long, short], "q0": q0} for long, short, q0 in forwards],
        "params": {"w0": 1.0, "margin": margin},
    })


def test_first_stage_exposure_no_forwards_no_margin():
    inst = _held_instance([10.0, 5.0], ("USD", "GBP"), "USD")
    assert evaluate_first_stage(inst, zero_solution(inst)).c == pytest.approx([10.0, 5.0])


def test_first_stage_exposure_identity_with_overlay():
    # The overlay module's worked example: 9% buying GBP against USD, 1%
    # buying USD against JPY, 2% buying JPY against GBP.
    values = np.array([0.5, 0.3, 0.2])
    inst = _held_instance(values, ("USD", "GBP", "JPY"), "USD", forwards=[
        ("USD", "GBP", -0.09), ("USD", "JPY", 0.01), ("GBP", "JPY", -0.02)])
    first = evaluate_first_stage(inst, zero_solution(inst))
    assert overlay.overlay_positions(first.F) == pytest.approx([-0.08, 0.07, 0.01], abs=1e-12)
    assert first.c == pytest.approx(values + overlay.overlay_positions(first.F))


def test_first_stage_exposure_margin_to_base():
    # GBP 1 and USD 2 of assets, base USD second; 0.5 of a GBP/USD forward
    # at price 1 and margin rate 0.5 posts 0.25 of USD margin:
    # GBP 1 + 0.5, USD 2 - 0.5 + 0.25.
    inst = _held_instance([1.0, 2.0], ("GBP", "USD"), "USD",
                          forwards=[("GBP", "USD", 0.5)], margin=0.5)
    first = evaluate_first_stage(inst, zero_solution(inst))
    assert first.margin == pytest.approx(0.25)
    assert first.c == pytest.approx([1.5, 1.75])


def test_first_stage_currency_floor_violation():
    inst = _make_instance(c_min=np.array([10.0, 60.0]))
    first = evaluate_first_stage(inst, _hand_solution())
    # GBP exposure 55 < 60 with z=1: shortfall 5, scaled by w0
    assert first.residuals["currency_exposure"] == pytest.approx(0.05, abs=1e-12)


def test_first_stage_binary_conflict_and_minimums():
    inst = _make_instance()
    sol = zero_solution(inst)
    sol = Solution(**{**sol.__dict__, "x_asset": np.array([1.0, 0.0]),
                      "y_asset": np.array([1.0, 0.0])})
    first = evaluate_first_stage(inst, sol)
    assert first.residuals["buy_or_sell_asset"] == 1.0
    # flags on with zero trades violate both t_min legs: 2 * 1 * 10 / 100
    assert first.residuals["trade_size_asset"] == pytest.approx(0.2, abs=1e-12)


def test_first_stage_overlay_limit():
    # With v_u = 0 any nonzero overlay violates by its full size / w0.
    inst = _costless(v_u=0.0)
    sol = Solution(**{**zero_solution(inst).__dict__,
                      "b_fwd": np.array([4.0]), "x_fwd": np.ones(1)})
    first = evaluate_first_stage(inst, sol)
    assert first.residuals["total_overlay"] == pytest.approx(0.2, abs=1e-12)


def test_first_stage_cardinality_and_activity():
    inst = _make_instance(k_c=1)
    sol = Solution(**{**zero_solution(inst).__dict__, "z": np.ones(2)})
    first = evaluate_first_stage(inst, sol)
    assert first.residuals["currency_cardinality"] == 1.0
    # z demands a trade in each currency; none happened
    assert first.residuals["country_activity"] == 2.0


def test_first_stage_negative_trades_penalized():
    inst = _make_instance()
    sol = Solution(**{**zero_solution(inst).__dict__,
                      "b_asset": np.array([-2.0, 0.0]),
                      "x_asset": np.array([1.0, 0.0])})
    first = evaluate_first_stage(inst, sol)
    assert first.residuals["nonnegative_trades"] == pytest.approx(0.2, abs=1e-12)


# ---------------------------------------------------------------------------
# Recourse and wealth
# ---------------------------------------------------------------------------


def test_recourse_hand_oracle_no_trades():
    inst = _make_instance()
    first = evaluate_first_stage(inst, _hand_solution())
    scen = _scenario_set([[0.1, -0.05, 0.0, 0.02]])
    p_a, p_f = scenario_prices(inst, scen)
    rep = evaluate_recourse(inst, _hand_solution(), first, p_a, p_f)
    # prices: EQ 11, BD 19.4, fwd 5.1
    assert rep.wealth[0] == pytest.approx(
        4 * 11 + 2 * 19.4 + 3 * 5.1 + 0.1 * 3 * 5.1 + 2.65, abs=1e-12)
    assert all(np.all(v == 0.0) for v in rep.residuals.values())


def test_recourse_hand_oracle_with_sale():
    inst = _make_instance()
    sol0 = _hand_solution()
    rz = np.ones((1, 2))
    sol = Solution(**{**sol0.__dict__,
                      "rb_asset": np.zeros((1, 2)), "rs_asset": np.array([[1.0, 0.0]]),
                      "rx_asset": np.zeros((1, 2)), "ry_asset": np.array([[1.0, 0.0]]),
                      "rb_fwd": np.zeros((1, 1)), "rs_fwd": np.zeros((1, 1)),
                      "rx_fwd": np.zeros((1, 1)), "ry_fwd": np.zeros((1, 1)),
                      "rz": rz})
    first = evaluate_first_stage(inst, sol)
    scen = _scenario_set([[0.1, -0.05, 0.0, 0.02]])
    p_a, p_f = scenario_prices(inst, scen)
    rep = evaluate_recourse(inst, sol, first, p_a, p_f)
    assert np.array_equal(rep.a, [[3.0, 2.0]])
    # sell 1 EQ at 11, costs 0.4 + 0.01*11; cash 2.65 + 11 - 0.51
    assert rep.free_cash[0] == pytest.approx(13.14, abs=1e-12)
    assert rep.wealth[0] == pytest.approx(
        3 * 11 + 2 * 19.4 + 3 * 5.1 + 0.1 * 3 * 5.1 + 13.14, abs=1e-12)


def test_value_conservation_zero_costs_zero_returns():
    # No costs, no margin, flat prices: wealth must equal W0 exactly
    # for any affordable trade.
    inst = _costless()
    sol = _hand_solution()
    first = evaluate_first_stage(inst, sol)
    scen = _scenario_set([[0.0, 0.0, 0.0, 0.0]])
    p_a, p_f = scenario_prices(inst, scen)
    rep = evaluate_recourse(inst, sol, first, p_a, p_f)
    assert rep.wealth[0] == pytest.approx(100.0, abs=1e-10)


def test_forward_purchase_is_wealth_neutral():
    inst = _costless()
    sol = Solution(**{**zero_solution(inst).__dict__,
                      "b_fwd": np.array([2.0]), "x_fwd": np.ones(1)})
    first = evaluate_first_stage(inst, sol)
    assert first.free_cash == pytest.approx(90.0, abs=1e-12)
    scen = _scenario_set([[0.0, 0.0, 0.0, 0.0]])
    p_a, p_f = scenario_prices(inst, scen)
    rep = evaluate_recourse(inst, sol, first, p_a, p_f)
    assert rep.wealth[0] == pytest.approx(100.0, abs=1e-12)


def test_recourse_vectorization_matches_single_rows():
    inst = _make_instance()
    sol = _hand_solution()
    first = evaluate_first_stage(inst, sol)
    rng = np.random.default_rng(0)
    rows = rng.normal(0.0, 0.03, (6, 4))
    scen = _scenario_set(rows)
    p_a, p_f = scenario_prices(inst, scen)
    rep = evaluate_recourse(inst, sol, first, p_a, p_f)
    for r in range(6):
        row = evaluate_recourse(inst, sol, first, p_a[r:r + 1], p_f[r:r + 1])
        assert rep.wealth[r] == pytest.approx(row.wealth[0], abs=1e-12)


# ---------------------------------------------------------------------------
# CVaR objective
# ---------------------------------------------------------------------------


def test_cvar_uniform_1_to_100():
    losses = np.arange(1.0, 101.0)
    p = np.full(100, 0.01)
    alpha, cvar, excess = cvar_objective(losses, p, 0.95)
    assert alpha == 95.0
    assert cvar == pytest.approx(98.0, abs=1e-12)
    assert excess.sum() == pytest.approx(15.0, abs=1e-12)


def test_cvar_minimizes_rockafellar_uryasev():
    # CVaR must equal the minimum of the auxiliary function
    # a + E[(L-a)+]/(1-beta) over candidate thresholds a.
    rng = np.random.default_rng(1)
    for _ in range(500):
        n = int(rng.integers(5, 60))
        losses = rng.normal(0.0, 1.0, n)
        p = rng.random(n)
        p = p / p.sum()
        beta = float(rng.uniform(0.5, 0.99))
        alpha, cvar, _ = cvar_objective(losses, p, beta)
        # the discrete minimizer is always one of the loss values
        aux = np.array([
            a + (p * np.maximum(losses - a, 0.0)).sum() / (1.0 - beta)
            for a in losses
        ])
        assert cvar == pytest.approx(aux.min(), abs=1e-10)


def test_cvar_positive_homogeneity_and_translation():
    rng = np.random.default_rng(2)
    losses = rng.normal(size=40)
    p = np.full(40, 1 / 40)
    _, cvar, _ = cvar_objective(losses, p, 0.9)
    _, scaled, _ = cvar_objective(3.5 * losses, p, 0.9)
    _, shifted, _ = cvar_objective(losses + 1.25, p, 0.9)
    assert scaled == pytest.approx(3.5 * cvar, abs=1e-12)
    assert shifted == pytest.approx(cvar + 1.25, abs=1e-12)


def test_cvar_monotone_in_losses():
    rng = np.random.default_rng(3)
    losses = rng.normal(size=30)
    p = np.full(30, 1 / 30)
    bigger = losses + rng.random(30)
    assert cvar_objective(bigger, p, 0.9)[1] >= cvar_objective(losses, p, 0.9)[1]


def test_cvar_empty_rejected():
    with pytest.raises(EmptyScenarios):
        cvar_objective(np.array([]), np.array([]), 0.9)


def _reference_cvar(losses, p, beta):
    """The sorted-order computation, one loss vector at a time."""
    order = np.argsort(losses, kind="stable")
    pos = min(int(np.searchsorted(np.cumsum(p[order]), beta - 1e-15)), losses.size - 1)
    alpha = float(losses[order[pos]])
    return alpha, alpha + float(p @ np.maximum(losses - alpha, 0.0)) / (1.0 - beta)


@pytest.mark.parametrize("n", [1, 2, 19, 20, 500, 2000])
@pytest.mark.parametrize("beta", [0.9, 0.95, 0.99])
def test_cvar_partition_and_sorted_paths_agree(n, beta):
    rng = np.random.default_rng(n)
    # few distinct values, so that the VaR position falls inside ties
    losses = rng.integers(0, max(2, n // 8), (3, n)) / 7.0
    p = np.full(n, 1.0 / n)
    batch_alpha, batch_cvar, _ = cvar_objective(losses, p, beta)
    for row in range(3):
        alpha_u = model._uniform_var(losses[row], p, beta)
        alpha_s = model._sorted_var(losses[row], p, beta)
        assert alpha_u == alpha_s
        alpha, cvar, _ = cvar_objective(losses[row], p, beta)
        assert (alpha, cvar) == _reference_cvar(losses[row], p, beta)
        assert batch_alpha[row] == alpha
        assert batch_cvar[row] == pytest.approx(cvar, rel=1e-12, abs=1e-15)


def test_cvar_sorted_path_batches_nonuniform_probabilities():
    rng = np.random.default_rng(7)
    losses = rng.normal(size=(4, 50))
    p = rng.random(50)
    p /= p.sum()
    alpha, cvar, _ = cvar_objective(losses, p, 0.9)
    for row in range(4):
        ref_alpha, ref_cvar = _reference_cvar(losses[row], p, 0.9)
        assert alpha[row] == ref_alpha
        assert cvar[row] == pytest.approx(ref_cvar, rel=1e-12)


def test_expected_return_and_target_residual():
    w = np.array([110.0, 90.0])
    p = np.array([0.5, 0.5])
    assert expected_return(w, p, 100.0) == pytest.approx(0.0, abs=1e-15)
    # All of w0 = 100 in ten units of EQ, which gains or loses 10%: the
    # evaluation's terminal wealth is the w above.
    sol = Solution(
        b_asset=np.array([10.0, 0.0]), s_asset=np.zeros(2),
        x_asset=np.array([1.0, 0.0]), y_asset=np.zeros(2),
        b_fwd=np.zeros(1), s_fwd=np.zeros(1), x_fwd=np.zeros(1), y_fwd=np.zeros(1),
        z=np.array([1.0, 0.0]),
    )
    scen = _scenario_set([[0.1, 0.0, 0.0, 0.0], [-0.1, 0.0, 0.0, 0.0]])
    reached = evaluate(_costless(mu=0.05), sol, scen)
    assert np.array_equal(reached.recourse.wealth, w)
    assert reached.expected_return == pytest.approx(0.0, abs=1e-15)
    assert reached.residuals["return_target"] == pytest.approx(0.05, abs=1e-15)
    assert evaluate(_costless(mu=-0.01), sol, scen).residuals["return_target"] == 0.0


# ---------------------------------------------------------------------------
# Full evaluation and penalty
# ---------------------------------------------------------------------------


def test_evaluate_zero_solution():
    inst = _make_instance(mu=0.02)
    scen = _scenario_set(np.zeros((5, 4)))
    ev = evaluate(inst, zero_solution(inst), scen)
    assert ev.cvar == pytest.approx(0.0, abs=1e-12)
    assert ev.expected_return == pytest.approx(0.0, abs=1e-12)
    # the only violated constraint is the return target
    assert ev.violation == pytest.approx(0.02, abs=1e-12)
    assert ev.residuals["return_target"] == pytest.approx(0.02, abs=1e-12)


def test_penalty_identity_and_conflict_additivity():
    # fixed costs are charged whenever a flag is on, so zero them to
    # isolate the binary-conflict residual
    inst = _make_instance(t_min_asset=np.zeros(2),
                          fixed_buy_asset=np.zeros(2),
                          fixed_sell_asset=np.zeros(2))
    scen = _scenario_set(np.zeros((4, 4)))
    base = evaluate(inst, zero_solution(inst), scen)
    sol = Solution(**{**zero_solution(inst).__dict__,
                      "x_asset": np.array([1.0, 0.0]),
                      "y_asset": np.array([1.0, 0.0])})
    conflicted = evaluate(inst, sol, scen)
    # fitness = cvar + 1e3*max(1,|cvar|)*violation, exactly
    for ev in (base, conflicted):
        w_c = 1e3 * max(1.0, abs(ev.cvar))
        assert ev.fitness == pytest.approx(ev.cvar + w_c * ev.violation, abs=1e-9)
    assert conflicted.violation - base.violation == pytest.approx(1.0, abs=1e-12)


def test_penalty_dominates_objective():
    # Any infeasible solution must score worse than a feasible one.
    inst = _make_instance(mu=-1.0)  # target always met
    scen = _scenario_set(np.zeros((4, 4)))
    feasible = evaluate(inst, zero_solution(inst), scen)
    bad = Solution(**{**zero_solution(inst).__dict__,
                      "b_asset": np.array([50.0, 0.0]),  # unaffordable: 500 > 100
                      "x_asset": np.array([1.0, 0.0])})
    infeasible = evaluate(inst, bad, scen)
    assert feasible.violation == 0.0
    assert infeasible.violation > 0.0
    assert infeasible.fitness > feasible.fitness + 100.0


# ---------------------------------------------------------------------------
# Population evaluation
# ---------------------------------------------------------------------------


def _random_solutions(inst, rng, P, N=None):
    """P random solutions stacked on a leading axis, recourse optional."""
    def stage(*lead):
        na, nf, nc = inst.n_assets, inst.n_forwards, inst.n_currencies
        flags = lambda n: (rng.random(lead + (n,)) < 0.5).astype(float)
        x_a, y_a, x_f, y_f = flags(na), flags(na), flags(nf), flags(nf)
        return dict(
            b_asset=rng.uniform(0.0, 5.0, lead + (na,)) * x_a,
            s_asset=rng.uniform(0.0, 1.0, lead + (na,)) * y_a,
            x_asset=x_a, y_asset=y_a,
            b_fwd=rng.uniform(0.0, 5.0, lead + (nf,)) * x_f,
            s_fwd=rng.uniform(0.0, 1.0, lead + (nf,)) * y_f,
            x_fwd=x_f, y_fwd=y_f, z=flags(nc),
        )
    fields = stage(P)
    if N is not None:
        fields.update({"r" + k: v for k, v in stage(P, N).items()})
    return Solution(**fields)


def _member(sols, i):
    return Solution(**{k: None if v is None else v[i] for k, v in sols.__dict__.items()})


@pytest.mark.parametrize("recourse", [False, True])
def test_population_fitness_matches_evaluate(recourse):
    inst = _make_instance(mu=0.01)
    rng = np.random.default_rng(11)
    scen = _scenario_set(rng.normal(0.0, 0.03, (25, 4)))
    p_a, p_f = scenario_prices(inst, scen)
    sols = _random_solutions(inst, rng, 9, 25 if recourse else None)
    batch = model.population_fitness(inst, sols, scen, p_a, p_f)
    single = [evaluate(inst, _member(sols, i), scen).fitness for i in range(9)]
    np.testing.assert_allclose(batch, single, rtol=1e-12, atol=0.0)


def test_no_recourse_report_holds_views():
    inst = _make_instance()
    scen = _scenario_set(np.random.default_rng(0).normal(0.0, 0.03, (30, 4)))
    rec = evaluate(inst, _hand_solution(), scen).recourse
    assert rec.wealth.shape == (30,) and rec.a.shape == (30, 2)
    # a held stage reports only the residuals that prices move
    assert rec.residuals.keys() == {"total_overlay", "currency_exposure"}
    # the instance has no currency caps, so the exposure residual is a view too
    for arr in (rec.a, rec.q, rec.free_cash, rec.residuals["currency_exposure"]):
        assert arr.strides[0] == 0


@pytest.mark.parametrize("make", [
    lambda: _make_instance(mu=0.01),      # t_min > 0, finite c_min, fixed costs
    lambda: _market_instance(mu=0.003),   # the acceptance market
], ids=["hand-oracle", "market"])
def test_zero_recourse_fields_broadcast(make):
    # (1, 1, k) zero recourse fields give the report and fitness of dense
    # (P, N, k) zeros, bit for bit, broadcast to the dense shapes.
    inst = make()
    rng = np.random.default_rng(13)
    columns = (*inst.assets, *inst.currencies)
    scen = _scenario_set(rng.normal(0.0, 0.03, (40, len(columns))), columns)
    p_a, p_f = scenario_prices(inst, scen)
    first_stage = _random_solutions(inst, rng, 7).__dict__
    first_stage = {k: v for k, v in first_stage.items() if v is not None}
    dense = Solution(**first_stage, **{"r" + k: np.zeros((7, 40, v.shape[-1]))
                                       for k, v in first_stage.items()})
    idle = Solution(**first_stage, **{"r" + k: np.zeros((1, 1, v.shape[-1]))
                                      for k, v in first_stage.items()})
    first = evaluate_first_stage(inst, dense)
    want = evaluate_recourse(inst, dense, first, p_a, p_f)
    got = evaluate_recourse(inst, idle, first, p_a, p_f)
    assert got.residuals.keys() == want.residuals.keys()
    for key in ("a", "q", "margin", "free_cash", "wealth"):
        ref = getattr(want, key)
        assert np.array_equal(np.broadcast_to(getattr(got, key), ref.shape), ref), key
    for key, ref in want.residuals.items():
        assert np.array_equal(np.broadcast_to(got.residuals[key], ref.shape), ref), key
    assert any(v.any() for v in want.residuals.values())
    assert np.array_equal(model.population_fitness(inst, idle, scen, p_a, p_f),
                          model.population_fitness(inst, dense, scen, p_a, p_f))


def _reference_hold(inst, first, p_asset, p_fwd):
    """The no-recourse stage with every currency at once: (C, ...batch, N)
    asset values, overlays and exposures, summed over their first axis.
    Kept as the reference that `model._hold`, one currency at a time,
    reproduces. A held stage trades nothing, so its currency flags are 0:
    no floor binds, and only the overlay and cap residuals are reported.
    Returns (wealth, margin, residuals)."""
    onehot_t = np.eye(inst.n_currencies)[inst.asset_currency_index()].T.copy()
    sign_t = inst.forward_sign_matrix().T.astype(float)
    margin = inst.margin_rate * (np.abs(first.q) @ p_fwd.T)
    fwd_ccy = np.moveaxis(first.q[..., None, :] * sign_t, -2, 0)
    asset_ccy = np.moveaxis(first.a[..., None, :] * onehot_t, -2, 0)
    overlay_cols = fwd_ccy @ p_fwd.T
    c = asset_ccy @ p_asset.T + overlay_cols
    c[inst.base_index] += margin
    wealth = (first.a @ p_asset.T + first.q @ p_fwd.T + margin
              + first.free_cash[..., None])
    per_ccy = (-1,) + (1,) * (c.ndim - 1)
    res = {"total_overlay": np.maximum(0.0, 0.5 * np.abs(overlay_cols).sum(0)
                                       - inst.v_u * c.sum(0)) / inst.w0,
           "currency_exposure": np.maximum(
               0.0, c - inst.c_max.reshape(per_ccy)).sum(0) / inst.w0}
    return wealth, margin, res


_HOLD_INSTANCES = [
    lambda: _make_instance(mu=0.01),      # finite c_min, z flags
    lambda: _market_instance(mu=0.003),   # the acceptance market
    _four_currency_instance,              # floors and caps on some currencies, v_u binds
]


@pytest.mark.parametrize("make", _HOLD_INSTANCES, ids=["hand-oracle", "market", "four-currency"])
def test_hold_matches_all_currency_reference(make):
    # A population's no-recourse stage, one currency plane at a time,
    # equals the all-currency reference bit for bit. One solution takes a
    # matrix-vector product per currency where the reference takes one
    # matrix product for all of them, so its overlay and exposure
    # residuals may move in the last bit of their scale.
    inst = make()
    rng = np.random.default_rng(21)
    scen = _scenarios_for(inst, 300, 21)
    p_a, p_f = scenario_prices(inst, scen)
    sols = _random_solutions(inst, rng, 40)
    first = evaluate_first_stage(inst, sols)
    rec = evaluate_recourse(inst, sols, first, p_a, p_f)
    wealth, margin, res = _reference_hold(inst, first, p_a, p_f)
    assert np.array_equal(rec.wealth, wealth) and np.array_equal(rec.margin, margin)
    assert rec.residuals.keys() == res.keys()
    for key, ref in res.items():
        assert np.array_equal(np.broadcast_to(rec.residuals[key], ref.shape), ref), key
    assert res["total_overlay"].any()
    # only caps bind a held stage; the hand-oracle instance has floors but no caps
    assert res["currency_exposure"].any() == np.isfinite(inst.c_max).any()
    for i in range(3):
        one = _member(sols, i)
        first = evaluate_first_stage(inst, one)
        rec = evaluate_recourse(inst, one, first, p_a, p_f)
        wealth, margin, res = _reference_hold(inst, first, p_a, p_f)
        assert np.array_equal(rec.wealth, wealth) and np.array_equal(rec.margin, margin)
        for key, ref in res.items():
            got = np.broadcast_to(rec.residuals[key], ref.shape)
            assert np.all(np.abs(got - ref) <= 1e-15 * np.abs(ref).max()), key


@pytest.mark.parametrize("make", _HOLD_INSTANCES, ids=["hand-oracle", "market", "four-currency"])
def test_held_stage_is_a_stage_that_trades_nothing(make):
    # A population with no recourse fields, held by `model._hold`, scores as
    # the same population given dense zero recourse fields, traded by
    # `model._trade`: a stage that trades nothing has every currency flag
    # at 0, so no floor binds and no currency cardinality is counted. The
    # held report omits the residuals that only trades move; the traded
    # report must hold exact zeros there. The two evaluators sum in
    # different orders (BLAS products against elementwise sums), so they
    # agree to rounding, not bit for bit.
    inst = make()
    rng = np.random.default_rng(23)
    scen = _scenarios_for(inst, 300, 23)
    p_a, p_f = scenario_prices(inst, scen)
    held = _random_solutions(inst, rng, 40)
    first_stage = {k: v for k, v in held.__dict__.items() if v is not None}
    traded = Solution(**first_stage, **{"r" + k: np.zeros((40, 300, v.shape[-1]))
                                        for k, v in first_stage.items()})
    first = evaluate_first_stage(inst, held)
    got = evaluate_recourse(inst, held, first, p_a, p_f)
    want = evaluate_recourse(inst, traded, first, p_a, p_f)
    assert got.residuals.keys() == {"total_overlay", "currency_exposure"}
    pairs = [(getattr(got, k), getattr(want, k)) for k in ("wealth", "margin", "free_cash")]
    pairs += [(got.residuals.get(k, 0.0), ref) for k, ref in want.residuals.items()]
    for value, ref in pairs:
        np.testing.assert_allclose(np.broadcast_to(value, ref.shape), ref, rtol=1e-12, atol=0.0)
    assert want.residuals["total_overlay"].any()
    np.testing.assert_allclose(model.population_fitness(inst, held, scen, p_a, p_f),
                               model.population_fitness(inst, traded, scen, p_a, p_f),
                               rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("make", _HOLD_INSTANCES, ids=["hand-oracle", "market", "four-currency"])
def test_score_counts_an_unreported_recourse_residual_as_zero(make):
    # A recourse report that holds only the two residuals a held stage
    # computes scores as the same report padded with zero planes: every
    # recourse_* key, in the same order, and the same values, bit for bit.
    inst = make()
    rng = np.random.default_rng(25)
    scen = _scenarios_for(inst, 200, 25)
    p_a, p_f = scenario_prices(inst, scen)
    sols = _random_solutions(inst, rng, 12)
    first = evaluate_first_stage(inst, sols)
    rec = evaluate_recourse(inst, sols, first, p_a, p_f)
    held = replace(rec, residuals={k: rec.residuals[k]
                                   for k in ("total_overlay", "currency_exposure")})
    zero = np.zeros(rec.wealth.shape)
    padded = replace(rec, residuals={k: held.residuals.get(k, zero) for k in first.residuals})
    got = model._score(inst, first, held, scen.probabilities)
    want = model._score(inst, first, padded, scen.probabilities)
    for value, ref in zip(got[:5], want[:5]):
        assert np.array_equal(value, ref)
    assert list(got[5]) == list(want[5])
    assert {"recourse_" + k for k in first.residuals} <= got[5].keys()
    for key, ref in want[5].items():
        assert np.array_equal(np.broadcast_to(got[5][key], ref.shape), ref), key
    # one first stage, held and traded with zero recourse fields: one key set
    one = _member(sols, 0)
    traded = Solution(**{k: v for k, v in one.__dict__.items() if v is not None},
                      **{"r" + k: np.zeros((200, len(v)))
                         for k, v in one.__dict__.items() if v is not None})
    assert list(evaluate(inst, one, scen).residuals) == list(evaluate(inst, traded, scen).residuals)


def _generation_peak(make, P, n, mode):
    """The tracemalloc peak of scoring one initial population, and its
    count of live rows."""
    inst = make()
    scen = _scenarios_for(inst, n, 5)
    p_a, p_f = scenario_prices(inst, scen)
    layout = ga.build_layout(inst, n, mode)
    pop = ga._initial_population(layout, ga.GAConfig(population=P), np.random.default_rng(5))
    ga._population_fitness(layout, pop, scen, p_a, p_f)        # shape the columns
    tracemalloc.start()
    try:
        _, live = ga._population_fitness(layout, pop, scen, p_a, p_f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak, live


_GENERATION_SIZES = pytest.mark.parametrize("make,P,n", [
    (lambda: _market_instance(mu=0.003), 40, 1000),   # the benchmark's frontier
    (_four_currency_instance, 24, 2000),              # stability's largest N
], ids=["market", "four-currency"])


@_GENERATION_SIZES
def test_no_recourse_generation_working_set_is_bounded(make, P, n):
    # One no-recourse generation allocates a few (rows, N) planes of a
    # bounded row pass, never a (C, P, N) array: the tracemalloc peak of
    # one call stays under 2 MiB (all-currency arrays in one pass read
    # 3.7 and 7.4 MiB on these two cases).
    assert _generation_peak(make, P, n, "no-recourse-trades")[0] < 2 << 20


@_GENERATION_SIZES
def test_idle_full_mode_generation_working_set_is_bounded(make, P, n):
    # A full-mode generation whose rows are all idle, as an initial
    # population is, is held in the same bounded passes: its peak stays
    # under the no-recourse bound. The live test's (P, L) flag mask is
    # freed before the first pass. Idle rows scored in one pass with
    # broadcast zero recourse fields read 5.3 and 9.7 MiB.
    peak, live = _generation_peak(make, P, n, "full")
    assert live == 0 and peak < 2 << 20


# ---------------------------------------------------------------------------
# The instrument-first stage evaluator against its instrument-last reference
# ---------------------------------------------------------------------------


def _reference_trade(inst, decisions, p_asset, p_fwd, cash, a_held, q_held):
    """The stage evaluator with the instrument axis last: every argument
    and per-instrument output is (...batch, k). Kept as the reference that
    `model._trade` must reproduce up to the order of its sums."""
    b_a, s_a, x_a, y_a, b_f, s_f, x_f, y_f, z = decisions
    onehot = np.eye(inst.n_currencies)[inst.asset_currency_index()]
    sign = inst.forward_sign_matrix()

    def trade_size(buy, sell, x, y, t_min, price):
        return ((np.maximum(0.0, t_min * x - buy) * price).sum(-1)
                + (np.maximum(0.0, t_min * y - sell) * price).sum(-1)
                + (np.maximum(0.0, buy - inst.big_b) * price).sum(-1)
                + (np.maximum(0.0, sell - inst.big_b) * price).sum(-1)) / inst.w0

    a = a_held + b_a * x_a - s_a * y_a
    q = q_held + b_f * x_f - s_f * y_f
    sale_proceeds = ((s_a * p_asset) * y_a).sum(-1) + ((s_f * p_fwd) * y_f).sum(-1)
    sale_costs = (
        ((inst.fixed_sell_asset + inst.var_sell_asset * s_a * p_asset) * y_a).sum(-1)
        + ((inst.fixed_sell_forward + inst.var_sell_forward * s_f * p_fwd) * y_f).sum(-1))
    buy_outlay = ((b_a * p_asset) * x_a).sum(-1) + ((b_f * p_fwd) * x_f).sum(-1)
    buy_costs = (
        ((inst.fixed_buy_asset + inst.var_buy_asset * b_a * p_asset) * x_a).sum(-1)
        + ((inst.fixed_buy_forward + inst.var_buy_forward * b_f * p_fwd) * x_f).sum(-1))
    available = cash + sale_proceeds - sale_costs
    spend = buy_outlay + buy_costs
    free_cash = np.maximum(0.0, available - spend)

    q_value = q * p_fwd
    overlay_cols = np.moveaxis(q_value @ sign, -1, 0)
    margin = inst.margin_rate * (np.abs(q) * p_fwd).sum(-1)
    asset_value = a * p_asset
    c = np.moveaxis(asset_value @ onehot, -1, 0) + overlay_cols
    c[inst.base_index] += margin
    wealth = asset_value.sum(-1) + q_value.sum(-1) + margin + free_cash

    zc = np.moveaxis(z, -1, 0)
    per_ccy = (-1,) + (1,) * (c.ndim - 1)
    floor = np.where(zc > 0.5, inst.c_min.reshape(per_ccy), -np.inf)
    res = {
        "cash_balance": np.maximum(0.0, spend - available) / inst.w0,
        "total_overlay": np.maximum(0.0, 0.5 * np.abs(overlay_cols).sum(0)
                                    - inst.v_u * c.sum(0)) / inst.w0,
        "buy_or_sell_asset": np.maximum(0.0, x_a + y_a - 1.0).sum(-1),
        "buy_or_sell_forward": np.maximum(0.0, x_f + y_f - 1.0).sum(-1),
        "trade_size_asset": trade_size(b_a, s_a, x_a, y_a, inst.t_min_asset, p_asset),
        "trade_size_forward": trade_size(b_f, s_f, x_f, y_f, inst.t_min_forward, p_fwd),
        "currency_exposure": (np.maximum(0.0, floor - c).sum(0) + np.maximum(
            0.0, c - inst.c_max.reshape(per_ccy)).sum(0)) / inst.w0,
        "country_activity": np.maximum(0.0, z - (x_a + y_a) @ onehot).sum(-1),
        "currency_cardinality": np.maximum(0.0, z.sum(-1) - inst.k_c),
        "forward_cardinality": np.maximum(0.0, (x_f + y_f).sum(-1) - inst.k_g),
        "nonnegative_trades": ((np.maximum(0.0, -b_a) * p_asset).sum(-1)
                               + (np.maximum(0.0, -s_a) * p_asset).sum(-1)
                               + (np.maximum(0.0, -b_f) * p_fwd).sum(-1)
                               + (np.maximum(0.0, -s_f) * p_fwd).sum(-1)) / inst.w0,
    }
    return a, q, q_value, c, margin, free_cash, wealth, res


def _stage_arguments(inst, rng, lead):
    """Random stage arguments, instrument-last, over the batch `lead`.

    Trades are spread over [-B, 2B] so that some are negative and some
    exceed B; flags are fair coins. Prices vary along the last batch axis
    (scenarios) and holdings and cash along the others, as in recourse.
    """
    na, nf, nc = inst.n_assets, inst.n_forwards, inst.n_currencies
    sizes = (na, na, na, na, nf, nf, nf, nf, nc)
    decisions = []
    for name, k in zip(model.STAGE_FIELDS, sizes):
        if name[0] in "bs":
            trade = rng.uniform(0.0, 50.0, lead + (k,))
            spread = rng.random(lead + (k,))
            trade[spread < 0.2] -= 60.0
            trade[spread > 0.9] += inst.big_b
            decisions.append(trade)
        else:
            decisions.append((rng.random(lead + (k,)) < 0.5).astype(float))
    scen_lead = (1,) * (len(lead) - 1) + lead[-1:]
    p_asset = inst.p0_asset * rng.uniform(0.8, 1.2, scen_lead + (na,))
    p_fwd = inst.p0_forward * rng.uniform(0.8, 1.2, scen_lead + (nf,))
    held_lead = lead[:-1] + (1,) if lead else ()
    cash = rng.uniform(0.0, 200.0, held_lead)
    a_held = rng.uniform(0.0, 5.0, held_lead + (na,))
    q_held = rng.uniform(-5.0, 5.0, held_lead + (nf,))
    return decisions, p_asset, p_fwd, cash, a_held, q_held


@pytest.mark.parametrize("lead", [(), (7,), (4, 6)], ids=["single", "population", "recourse"])
@pytest.mark.parametrize("make", [
    _make_instance,                        # t_min > 0, finite c_min, fixed costs
    _tiny_instance,                        # no forwards
    lambda: _market_instance(mu=0.003),    # the acceptance market
], ids=["hand-oracle", "no-forwards", "market"])
def test_trade_matches_instrument_last_reference(make, lead):
    inst = make()
    decisions, p_asset, p_fwd, cash, a_held, q_held = _stage_arguments(
        inst, np.random.default_rng(len(lead)), lead)
    expected = _reference_trade(inst, decisions, p_asset, p_fwd, cash, a_held, q_held)
    first = lambda v: np.moveaxis(v, -1, 0)
    got = model._trade(inst, [first(d) for d in decisions], first(p_asset), first(p_fwd),
                       cash, first(a_held), first(q_held))
    a, q, q_value, c, margin, free_cash, wealth, res = got
    got_last = (np.moveaxis(a, 0, -1), np.moveaxis(q, 0, -1), np.moveaxis(q_value, 0, -1),
                c, margin, free_cash, wealth)
    # Free cash is the difference of the cash brought in and paid out,
    # which both sides add up in their own order: its error is relative
    # to the gross cash flow, not to the difference.
    b_a, s_a, _, _, b_f, s_f = decisions[:6]
    gross = cash + (((np.abs(b_a) + np.abs(s_a)) * p_asset).sum(-1)
                    + ((np.abs(b_f) + np.abs(s_f)) * p_fwd).sum(-1)) * 1.1 + 10.0
    scale = {"free_cash": gross, "cash_balance": gross / inst.w0}
    names = ("a", "q", "q_value", "c", "margin", "free_cash", "wealth")
    for key, value, ref in (list(zip(names, got_last, expected[:7]))
                            + [(k, res[k], v) for k, v in expected[7].items()]):
        assert np.shape(value) == np.shape(ref), key
        tol = 1e-12 * np.maximum(np.abs(ref), scale.get(key, 0.0))
        assert np.all(np.abs(value - ref) <= tol), key
    assert res.keys() == expected[7].keys()
    if lead:
        assert any(np.any(v > 0.0) for v in expected[7].values())
