"""Synthetic inputs of the benchmark workloads.

Both panels are built from fixed generator seeds, so every run measures
the same market; the run's ``--seed`` only picks the scenario and GA
seeds (see ``workloads.pass_seed``). The acceptance market is a copy of the
generator in ``tests/test_acceptance.py`` (``_market_panel`` and
``_market_instance``), kept here so that edits to the tests cannot move
the benchmark's inputs.
"""

from __future__ import annotations

import numpy as np

from vinefolio.model import Instance
from vinefolio.scenarios import ReturnPanel, adjust_returns

ACCEPTANCE_PANEL_SEED = 8
WIDE_PANEL_SEED = 2017


def acceptance_panel(m: int = 150, seed: int = ACCEPTANCE_PANEL_SEED) -> ReturnPanel:
    """Five assets in USD and GBP, one GBP series; 6 live columns."""
    rng = np.random.default_rng(seed)
    common = rng.normal(0.0, 0.02, m)
    assets = {
        "EQ_A": 0.010 + common + rng.normal(0.0, 0.03, m),
        "EQ_B": 0.008 + 0.8 * common + rng.normal(0.0, 0.025, m),
        "EQ_C": 0.006 + rng.standard_t(4, m) * 0.02,
        "BD_A": 0.003 + rng.normal(0.0, 0.008, m),
        "BD_B": 0.002 + 0.3 * common + rng.normal(0.0, 0.01, m),
    }
    return ReturnPanel(
        periods=tuple(f"p{t}" for t in range(m)),
        assets=assets,
        asset_currency={"EQ_A": "USD", "EQ_B": "GBP", "EQ_C": "USD",
                        "BD_A": "GBP", "BD_B": "USD"},
        currencies={"USD": np.zeros(m), "GBP": rng.normal(0.0, 0.02, m)},
        rates={"USD": np.full(m, 0.001), "GBP": np.full(m, 0.002)},
        base="USD",
    )


def acceptance_instance(mu: float = 0.0) -> Instance:
    prices = np.array([10.0, 20.0, 15.0, 50.0, 40.0])
    return Instance(
        assets=("EQ_A", "EQ_B", "EQ_C", "BD_A", "BD_B"),
        asset_currency=("USD", "GBP", "USD", "GBP", "USD"),
        currencies=("USD", "GBP"), base="USD",
        forward_pairs=((1, 0),),
        mu=mu, beta=0.95,
        a_min=np.zeros(5), a_max=np.full(5, np.inf),
        c_min=np.full(2, -np.inf), c_max=np.full(2, np.inf),
        t_min_asset=np.zeros(5), t_min_forward=np.zeros(1),
        v_u=0.5, k_c=2, k_g=1, margin_rate=0.05, big_b=1e5,
        h0=100.0, a0=np.zeros(5), q0=np.zeros(1), w0=100.0,
        fixed_buy_asset=np.zeros(5), fixed_sell_asset=np.zeros(5),
        var_buy_asset=np.full(5, 0.001), var_sell_asset=np.full(5, 0.001),
        fixed_buy_forward=np.zeros(1), fixed_sell_forward=np.zeros(1),
        var_buy_forward=np.full(1, 0.001), var_sell_forward=np.full(1, 0.001),
        p0_asset=prices, p0_forward=np.array([5.0]),
    )


WIDE_CURRENCIES = ("USD", "EUR", "GBP", "JPY")
WIDE_RATES = (0.0010, 0.0005, 0.0020, 0.0001)


def wide_panel(m: int = 180, seed: int = WIDE_PANEL_SEED) -> ReturnPanel:
    """16 assets in four currencies plus the three non-base currency
    series: 19 live columns.

    Innovations are Student-t with 4 degrees of freedom. In about one
    period in twelve a crash hits every equity and the non-base
    currencies together, which gives the panel lower-tail dependence.
    """
    rng = np.random.default_rng(seed)
    crash = rng.random(m) < 1.0 / 12.0
    market = 0.015 * rng.standard_t(4, m) - 0.06 * crash
    ccy_shock = 0.01 * rng.standard_t(4, m) - 0.02 * crash
    assets, asset_currency = {}, {}
    for j, ccy in enumerate(WIDE_CURRENCIES):
        local = 0.01 * rng.standard_t(4, m)
        for k in range(2):
            name = f"EQ_{ccy}{k}"
            beta = 0.7 + 0.2 * k + 0.1 * j
            assets[name] = (0.007 + beta * market + 0.3 * local
                            + 0.02 * rng.standard_t(4, m))
            asset_currency[name] = ccy
        for k in range(2):
            name = f"BD_{ccy}{k}"
            assets[name] = (0.002 + 0.1 * k * market * (1 - crash)
                            + 0.006 * rng.standard_t(5, m))
            asset_currency[name] = ccy
    currencies = {"USD": np.zeros(m)}
    for j, ccy in enumerate(WIDE_CURRENCIES[1:], start=1):
        currencies[ccy] = 0.4 * j * ccy_shock + 0.015 * rng.standard_t(4, m)
    rates = {c: np.full(m, r) for c, r in zip(WIDE_CURRENCIES, WIDE_RATES)}
    return ReturnPanel(
        periods=tuple(f"p{t}" for t in range(m)), assets=assets,
        asset_currency=asset_currency, currencies=currencies, rates=rates,
        base="USD",
    )


def wide_instance(panel: ReturnPanel, mu: float = 0.0) -> Instance:
    """Equal-cost universe over the wide panel's assets, with one forward
    per non-base currency against USD."""
    names = tuple(panel.assets)
    na, nc = len(names), len(WIDE_CURRENCIES)
    ccy_index = {c: j for j, c in enumerate(WIDE_CURRENCIES)}
    pairs = tuple((ccy_index[c], 0) for c in WIDE_CURRENCIES[1:])
    nf = len(pairs)
    return Instance(
        assets=names,
        asset_currency=tuple(panel.asset_currency[n] for n in names),
        currencies=WIDE_CURRENCIES, base="USD", forward_pairs=pairs,
        mu=mu, beta=0.95,
        a_min=np.zeros(na), a_max=np.full(na, np.inf),
        c_min=np.full(nc, -np.inf), c_max=np.full(nc, np.inf),
        t_min_asset=np.zeros(na), t_min_forward=np.zeros(nf),
        v_u=0.5, k_c=nc, k_g=nf, margin_rate=0.05, big_b=1e5,
        h0=100.0, a0=np.zeros(na), q0=np.zeros(nf), w0=100.0,
        fixed_buy_asset=np.zeros(na), fixed_sell_asset=np.zeros(na),
        var_buy_asset=np.full(na, 0.001), var_sell_asset=np.full(na, 0.001),
        fixed_buy_forward=np.zeros(nf), fixed_sell_forward=np.zeros(nf),
        var_buy_forward=np.full(nf, 0.001), var_sell_forward=np.full(nf, 0.001),
        p0_asset=np.linspace(10.0, 50.0, na), p0_forward=np.full(nf, 5.0),
    )


def build(workload: str):
    """(adjusted panel, instance) of a workload."""
    if workload == "stability":
        panel = adjust_returns(wide_panel())
        return panel, wide_instance(panel)
    return adjust_returns(acceptance_panel()), acceptance_instance()
