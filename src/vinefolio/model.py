"""Two-stage stochastic portfolio model with currency overlay.

The first stage buys/sells assets and FX forward pairs out of initial
cash; the second stage rebalances per scenario after prices realize.
The objective is the CVaR of the end-of-horizon portfolio loss, with a
minimum expected-return target. All constraints are evaluated as soft
residuals so a genetic algorithm can optimize a penalized fitness.

Conventions
-----------
- Forwards are treated as priced positions: one unit of pair k costs
  P0 at the first stage and is worth P0 * (1 + adjusted long-currency
  return - adjusted short-currency return) per scenario, so buying a
  forward moves value between cash and the forward account without
  changing wealth.
- Cash is tracked in a free-cash account: any first-stage surplus is
  carried into the recourse stage and counted in terminal wealth; the
  cash-balance residual is the unfunded overspend only.
- Margin cash M * sum(|q_k| * P_k) is denominated in the base currency.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import EmptyScenarios, InvalidParameter, MissingColumn
from .scenarios import ScenarioSet


# ---------------------------------------------------------------------------
# Instance
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Instance:
    """All model data: universe, parameters, costs, first-stage prices."""

    assets: tuple[str, ...]
    asset_currency: tuple[str, ...]          # currency code per asset
    currencies: tuple[str, ...]
    base: str
    forward_pairs: tuple[tuple[int, int], ...]  # (long ccy idx, short ccy idx)

    # Model parameters.
    mu: float
    beta: float
    a_min: np.ndarray
    a_max: np.ndarray
    c_min: np.ndarray
    c_max: np.ndarray
    t_min_asset: np.ndarray
    t_min_forward: np.ndarray
    v_u: float
    k_c: int
    k_g: int
    margin_rate: float
    big_b: float
    h0: float
    a0: np.ndarray
    q0: np.ndarray
    w0: float

    # Transaction costs.
    fixed_buy_asset: np.ndarray
    fixed_sell_asset: np.ndarray
    var_buy_asset: np.ndarray
    var_sell_asset: np.ndarray
    fixed_buy_forward: np.ndarray
    fixed_sell_forward: np.ndarray
    var_buy_forward: np.ndarray
    var_sell_forward: np.ndarray

    # First-stage prices.
    p0_asset: np.ndarray
    p0_forward: np.ndarray

    def __post_init__(self):
        if not 0.0 < self.beta < 1.0:
            raise InvalidParameter(f"beta must be in (0,1), got {self.beta}")
        if not 0.0 <= self.margin_rate <= 1.0:
            raise InvalidParameter(f"margin rate must be in [0,1], got {self.margin_rate}")
        if not 0.0 <= self.v_u <= 1.0:
            raise InvalidParameter(f"overlay limit must be in [0,1], got {self.v_u}")
        if self.w0 <= 0.0:
            raise InvalidParameter("initial wealth must be positive")
        if np.any(self.a_min > self.a_max) or np.any(self.c_min > self.c_max):
            raise InvalidParameter("min bound exceeds max bound")
        if self.base not in self.currencies:
            raise InvalidParameter(f"base currency {self.base!r} not in universe")
        max_pairs = len(self.currencies) * (len(self.currencies) - 1) // 2
        if len(self.forward_pairs) > max_pairs:
            raise InvalidParameter("more forward pairs than currency pairs")

    @property
    def n_assets(self) -> int:
        return len(self.assets)

    @property
    def n_currencies(self) -> int:
        return len(self.currencies)

    @property
    def n_forwards(self) -> int:
        return len(self.forward_pairs)

    @property
    def base_index(self) -> int:
        return self.currencies.index(self.base)

    def asset_currency_index(self) -> np.ndarray:
        return np.array(
            [self.currencies.index(c) for c in self.asset_currency], dtype=int
        )

    def forward_sign_matrix(self) -> np.ndarray:
        """K x C matrix: +1 on the long currency, -1 on the short one."""
        T = np.zeros((self.n_forwards, self.n_currencies), dtype=int)
        for k, (j1, j2) in enumerate(self.forward_pairs):
            T[k, j1] = 1
            T[k, j2] = -1
        return T


def default_big_b(w0: float, prices: np.ndarray) -> float:
    """Never-binding trade cap: 10 * W0 / min price."""
    pos = prices[prices > 0]
    return 10.0 * w0 / float(pos.min()) if pos.size else 10.0 * w0


def instance_from_dict(doc: dict) -> Instance:
    assets = doc["assets"]
    currencies = doc["currencies"]
    forwards = doc.get("forwards", [])
    costs = doc.get("costs", {})
    params = doc["params"]
    acosts = costs.get("assets", {})
    fcosts = costs.get("forwards", {})

    names = tuple(a["name"] for a in assets)
    ccy_names = tuple(c["name"] for c in currencies)
    ccy_index = {c: j for j, c in enumerate(ccy_names)}
    pairs = tuple(
        (ccy_index[f["pair"][0]], ccy_index[f["pair"][1]]) for f in forwards
    )

    def num(doc_, key, default):
        value = doc_.get(key)
        return float(default) if value is None else float(value)

    def asset_cost(name, key):
        return float(acosts.get(name, {}).get(key, 0.0))

    def fwd_cost(k, key):
        label = forwards[k].get("name", f"{forwards[k]['pair'][0]}/{forwards[k]['pair'][1]}")
        return float(fcosts.get(label, {}).get(key, 0.0))

    p0_asset = np.array([float(a["price"]) for a in assets])
    w0 = float(params["w0"])
    big_b = params.get("big_b")
    inst = Instance(
        assets=names,
        asset_currency=tuple(a["currency"] for a in assets),
        currencies=ccy_names,
        base=doc["base"],
        forward_pairs=pairs,
        mu=float(params.get("mu", 0.0)),
        beta=float(params.get("beta", 0.95)),
        a_min=np.array([num(a, "a_min", 0.0) for a in assets]),
        a_max=np.array([num(a, "a_max", np.inf) for a in assets]),
        c_min=np.array([num(c, "c_min", -np.inf) for c in currencies]),
        c_max=np.array([num(c, "c_max", np.inf) for c in currencies]),
        t_min_asset=np.array([float(a.get("t_min", 0.0)) for a in assets]),
        t_min_forward=np.array([float(f.get("t_min", 0.0)) for f in forwards]),
        v_u=float(params.get("v_u", 1.0)),
        k_c=int(params.get("k_c", len(ccy_names))),
        k_g=int(params.get("k_g", len(pairs))),
        margin_rate=float(params.get("margin", 0.0)),
        big_b=float(big_b) if big_b is not None else default_big_b(w0, p0_asset),
        h0=float(params.get("h0", w0)),
        a0=np.array([float(a.get("a0", 0.0)) for a in assets]),
        q0=np.array([float(f.get("q0", 0.0)) for f in forwards]),
        w0=w0,
        fixed_buy_asset=np.array([asset_cost(n, "fixed_buy") for n in names]),
        fixed_sell_asset=np.array([asset_cost(n, "fixed_sell") for n in names]),
        var_buy_asset=np.array([asset_cost(n, "var_buy") for n in names]),
        var_sell_asset=np.array([asset_cost(n, "var_sell") for n in names]),
        fixed_buy_forward=np.array([fwd_cost(k, "fixed_buy") for k in range(len(pairs))]),
        fixed_sell_forward=np.array([fwd_cost(k, "fixed_sell") for k in range(len(pairs))]),
        var_buy_forward=np.array([fwd_cost(k, "var_buy") for k in range(len(pairs))]),
        var_sell_forward=np.array([fwd_cost(k, "var_sell") for k in range(len(pairs))]),
        p0_asset=p0_asset,
        p0_forward=np.array([float(f.get("price", 1.0)) for f in forwards]),
    )
    return inst


def instance_to_dict(inst: Instance) -> dict:
    assets = []
    for i, name in enumerate(inst.assets):
        assets.append({
            "name": name,
            "currency": inst.asset_currency[i],
            "price": float(inst.p0_asset[i]),
            "a0": float(inst.a0[i]),
            "a_min": float(inst.a_min[i]),
            "a_max": None if np.isinf(inst.a_max[i]) else float(inst.a_max[i]),
            "t_min": float(inst.t_min_asset[i]),
        })
    currencies = []
    for j, name in enumerate(inst.currencies):
        currencies.append({
            "name": name,
            "c_min": None if np.isinf(inst.c_min[j]) else float(inst.c_min[j]),
            "c_max": None if np.isinf(inst.c_max[j]) else float(inst.c_max[j]),
        })
    forwards = []
    for k, (j1, j2) in enumerate(inst.forward_pairs):
        forwards.append({
            "pair": [inst.currencies[j1], inst.currencies[j2]],
            "price": float(inst.p0_forward[k]),
            "q0": float(inst.q0[k]),
            "t_min": float(inst.t_min_forward[k]),
        })
    costs = {
        "assets": {
            name: {
                "fixed_buy": float(inst.fixed_buy_asset[i]),
                "fixed_sell": float(inst.fixed_sell_asset[i]),
                "var_buy": float(inst.var_buy_asset[i]),
                "var_sell": float(inst.var_sell_asset[i]),
            }
            for i, name in enumerate(inst.assets)
        },
        "forwards": {
            f"{inst.currencies[j1]}/{inst.currencies[j2]}": {
                "fixed_buy": float(inst.fixed_buy_forward[k]),
                "fixed_sell": float(inst.fixed_sell_forward[k]),
                "var_buy": float(inst.var_buy_forward[k]),
                "var_sell": float(inst.var_sell_forward[k]),
            }
            for k, (j1, j2) in enumerate(inst.forward_pairs)
        },
    }
    params = {
        "mu": inst.mu, "beta": inst.beta, "v_u": inst.v_u,
        "k_c": inst.k_c, "k_g": inst.k_g, "margin": inst.margin_rate,
        "big_b": inst.big_b, "h0": inst.h0, "w0": inst.w0,
    }
    return {"assets": assets, "currencies": currencies, "base": inst.base,
            "forwards": forwards, "costs": costs, "params": params}


def load_instance(path: str) -> Instance:
    with open(path) as fh:
        return instance_from_dict(json.load(fh))


def save_instance(inst: Instance, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(instance_to_dict(inst), fh, indent=2)
        fh.write("\n")


def with_return_target(inst: Instance, mu: float) -> Instance:
    return replace(inst, mu=float(mu))


# ---------------------------------------------------------------------------
# Solution
# ---------------------------------------------------------------------------


# Decision fields of one trading stage, in chromosome order; the
# recourse stage's fields carry an "r" prefix.
STAGE_FIELDS = ("b_asset", "s_asset", "x_asset", "y_asset",
                "b_fwd", "s_fwd", "x_fwd", "y_fwd", "z")


@dataclass(frozen=True)
class Solution:
    """First-stage and optional per-scenario recourse decisions.

    Binary arrays hold 0/1 floats. Recourse arrays are (N, ...) shaped;
    None means no recourse trading in any scenario. A population carries
    one more leading axis on every field.
    """

    b_asset: np.ndarray
    s_asset: np.ndarray
    x_asset: np.ndarray
    y_asset: np.ndarray
    b_fwd: np.ndarray
    s_fwd: np.ndarray
    x_fwd: np.ndarray
    y_fwd: np.ndarray
    z: np.ndarray

    rb_asset: np.ndarray | None = None
    rs_asset: np.ndarray | None = None
    rx_asset: np.ndarray | None = None
    ry_asset: np.ndarray | None = None
    rb_fwd: np.ndarray | None = None
    rs_fwd: np.ndarray | None = None
    rx_fwd: np.ndarray | None = None
    ry_fwd: np.ndarray | None = None
    rz: np.ndarray | None = None

    @property
    def has_recourse(self) -> bool:
        return self.rb_asset is not None


def zero_solution(inst: Instance) -> Solution:
    na, nf, nc = inst.n_assets, inst.n_forwards, inst.n_currencies
    return Solution(
        b_asset=np.zeros(na), s_asset=np.zeros(na),
        x_asset=np.zeros(na), y_asset=np.zeros(na),
        b_fwd=np.zeros(nf), s_fwd=np.zeros(nf),
        x_fwd=np.zeros(nf), y_fwd=np.zeros(nf),
        z=np.zeros(nc),
    )


# ---------------------------------------------------------------------------
# Scenario prices
# ---------------------------------------------------------------------------


def scenario_prices(inst: Instance, scen: ScenarioSet) -> tuple[np.ndarray, np.ndarray]:
    """Per-scenario prices: (N x A asset prices, N x K forward prices).

    Asset: P0 * (1 + adjusted asset return + adjusted currency return).
    Forward: P0 * (1 + long-leg return - short-leg return), so equal leg
    returns leave the price unchanged.
    """
    for name in list(inst.assets) + list(inst.currencies):
        if name not in scen.columns:
            raise MissingColumn(name)
    asset_r = np.column_stack([scen.column(a) for a in inst.assets])
    ccy_r = np.column_stack([scen.column(c) for c in inst.currencies])
    ccy_of_asset = inst.asset_currency_index()
    p_asset = inst.p0_asset * (1.0 + asset_r + ccy_r[:, ccy_of_asset])
    if inst.n_forwards:
        long_idx = np.array([p[0] for p in inst.forward_pairs])
        short_idx = np.array([p[1] for p in inst.forward_pairs])
        p_fwd = inst.p0_forward * (1.0 + ccy_r[:, long_idx] - ccy_r[:, short_idx])
    else:
        p_fwd = np.zeros((scen.n_scenarios, 0))
    return p_asset, p_fwd


# ---------------------------------------------------------------------------
# Stage evaluation: one algebra over leading batch axes. A solution has
# none, a population from `ga.decode` has one, and recourse adds scenarios.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FirstStageReport:
    """First-stage outcome; every field carries the solution's batch axes."""

    a: np.ndarray                 # final asset units
    q: np.ndarray                 # final forward units
    q_value: np.ndarray           # forward market values q_k * P0_k
    F: np.ndarray                 # K x C exposure matrix
    c: np.ndarray                 # currency exposures
    margin: float
    free_cash: float
    residuals: dict[str, float] = field(repr=False)


@dataclass(frozen=True)
class RecourseReport:
    """Per-scenario outcome: arrays are batch + (N, ...) shaped."""

    a: np.ndarray                 # N x A final units
    q: np.ndarray                 # N x K final units
    margin: np.ndarray            # N
    free_cash: np.ndarray         # N
    wealth: np.ndarray            # N
    residuals: dict[str, np.ndarray] = field(repr=False)  # each length N


def _currency_onehot(inst: Instance) -> np.ndarray:
    """A x C matrix with a 1 at each asset's currency."""
    return np.eye(inst.n_currencies)[inst.asset_currency_index()]


# Exposures have the currency axis first, (C, ...batch), so that sums over
# the few currencies add whole arrays instead of reducing length-C rows.
def _exposure(inst: Instance, asset_ccy_value, overlay_cols, margin) -> np.ndarray:
    """Per-currency exposure; margin cash is held in the base currency."""
    c = asset_ccy_value + overlay_cols
    c[inst.base_index] += margin
    return c


def _overlay_excess(inst: Instance, overlay_cols, c):
    """Overlay size beyond v_u times total exposure, per unit of W0."""
    total = 0.5 * np.abs(overlay_cols).sum(0)
    return np.maximum(0.0, total - inst.v_u * c.sum(0)) / inst.w0


def _exposure_excess(inst: Instance, z, c):
    per_ccy = (-1,) + (1,) * (c.ndim - 1)
    # The floor applies only to flagged currencies (avoids -inf * 0).
    floor = np.where(z > 0.5, inst.c_min.reshape(per_ccy), -np.inf)
    return (np.maximum(0.0, floor - c).sum(0)
            + np.maximum(0.0, c - inst.c_max.reshape(per_ccy)).sum(0)) / inst.w0


def _trade_size(inst: Instance, buy, sell, x, y, t_min, price):
    """Value of trades below their minimum size or above B, per unit of W0."""
    return (
        (np.maximum(0.0, t_min * x - buy) * price).sum(-1)
        + (np.maximum(0.0, t_min * y - sell) * price).sum(-1)
        + (np.maximum(0.0, buy - inst.big_b) * price).sum(-1)
        + (np.maximum(0.0, sell - inst.big_b) * price).sum(-1)
    ) / inst.w0


def _trade(inst: Instance, decisions, p_asset, p_fwd, cash, a_held, q_held):
    """One trading stage over the batch axes of its decisions.

    `decisions` are the stage's nine arrays in STAGE_FIELDS order. Prices,
    the cash carried in and the holdings carried in broadcast against
    them. Returns (a, q, q_value, c, margin, free_cash, wealth, residuals),
    with the currency axis of c first.
    """
    b_a, s_a, x_a, y_a, b_f, s_f, x_f, y_f, z = decisions
    a = a_held + b_a * x_a - s_a * y_a
    q = q_held + b_f * x_f - s_f * y_f

    sale_proceeds = ((s_a * p_asset) * y_a).sum(-1) + ((s_f * p_fwd) * y_f).sum(-1)
    sale_costs = (
        ((inst.fixed_sell_asset + inst.var_sell_asset * s_a * p_asset) * y_a).sum(-1)
        + ((inst.fixed_sell_forward + inst.var_sell_forward * s_f * p_fwd) * y_f).sum(-1)
    )
    buy_outlay = ((b_a * p_asset) * x_a).sum(-1) + ((b_f * p_fwd) * x_f).sum(-1)
    buy_costs = (
        ((inst.fixed_buy_asset + inst.var_buy_asset * b_a * p_asset) * x_a).sum(-1)
        + ((inst.fixed_buy_forward + inst.var_buy_forward * b_f * p_fwd) * x_f).sum(-1)
    )
    available = cash + sale_proceeds - sale_costs
    spend = buy_outlay + buy_costs
    free_cash = np.maximum(0.0, available - spend)

    onehot = _currency_onehot(inst)
    q_value = q * p_fwd
    overlay_cols = np.moveaxis(q_value @ inst.forward_sign_matrix(), -1, 0)
    margin = inst.margin_rate * (np.abs(q) * p_fwd).sum(-1)
    asset_value = a * p_asset
    c = _exposure(inst, np.moveaxis(asset_value @ onehot, -1, 0), overlay_cols, margin)
    wealth = asset_value.sum(-1) + q_value.sum(-1) + margin + free_cash

    res = {
        "cash_balance": np.maximum(0.0, spend - available) / inst.w0,
        "total_overlay": _overlay_excess(inst, overlay_cols, c),
        "buy_or_sell_asset": np.maximum(0.0, x_a + y_a - 1.0).sum(-1),
        "buy_or_sell_forward": np.maximum(0.0, x_f + y_f - 1.0).sum(-1),
        "trade_size_asset": _trade_size(inst, b_a, s_a, x_a, y_a,
                                        inst.t_min_asset, p_asset),
        "trade_size_forward": _trade_size(inst, b_f, s_f, x_f, y_f,
                                          inst.t_min_forward, p_fwd),
        "currency_exposure": _exposure_excess(inst, np.moveaxis(z, -1, 0), c),
        # Country activity: z_j demands at least one trade touching currency j.
        "country_activity": np.maximum(0.0, z - (x_a + y_a) @ onehot).sum(-1),
        "currency_cardinality": np.maximum(0.0, z.sum(-1) - inst.k_c),
        "forward_cardinality": np.maximum(0.0, (x_f + y_f).sum(-1) - inst.k_g),
        "nonnegative_trades": (
            (np.maximum(0.0, -b_a) * p_asset).sum(-1)
            + (np.maximum(0.0, -s_a) * p_asset).sum(-1)
            + (np.maximum(0.0, -b_f) * p_fwd).sum(-1)
            + (np.maximum(0.0, -s_f) * p_fwd).sum(-1)
        ) / inst.w0,
    }
    return a, q, q_value, c, margin, free_cash, wealth, res


def evaluate_first_stage(inst: Instance, sol: Solution) -> FirstStageReport:
    a, q, q_value, c, margin, free_cash, _, res = _trade(
        inst, [getattr(sol, f) for f in STAGE_FIELDS],
        inst.p0_asset, inst.p0_forward, inst.h0, inst.a0, inst.q0)
    F = inst.forward_sign_matrix() * q_value[..., :, None]
    return FirstStageReport(a=a, q=q, q_value=q_value, F=F,
                            c=np.moveaxis(c, 0, -1), margin=margin,
                            free_cash=free_cash, residuals=res)


def _hold(inst: Instance, sol: Solution, first: FirstStageReport,
          p_asset: np.ndarray, p_fwd: np.ndarray) -> RecourseReport:
    """Recourse with no trades: the first-stage portfolio in every scenario.

    Wealth is a @ p_asset^T + q @ p_fwd^T + margin + free cash. Only the
    overlay and exposure residuals depend on prices; the currency
    cardinality carries over and the rest are zero. Holdings, free cash
    and the residuals that are constant in every scenario are broadcast
    views, not N-row copies.
    """
    shape = np.shape(first.free_cash) + (p_asset.shape[0],)
    margin = inst.margin_rate * (np.abs(first.q) @ p_fwd.T)
    # (C, ...batch, A) position matrices times prices give (C, ...batch, N).
    fwd_ccy = np.moveaxis(first.q[..., None, :] * inst.forward_sign_matrix().T, -2, 0)
    asset_ccy = np.moveaxis(first.a[..., None, :] * _currency_onehot(inst).T, -2, 0)
    overlay_cols = fwd_ccy @ p_fwd.T
    c = _exposure(inst, asset_ccy @ p_asset.T, overlay_cols, margin)
    wealth = (first.a @ p_asset.T + first.q @ p_fwd.T + margin
              + first.free_cash[..., None])

    res = dict.fromkeys(first.residuals, np.broadcast_to(0.0, shape))
    for key, vec in (("total_overlay", _overlay_excess(inst, overlay_cols, c)),
                     ("currency_exposure", _exposure_excess(
                         inst, np.moveaxis(sol.z, -1, 0)[..., None], c))):
        if vec.any():
            res[key] = vec
    res["currency_cardinality"] = np.broadcast_to(
        first.residuals["currency_cardinality"][..., None], shape)
    return RecourseReport(
        a=np.broadcast_to(first.a[..., None, :], shape + (inst.n_assets,)),
        q=np.broadcast_to(first.q[..., None, :], shape + (inst.n_forwards,)),
        margin=margin, free_cash=np.broadcast_to(first.free_cash[..., None], shape),
        wealth=wealth, residuals=res)


def evaluate_recourse(inst: Instance, sol: Solution, first: FirstStageReport,
                      p_asset: np.ndarray, p_fwd: np.ndarray) -> RecourseReport:
    """Evaluate all scenarios at once; rows of p_asset/p_fwd are scenarios."""
    if not sol.has_recourse:
        return _hold(inst, sol, first, p_asset, p_fwd)
    a, q, _, _, margin, free_cash, wealth, res = _trade(
        inst, [getattr(sol, "r" + f) for f in STAGE_FIELDS], p_asset, p_fwd,
        first.free_cash[..., None], first.a[..., None, :], first.q[..., None, :])
    return RecourseReport(a=a, q=q, margin=margin, free_cash=free_cash,
                          wealth=wealth, residuals=res)


# ---------------------------------------------------------------------------
# Objective
# ---------------------------------------------------------------------------


def _uniform_var(losses: np.ndarray, p: np.ndarray, beta: float):
    """alpha for equal probabilities, by a partial sort: O(N).

    A uniform p has the same cumulative sums in any order, so the sorted
    path's index is known before sorting and picks the same loss.
    """
    pos = min(int(np.searchsorted(np.cumsum(p), beta - 1e-15)), p.size - 1)
    return np.take(np.partition(losses, pos, axis=-1), pos, axis=-1)


def _sorted_var(losses: np.ndarray, p: np.ndarray, beta: float):
    """alpha for any probabilities, by a stable sort: O(N log N)."""
    order = np.argsort(losses, axis=-1, kind="stable")
    cum = np.cumsum(p[order], axis=-1)
    pos = np.minimum((cum < beta - 1e-15).sum(axis=-1), p.size - 1)
    idx = np.take_along_axis(order, pos[..., None], axis=-1)
    return np.take_along_axis(losses, idx, axis=-1)[..., 0][()]


def cvar_objective(losses, probabilities, beta: float) -> tuple[float, float, np.ndarray]:
    """VaR, CVaR and per-scenario shortfalls for a discrete loss distribution.

    Scenarios run along the last axis of `losses`; leading axes are a
    batch that alpha and cvar keep. alpha is the smallest loss whose
    cumulative probability reaches beta (for uniform probabilities, the
    ceil(beta*N)-th smallest loss); it minimizes the discrete
    Rockafellar-Uryasev auxiliary function, and
    cvar = alpha + (1/(1-beta)) * sum(p * max(loss - alpha, 0)).
    """
    losses = np.asarray(losses, dtype=float)
    p = np.asarray(probabilities, dtype=float)
    if losses.size == 0:
        raise EmptyScenarios("no losses")
    alpha = (_uniform_var if np.all(p == p[0]) else _sorted_var)(losses, p, beta)
    e = np.maximum(losses - alpha[..., None], 0.0)
    cvar = alpha + (e @ p) / (1.0 - beta)
    return alpha, cvar, e


def expected_return(wealth_vec, probabilities, w0: float) -> float:
    wealth_vec = np.asarray(wealth_vec, dtype=float)
    p = np.asarray(probabilities, dtype=float)
    return (wealth_vec / w0 - 1.0) @ p


# ---------------------------------------------------------------------------
# Penalized fitness
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Evaluation:
    fitness: float
    cvar: float
    alpha: float
    expected_return: float
    violation: float
    first: FirstStageReport
    recourse: RecourseReport
    residuals: dict[str, float] = field(repr=False)


def _score(inst: Instance, first: FirstStageReport, rec: RecourseReport,
           probabilities: np.ndarray):
    """(fitness, cvar, alpha, expected return, violation, residuals),
    each over the batch axes."""
    losses = -(rec.wealth / inst.w0 - 1.0)
    alpha, cvar, _ = cvar_objective(losses, probabilities, inst.beta)
    exp_ret = expected_return(rec.wealth, probabilities, inst.w0)

    residuals = dict(first.residuals)
    for key, vec in rec.residuals.items():
        residuals["recourse_" + key] = vec.mean(axis=-1)
    residuals["return_target"] = np.maximum(0.0, inst.mu - exp_ret)
    violation = sum(residuals.values())
    fitness = cvar + 1e3 * np.maximum(1.0, np.abs(cvar)) * violation
    return fitness, cvar, alpha, exp_ret, violation, residuals


def evaluate(inst: Instance, sol: Solution, scen: ScenarioSet,
             p_asset: np.ndarray | None = None,
             p_fwd: np.ndarray | None = None) -> Evaluation:
    """Full evaluation of one solution: stages, wealth, CVaR, penalty-combined fitness."""
    if p_asset is None or p_fwd is None:
        p_asset, p_fwd = scenario_prices(inst, scen)
    first = evaluate_first_stage(inst, sol)
    rec = evaluate_recourse(inst, sol, first, p_asset, p_fwd)
    fitness, cvar, alpha, exp_ret, violation, residuals = _score(
        inst, first, rec, scen.probabilities)
    return Evaluation(fitness=float(fitness), cvar=float(cvar), alpha=float(alpha),
                      expected_return=float(exp_ret), violation=float(violation),
                      first=first, recourse=rec,
                      residuals={k: float(v) for k, v in residuals.items()})


def population_fitness(inst: Instance, sols: Solution, scen: ScenarioSet,
                       p_asset: np.ndarray, p_fwd: np.ndarray) -> np.ndarray:
    """Fitness of every solution in a population in one pass.

    The fields of `sols` carry a leading population axis, as `ga.decode`
    makes them from a (P, L) gene array. Entry i is `evaluate`'s fitness
    of solution i, up to the order of floating-point sums.
    """
    first = evaluate_first_stage(inst, sols)
    rec = evaluate_recourse(inst, sols, first, p_asset, p_fwd)
    return _score(inst, first, rec, scen.probabilities)[0]
