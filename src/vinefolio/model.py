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
        open_side = {"a_max": np.inf, "c_min": -np.inf, "c_max": np.inf}  # unbounded sides
        for key, value in vars(self).items():
            v = 0.0 if isinstance(value, (str, tuple)) else np.asarray(value, dtype=float)
            if np.any(bad := ~np.isfinite(v) & (v != open_side.get(key, 0.0))):
                raise InvalidParameter(f"{key} must be finite, got {np.extract(bad, v)[0]}")
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
        unknown = [c for c in self.asset_currency if c not in self.currencies]
        if unknown:
            raise InvalidParameter(f"asset currency {unknown[0]!r} not in universe")
        if any(j1 == j2 or {j1, j2} - set(range(self.n_currencies))
               for j1, j2 in self.forward_pairs):
            raise InvalidParameter("each forward must pair two different currencies")
        if min(self.k_c, self.k_g) < 0:
            raise InvalidParameter(f"k_c and k_g must be >= 0, got {self.k_c}, {self.k_g}")
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


_COST_KEYS = ("fixed_buy", "fixed_sell", "var_buy", "var_sell")


def instance_from_dict(doc: dict) -> Instance:
    assets = doc["assets"]
    currencies = doc["currencies"]
    forwards = doc.get("forwards", [])
    costs = doc.get("costs", {})
    params = doc["params"]

    names = tuple(a["name"] for a in assets)
    ccy_names = tuple(c["name"] for c in currencies)
    ccy_index = {c: j for j, c in enumerate(ccy_names)}
    unknown = [c for f in forwards for c in f["pair"] if c not in ccy_index]
    if unknown:
        raise InvalidParameter(f"forward currency {unknown[0]!r} not in universe")
    pairs = tuple(
        (ccy_index[f["pair"][0]], ccy_index[f["pair"][1]]) for f in forwards
    )

    def num(doc_, key, default):
        value = doc_.get(key)
        return float(default) if value is None else float(value)

    def group_costs(group, table, labels):
        return {f"{key}_{group}": np.array([float(table.get(label, {}).get(key, 0.0))
                                            for label in labels]) for key in _COST_KEYS}

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
        **group_costs("asset", costs.get("assets", {}), names),
        **group_costs("forward", costs.get("forwards", {}),
                      [f.get("name", "{}/{}".format(*f["pair"])) for f in forwards]),
        p0_asset=p0_asset,
        p0_forward=np.array([float(f.get("price", 1.0)) for f in forwards]),
    )
    return inst


def instance_to_dict(inst: Instance) -> dict:
    def bound(value):
        return None if np.isinf(value) else float(value)

    def cost_table(group, labels):
        return {label: {key: float(getattr(inst, f"{key}_{group}")[i]) for key in _COST_KEYS}
                for i, label in enumerate(labels)}

    pairs = [[inst.currencies[j1], inst.currencies[j2]] for j1, j2 in inst.forward_pairs]
    assets = [{"name": name, "currency": inst.asset_currency[i], "price": float(inst.p0_asset[i]),
               "a0": float(inst.a0[i]), "a_min": float(inst.a_min[i]),
               "a_max": bound(inst.a_max[i]), "t_min": float(inst.t_min_asset[i])}
              for i, name in enumerate(inst.assets)]
    currencies = [{"name": name, "c_min": bound(inst.c_min[j]), "c_max": bound(inst.c_max[j])}
                  for j, name in enumerate(inst.currencies)]
    forwards = [{"pair": pair, "price": float(inst.p0_forward[k]), "q0": float(inst.q0[k]),
                 "t_min": float(inst.t_min_forward[k])} for k, pair in enumerate(pairs)]
    costs = {"assets": cost_table("asset", inst.assets),
             "forwards": cost_table("forward", ["/".join(pair) for pair in pairs])}
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
    """`inst` at target mu, sharing its cache of shaped columns."""
    target = replace(inst, mu=float(mu))
    target.__dict__["_columns"] = inst.__dict__.setdefault("_columns", {})
    return target


# ---------------------------------------------------------------------------
# Solution
# ---------------------------------------------------------------------------


# Decision fields of one trading stage, in chromosome order; the
# recourse stage's fields carry an "r" prefix.
STAGE_FIELDS = ("b_asset", "s_asset", "x_asset", "y_asset",
                "b_fwd", "s_fwd", "x_fwd", "y_fwd", "z")


def stage_sizes(inst: Instance) -> tuple[int, ...]:
    """The length of each STAGE_FIELDS field: assets, forwards, currencies."""
    return (inst.n_assets,) * 4 + (inst.n_forwards,) * 4 + (inst.n_currencies,)


@dataclass(frozen=True)
class Solution:
    """First-stage and optional per-scenario recourse decisions.

    Binary arrays hold 0/1 floats. Recourse arrays are (N, k) shaped;
    None means no recourse trading in any scenario. A population carries
    one more leading axis on every field. A recourse field may also have
    any shape that broadcasts against (..., N, k).
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
    return Solution(**{f: np.zeros(k) for f, k in zip(STAGE_FIELDS, stage_sizes(inst))})


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
    margin: np.ndarray
    free_cash: np.ndarray
    residuals: dict[str, np.ndarray] = field(repr=False)


@dataclass(frozen=True)
class RecourseReport:
    """Per-scenario outcome: arrays are batch + (N, ...) shaped."""

    a: np.ndarray                 # N x A final units
    q: np.ndarray                 # N x K final units
    margin: np.ndarray            # N
    free_cash: np.ndarray         # N
    wealth: np.ndarray            # N
    # Per-scenario residuals; a held stage reports only the two that prices move.
    residuals: dict[str, np.ndarray] = field(repr=False)


# Per-instrument arrays have the instrument axis first, (k, ...batch), and
# exposures the currency axis first, (C, ...batch). Elementwise ops then
# run over whole batch planes, and sums over assets, forwards or
# currencies add planes instead of reducing rows of a few elements.
def _columns(inst: Instance, ndim: int) -> dict[str, np.ndarray]:
    """Every array field as a (k, 1, ..., 1) column against `ndim` batch
    axes, and the transposed currency maps (C x A one-hot of each asset's
    currency, C x K forward signs); cached on the Instance."""
    cache = inst.__dict__.setdefault("_columns", {})
    if ndim not in cache:
        cache[ndim] = {name: v.reshape((-1,) + (1,) * ndim)
                       for name, v in vars(inst).items() if isinstance(v, np.ndarray)}
        onehot = np.eye(inst.n_currencies)[inst.asset_currency_index()]
        cache[ndim].update(onehot_t=onehot.T.copy(),
                           sign_t=inst.forward_sign_matrix().T.astype(float))
    return cache[ndim]


def _by_currency(matrix_t: np.ndarray, planes: np.ndarray) -> np.ndarray:
    """(C, ...batch) sums of (k, ...batch) planes through a C x k map."""
    shape = (len(matrix_t),) + planes.shape[1:]
    if not len(planes):          # no forwards: a reshape to (0, -1) fails
        return np.zeros(shape)
    return (matrix_t @ planes.reshape(len(planes), -1)).reshape(shape)


def _exposure_residuals(inst: Instance, planes, margin, z=None, out=None):
    """The total_overlay and currency_exposure residuals from each
    currency's (asset value, overlay) planes in turn; its exposure, with
    the margin cash held in the base currency, goes into out[j] when
    given. The floor binds only currencies whose flag z[j] is on, so with
    no flags (a stage that trades nothing) only the caps count. An
    infinite floor or cap adds exactly 0, so it is skipped. The running
    sums add the planes in currency order, as .sum(0) over a contiguous
    (C, ...) array does."""
    gross = net = floor = cap = 0.0
    for j, (value, overlay) in enumerate(planes):
        c = value + overlay
        if j == inst.base_index:
            c += margin
        if out is not None:
            out[j] = c
        gross += np.abs(overlay)
        net += c
        if z is not None and inst.c_min[j] > -np.inf:
            floor += np.maximum(0.0, np.where(z[j] > 0.5, inst.c_min[j], -np.inf) - c)
        if inst.c_max[j] < np.inf:
            cap += np.maximum(0.0, c - inst.c_max[j])
        del value, overlay, c          # before the next currency's planes exist
    return (np.maximum(0.0, 0.5 * gross - inst.v_u * net) / inst.w0,
            np.broadcast_to((floor + cap) / inst.w0, net.shape))


def _group(inst: Instance, g: str, decisions, price, held, col):
    """One instrument group's stage, g "asset" or "forward": the units held
    after its trades, their value and x + y, each (k, ...batch); then,
    summed over the group, the net cash its trades bring in after costs
    and the value of trades below t_min or above B, and of negative ones."""
    b, s, x, y = decisions
    t_min = col["t_min_" + g]
    units = held + b * x - s * y
    sold, bought = s * price, b * price
    flow = ((sold * (1.0 - col["var_sell_" + g]) - col["fixed_sell_" + g]) * y
            - (bought * (1.0 + col["var_buy_" + g]) + col["fixed_buy_" + g]) * x).sum(0)
    size = ((np.maximum(0.0, t_min * x - b) + np.maximum(0.0, t_min * y - s)
             + np.maximum(0.0, b - inst.big_b) + np.maximum(0.0, s - inst.big_b))
            * price).sum(0)
    negative = ((np.maximum(0.0, -b) + np.maximum(0.0, -s)) * price).sum(0)
    return units, units * price, x + y, flow, size, negative


def _trade(inst: Instance, decisions, p_asset, p_fwd, cash, a_held, q_held):
    """One trading stage over the batch axes of its decisions.

    `decisions` are the stage's nine arrays in STAGE_FIELDS order, each
    (k, ...batch) or a shape of the same rank that broadcasts to it;
    prices, the cash and the holdings carried in broadcast against them.
    A residual that depends on the decisions alone keeps their shape.
    Returns (a, q, q_value, c, margin, free_cash, wealth, residuals), with
    a, q and q_value instrument-first, c currency-first. A recourse stage
    whose decisions are all zero is `_hold`'s, which needs no decisions.
    """
    z = decisions[8]
    col = _columns(inst, z.ndim - 1)
    a, asset_value, asset_traded, asset_flow, asset_size, asset_negative = _group(
        inst, "asset", decisions[0:4], p_asset, a_held, col)
    q, q_value, fwd_traded, fwd_flow, fwd_size, fwd_negative = _group(
        inst, "forward", decisions[4:8], p_fwd, q_held, col)
    net_cash = cash + asset_flow + fwd_flow
    free_cash = np.maximum(0.0, net_cash)

    margin = inst.margin_rate * (np.abs(q) * p_fwd).sum(0)
    c = _by_currency(col["onehot_t"], asset_value)
    total_overlay, currency_exposure = _exposure_residuals(
        inst, zip(c, _by_currency(col["sign_t"], q_value)), margin, z, out=c)
    wealth = asset_value.sum(0) + q_value.sum(0) + margin + free_cash

    res = {
        "cash_balance": np.maximum(0.0, -net_cash) / inst.w0,
        "total_overlay": total_overlay,
        "buy_or_sell_asset": np.maximum(0.0, asset_traded - 1.0).sum(0),
        "buy_or_sell_forward": np.maximum(0.0, fwd_traded - 1.0).sum(0),
        "trade_size_asset": asset_size / inst.w0,
        "trade_size_forward": fwd_size / inst.w0,
        "currency_exposure": currency_exposure,
        # Country activity: z_j demands at least one trade touching currency j.
        "country_activity": np.maximum(
            0.0, z - _by_currency(col["onehot_t"], asset_traded)).sum(0),
        "currency_cardinality": np.maximum(0.0, z.sum(0) - inst.k_c),
        "forward_cardinality": np.maximum(0.0, fwd_traded.sum(0) - inst.k_g),
        "nonnegative_trades": (asset_negative + fwd_negative) / inst.w0,
    }
    return a, q, q_value, c, margin, free_cash, wealth, res


def _last_first(v: np.ndarray) -> np.ndarray:
    """View with the last axis first; np.moveaxis without its checks."""
    return v.transpose(-1, *range(v.ndim - 1))


def _first_last(v: np.ndarray) -> np.ndarray:
    """View with the first axis last."""
    return v.transpose(*range(1, v.ndim), 0)


def evaluate_first_stage(inst: Instance, sol: Solution) -> FirstStageReport:
    col = _columns(inst, np.ndim(sol.z) - 1)
    a, q, q_value, c, margin, free_cash, _, res = _trade(
        inst, [_last_first(getattr(sol, f)) for f in STAGE_FIELDS],
        col["p0_asset"], col["p0_forward"], inst.h0, col["a0"], col["q0"])
    q_value = _first_last(q_value)
    return FirstStageReport(a=_first_last(a), q=_first_last(q), q_value=q_value,
                            F=col["sign_t"].T * q_value[..., :, None], c=_first_last(c),
                            margin=margin, free_cash=free_cash, residuals=res)


def _hold(inst: Instance, first: FirstStageReport,
          p_asset: np.ndarray, p_fwd: np.ndarray) -> RecourseReport:
    """Recourse with no trades: the first-stage portfolio in every scenario.

    It computes what `_trade` computes for all-zero decisions. Wealth is
    a @ p_asset^T + q @ p_fwd^T + margin + free cash. Country activity sets
    every currency flag of a stage that trades nothing to 0, so no floor
    binds and no currency cardinality counts: only the overlay and cap
    residuals can be nonzero, and the report holds just those two,
    total_overlay and currency_exposure. Holdings and free cash are
    broadcast views, not N-row copies.
    """
    shape = np.shape(first.free_cash) + (p_asset.shape[0],)
    col = _columns(inst, len(shape) - 1)
    margin = inst.margin_rate * (np.abs(first.q) @ p_fwd.T)
    # One currency's (...batch, N) asset value and overlay at a time.
    planes = (((first.a * onehot) @ p_asset.T, (first.q * sign) @ p_fwd.T)
              for onehot, sign in zip(col["onehot_t"], col["sign_t"]))
    res = dict(zip(("total_overlay", "currency_exposure"),
                   _exposure_residuals(inst, planes, margin)))
    wealth = (first.a @ p_asset.T + first.q @ p_fwd.T + margin
              + first.free_cash[..., None])
    return RecourseReport(
        a=np.broadcast_to(first.a[..., None, :], shape + (inst.n_assets,)),
        q=np.broadcast_to(first.q[..., None, :], shape + (inst.n_forwards,)),
        margin=margin, free_cash=np.broadcast_to(first.free_cash[..., None], shape),
        wealth=wealth, residuals=res)


def evaluate_recourse(inst: Instance, sol: Solution, first: FirstStageReport,
                      p_asset: np.ndarray, p_fwd: np.ndarray) -> RecourseReport:
    """Evaluate all scenarios at once; rows of p_asset/p_fwd are scenarios."""
    if not sol.has_recourse:
        return _hold(inst, first, p_asset, p_fwd)
    # Scenario prices become (k, 1, ..., N) against the (k, ...batch, N) decisions.
    ones = (1,) * np.ndim(first.free_cash)
    p_asset_t, p_fwd_t = (np.ascontiguousarray(p.T).reshape(p.shape[1:] + ones + p.shape[:1])
                          for p in (p_asset, p_fwd))
    a, q, _, _, margin, free_cash, wealth, res = _trade(
        inst, [_last_first(getattr(sol, "r" + f)) for f in STAGE_FIELDS], p_asset_t, p_fwd_t, first.free_cash[..., None],
        _last_first(first.a)[..., None], _last_first(first.q)[..., None])
    return RecourseReport(a=_first_last(a), q=_first_last(q), margin=margin,
                          free_cash=free_cash, wealth=wealth, residuals=res)


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


def _weighted_sum(values: np.ndarray, p: np.ndarray):
    """sum(values * p) over the last axis. einsum computes every row the
    same way, where OpenBLAS's matrix-vector product rounds the last (row
    count mod 4) rows with another kernel, so a fitness would depend on
    its row in the pass."""
    return np.einsum("...n,n->...", values, p)


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
    cvar = alpha + _weighted_sum(e, p) / (1.0 - beta)
    return alpha, cvar, e


def expected_return(wealth_vec, probabilities, w0: float) -> float:
    wealth_vec = np.asarray(wealth_vec, dtype=float)
    p = np.asarray(probabilities, dtype=float)
    return _weighted_sum(wealth_vec / w0 - 1.0, p)


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
    each over the batch axes. Every first-stage residual key has a
    recourse twin, the scenario mean; one the recourse stage does not
    report (a held stage reports two) is 0.0."""
    losses = -(rec.wealth / inst.w0 - 1.0)
    alpha, cvar, _ = cvar_objective(losses, probabilities, inst.beta)
    exp_ret = expected_return(rec.wealth, probabilities, inst.w0)

    residuals = dict(first.residuals)
    for key in first.residuals:
        vec = rec.residuals.get(key)
        residuals["recourse_" + key] = 0.0 if vec is None else vec.mean(axis=-1)
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
    makes them from a (P, L) gene array; recourse fields may instead
    broadcast against (P, N, k). Entry i is `evaluate`'s fitness of
    solution i, up to the order of floating-point sums.
    """
    first = evaluate_first_stage(inst, sols)
    rec = evaluate_recourse(inst, sols, first, p_asset, p_fwd)
    return _score(inst, first, rec, scen.probabilities)[0]
