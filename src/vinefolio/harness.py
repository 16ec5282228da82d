"""Data ingestion, efficient-frontier sweep, and out-of-sample backtest.

The panel CSV has a `period` column, one column per return series, and
interest-rate columns named `rate.<CCY>`; currency return series are
columns named exactly by the currency code. Asset columns are mapped to
currencies by the caller's configuration.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from . import ga as ga_mod
from . import model
from .errors import (EmptyPanel, MissingColumn, MissingRateSeries, NonNumericCell,
                     ParseError, VinefolioError)
from .model import Instance, Solution
from .scenarios import ReturnPanel, ScenarioSet, adjust_returns

FEASIBILITY_TOL = 1e-6


# ---------------------------------------------------------------------------
# Panel loading
# ---------------------------------------------------------------------------


def read_numeric_csv(path, first_column: str | None = None):
    """Header, first-column labels and numeric cells (rows x columns) of a CSV.

    Blank lines are skipped. A missing header, a first column other than
    `first_column` when one is given, a ragged row and a blank,
    non-numeric or non-finite cell each raise an error naming the line.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if not header:
            raise ParseError("no header row", line=1)
        if first_column is not None and header[0] != first_column:
            raise ParseError(f"first column must be {first_column!r}", line=1)
        labels, rows = [], []
        for line_no, row in enumerate(reader, start=2):
            if not row or all(cell.strip() == "" for cell in row):
                continue
            if len(row) != len(header):
                raise ParseError(
                    f"expected {len(header)} cells, got {len(row)}", line=line_no
                )
            labels.append(row[0])
            values = []
            for name, cell in zip(header[1:], row[1:]):
                text = cell.strip()
                if text == "":
                    raise ParseError(f"blank cell in column {name!r}", line=line_no)
                try:
                    value = float(text)
                except ValueError:
                    raise NonNumericCell(
                        f"non-numeric cell {cell!r} in column {name!r}", line=line_no
                    ) from None
                if not np.isfinite(value):
                    raise NonNumericCell(
                        f"non-finite cell {cell!r} in column {name!r}", line=line_no)
                values.append(value)
            rows.append(values)
    return header, labels, np.array(rows, dtype=float).reshape(len(rows), len(header) - 1)


def load_panel(path: str, asset_currency: dict[str, str], base: str) -> ReturnPanel:
    """Read a return panel CSV and validate it cell by cell.

    Rate columns define the currency universe; a column named like a
    currency code is that currency's return series. Every other column
    is an asset and must appear in `asset_currency`. The base currency's
    return series defaults to zero if absent.
    """
    header, periods, matrix = read_numeric_csv(path, "period")
    data = dict(zip(header[1:], np.ascontiguousarray(matrix.T)))
    m = len(periods)

    rates = {
        name[len("rate."):]: data.pop(name)
        for name in list(data)
        if name.startswith("rate.")
    }
    currency_codes = set(rates) | {base}
    currencies = {c: data.pop(c) for c in list(data) if c in currency_codes}
    if base not in currencies:
        currencies[base] = np.zeros(m)
    if base not in rates:
        rates[base] = np.zeros(m)

    assets = {}
    for name, col in data.items():
        if name not in asset_currency:
            raise MissingColumn(
                f"series {name!r} has no currency assignment in the config"
            )
        assets[name] = col
    for name, ccy in asset_currency.items():
        if name in assets and ccy not in rates:
            raise MissingRateSeries(ccy)

    return ReturnPanel(
        periods=tuple(periods), assets=assets,
        asset_currency={n: asset_currency[n] for n in assets},
        currencies=currencies, rates=rates, base=base,
    )


# ---------------------------------------------------------------------------
# Efficient frontier
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FrontierPoint:
    mu: float
    achieved_return: float
    cvar: float
    equity_share: float
    fx_exposure: float
    total_overlay: float
    status: str                      # solved | infeasible | target-unreachable
    reason: str = ""                 # why a point is not solved


def _classify(ev: model.Evaluation) -> tuple[str, str]:
    """Status, and unless solved the positive residuals, largest first."""
    target_res = ev.residuals.get("return_target", 0.0)
    other = ev.violation - target_res
    if other > FEASIBILITY_TOL:
        status = "infeasible"
    elif target_res > FEASIBILITY_TOL:
        status = "target-unreachable"
    else:
        return "solved", ""
    positive = sorted((v, k) for k, v in ev.residuals.items() if v > 0.0)
    return status, "; ".join(f"{k}={v:.6g}" for v, k in reversed(positive))


def _point_from_result(inst: Instance, result: ga_mod.GAResult, mu: float) -> FrontierPoint:
    ev = result.evaluation
    first = ev.first
    asset_value = float(first.a @ inst.p0_asset)
    fx = float(np.delete(first.c, inst.base_index).sum())
    ovl = 0.5 * float(np.abs(first.F.sum(axis=0)).sum()) if first.F.size else 0.0
    status, reason = _classify(ev)
    return FrontierPoint(
        mu=mu,
        achieved_return=ev.expected_return,
        cvar=ev.cvar,
        equity_share=asset_value / inst.w0,
        fx_exposure=fx / inst.w0,
        total_overlay=ovl / inst.w0,
        status=status,
        reason=reason,
    )


def frontier(inst: Instance, scen: ScenarioSet, mu_grid,
             config: ga_mod.GAConfig) -> list[FrontierPoint]:
    """One GA solve per return target.

    A solve that raises a `VinefolioError` becomes an `infeasible` row
    with the error as its reason; any other exception propagates.
    """
    points = []
    for mu in mu_grid:
        target_inst = model.with_return_target(inst, float(mu))
        try:
            result = ga_mod.run(target_inst, scen, config)
        except VinefolioError as exc:
            nan = float("nan")
            points.append(FrontierPoint(float(mu), nan, nan, nan, nan, nan,
                                        "infeasible", repr(exc)))
            continue
        points.append(_point_from_result(target_inst, result, float(mu)))
    return points


# ---------------------------------------------------------------------------
# Backtest
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BacktestReport:
    periods: tuple[str, ...]
    returns: np.ndarray
    wealth: np.ndarray               # index starting at 100 before period 1
    final_wealth: float
    mean_return: float
    historical_cvar: float           # positive number = mean tail loss
    return_to_cvar: float | None


def portfolio_period_returns(inst: Instance, sol: Solution,
                             panel: ReturnPanel) -> np.ndarray:
    """Buy-and-hold per-period total returns of the first-stage portfolio.

    Each carry-adjusted period is priced as a scenario by
    `model.scenario_prices`, so every asset and currency of the instance
    must be a panel column; a period's return is the change in value of
    the first-stage assets and forwards over initial wealth. Margin and
    free cash earn zero.
    """
    adj = adjust_returns(panel)
    if not adj.n_periods:
        raise EmptyPanel("the out-of-sample panel has no periods")
    periods = ScenarioSet(tuple(adj.column_names()), adj.column_matrix(),
                          np.full(adj.n_periods, 1.0 / adj.n_periods))
    p_asset, p_fwd = model.scenario_prices(inst, periods)
    first = model.evaluate_first_stage(inst, sol)
    return ((p_asset - inst.p0_asset) @ first.a
            + (p_fwd - inst.p0_forward) @ first.q) / inst.w0


def backtest(inst: Instance, sol: Solution, panel: ReturnPanel) -> BacktestReport:
    """The portfolio's wealth path over `panel` and its historical CVaR:
    `model.cvar_objective` of the period losses at beta = 0.95."""
    returns = portfolio_period_returns(inst, sol, panel)
    wealth = 100.0 * np.cumprod(1.0 + returns)
    mean_ret = float(returns.mean())
    hist_cvar = float(model.cvar_objective(
        -returns, np.full(returns.size, 1.0 / returns.size), 0.95)[1])
    ratio = mean_ret / hist_cvar if hist_cvar != 0.0 else None
    return BacktestReport(
        periods=panel.periods, returns=returns, wealth=wealth,
        final_wealth=float(wealth[-1]),
        mean_return=mean_ret, historical_cvar=hist_cvar,
        return_to_cvar=ratio,
    )
