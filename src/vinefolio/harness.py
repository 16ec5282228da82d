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
from .errors import MissingColumn, MissingRateSeries, NonNumericCell, ParseError
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
    for ccy in currencies:
        if ccy not in rates:
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


def _classify(ev: model.Evaluation) -> str:
    target_res = ev.residuals.get("return_target", 0.0)
    other = ev.violation - target_res
    if other > FEASIBILITY_TOL:
        return "infeasible"
    if target_res > FEASIBILITY_TOL:
        return "target-unreachable"
    return "solved"


def _point_from_result(inst: Instance, result: ga_mod.GAResult, mu: float) -> FrontierPoint:
    ev = result.evaluation
    first = ev.first
    asset_value = float(first.a @ inst.p0_asset)
    fx = float(np.delete(first.c, inst.base_index).sum())
    ovl = 0.5 * float(np.abs(first.F.sum(axis=0)).sum()) if first.F.size else 0.0
    return FrontierPoint(
        mu=mu,
        achieved_return=ev.expected_return,
        cvar=ev.cvar,
        equity_share=asset_value / inst.w0,
        fx_exposure=fx / inst.w0,
        total_overlay=ovl / inst.w0,
        status=_classify(ev),
    )


def frontier(inst: Instance, scen: ScenarioSet, mu_grid,
             config: ga_mod.GAConfig) -> list[FrontierPoint]:
    """One GA solve per return target; failures become status flags."""
    points = []
    for mu in mu_grid:
        target_inst = model.with_return_target(inst, float(mu))
        try:
            result = ga_mod.run(target_inst, scen, config)
            points.append(_point_from_result(target_inst, result, float(mu)))
        except Exception:  # noqa: BLE001 - the sweep must never abort
            points.append(FrontierPoint(
                mu=float(mu), achieved_return=float("nan"), cvar=float("nan"),
                equity_share=float("nan"), fx_exposure=float("nan"),
                total_overlay=float("nan"), status="infeasible",
            ))
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

    Exposures are held fixed as fractions of initial wealth; asset legs
    earn adjusted asset + currency returns, forwards earn the adjusted
    leg difference, margin and free cash earn zero.
    """
    adj = adjust_returns(panel)
    first = model.evaluate_first_stage(inst, sol)
    m = adj.n_periods
    total = np.zeros(m)
    for i, name in enumerate(inst.assets):
        if name not in adj.assets:
            raise MissingColumn(name)
        ccy = inst.asset_currency[i]
        if ccy not in adj.currencies:
            raise MissingColumn(ccy)
        frac = first.a[i] * inst.p0_asset[i] / inst.w0
        total += frac * (adj.assets[name] + adj.currencies[ccy])
    for k, (j1, j2) in enumerate(inst.forward_pairs):
        long_c, short_c = inst.currencies[j1], inst.currencies[j2]
        for c in (long_c, short_c):
            if c not in adj.currencies:
                raise MissingColumn(c)
        frac = first.q_value[k] / inst.w0
        total += frac * (adj.currencies[long_c] - adj.currencies[short_c])
    return total


def backtest(inst: Instance, sol: Solution, panel: ReturnPanel) -> BacktestReport:
    returns = portfolio_period_returns(inst, sol, panel)
    wealth = 100.0 * np.cumprod(1.0 + returns)
    mean_ret = float(returns.mean())
    q5 = float(np.quantile(returns, 0.05))
    tail = returns[returns < q5]
    hist_cvar = float(-tail.mean()) if tail.size else 0.0
    ratio = mean_ret / hist_cvar if hist_cvar != 0.0 else None
    return BacktestReport(
        periods=panel.periods, returns=returns, wealth=wealth,
        final_wealth=float(wealth[-1]) if wealth.size else 100.0,
        mean_return=mean_ret, historical_cvar=hist_cvar,
        return_to_cvar=ratio,
    )
