"""Correctness checks computed apart from the package.

Each check returns a list of messages, empty when it passes. They run
after the timed span and read only the package's outputs (decoded
decisions, reported wealth, margin, free cash, CVaR) and the inputs.
Terminal wealth is rebuilt as market value plus the reported margin and
free cash, so the checks hold whatever the model decides margin and
holding bounds should be.
"""

from __future__ import annotations

import numpy as np
from scipy import stats

REL_TOL = 1e-9
TARGET_TOL = 1e-6
MVN_SIGMAS = 5.0
# Per-column two-sample KS level: under 1% family-wise over the 57
# column tests of a `stability` pass. Over 400 seeds of N = 200 draws on
# the acceptance market, 1 of 2400 correct columns read p < 0.01 (0.0084)
# and none p < 0.001; larger sets never read below 0.04.
KS_LEVEL = 1e-4


def tau_gap_bound(n: int) -> float:
    """Bound on the mean |tau(scenarios) - tau(panel)|.

    The gap is a fixed part (weak panel pairs fitted as independent,
    about 0.04 on both panels) plus sampling noise that shrinks like
    1/sqrt(N). Largest gaps over 400 seeds (150 on the wide panel):
    0.089 at N = 200 (bound 0.121), 0.060 at N = 1000 (0.082), 0.048,
    0.044 and 0.040 on the wide panel at N = 500, 1000 and 2000.
    """
    return 0.05 + 1.0 / np.sqrt(n)


def close(a: float, b: float, rtol: float = REL_TOL) -> bool:
    """Agreement to `rtol`, relative to max(1, |a|, |b|)."""
    return abs(a - b) <= rtol * max(1.0, abs(a), abs(b))


def cvar_tail(losses, probabilities, beta: float) -> float:
    """CVaR as the mean of the worst (1 - beta) probability mass.

    Losses are taken worst first with their full probability until the
    tail mass is reached; the boundary loss gets the fractional weight
    that is left (Rockafellar and Uryasev, 2000).
    """
    losses = np.asarray(losses, dtype=float)
    p = np.asarray(probabilities, dtype=float)
    order = np.argsort(-losses, kind="stable")
    l_sorted, p_sorted = losses[order], p[order]
    mass_before = np.concatenate(([0.0], np.cumsum(p_sorted)[:-1]))
    weight = np.clip((1.0 - beta) - mass_before, 0.0, p_sorted)
    return float(weight @ l_sorted) / (1.0 - beta)


def ru_minimum(losses, probabilities, beta: float) -> float:
    """min over alpha in the losses of alpha + E[(L - alpha)+] / (1 - beta)."""
    losses = np.asarray(losses, dtype=float)
    p = np.asarray(probabilities, dtype=float)
    order = np.argsort(losses, kind="stable")
    l_sorted, p_sorted = losses[order], p[order]
    # Suffix sums over j >= k; ties at alpha add (l - alpha) = 0 either way.
    mass = np.cumsum(p_sorted[::-1])[::-1]
    moment = np.cumsum((p_sorted * l_sorted)[::-1])[::-1]
    excess = np.maximum(moment - l_sorted * mass, 0.0)
    return float(np.min(l_sorted + excess / (1.0 - beta)))


def scenario_prices(inst, scen):
    """(N x A, N x K) prices: P0 times one plus the summed leg returns."""
    col = {name: scen.values[:, j] for j, name in enumerate(scen.columns)}
    p_asset = np.column_stack([
        inst.p0_asset[i] * (1.0 + col[name] + col[inst.asset_currency[i]])
        for i, name in enumerate(inst.assets)
    ])
    p_fwd = np.zeros((scen.n_scenarios, inst.n_forwards))
    for k, (long_j, short_j) in enumerate(inst.forward_pairs):
        p_fwd[:, k] = inst.p0_forward[k] * (
            1.0 + col[inst.currencies[long_j]] - col[inst.currencies[short_j]])
    return p_asset, p_fwd


def holdings(inst, sol):
    """Per-scenario (N x A, N x K) holdings after both stages, or the
    first-stage (A, K) holdings when there is no recourse."""
    a = inst.a0 + sol.b_asset * sol.x_asset - sol.s_asset * sol.y_asset
    q = inst.q0 + sol.b_fwd * sol.x_fwd - sol.s_fwd * sol.y_fwd
    if sol.has_recourse:
        a = a + sol.rb_asset * sol.rx_asset - sol.rs_asset * sol.ry_asset
        q = q + sol.rb_fwd * sol.rx_fwd - sol.rs_fwd * sol.ry_fwd
    return a, q


def oracle_wealth(inst, scen, result) -> np.ndarray:
    """Per-scenario market value of the decoded holdings plus the
    reported margin and free cash."""
    rec = result.evaluation.recourse
    p_asset, p_fwd = scenario_prices(inst, scen)
    a, q = holdings(inst, result.solution)
    value = (a * p_asset).sum(axis=1) + (q * p_fwd).sum(axis=1)
    return value + rec.margin + rec.free_cash


def check_solve(inst, scen, result) -> list[str]:
    """Wealth, expected return, CVaR and GA-trace checks of one solve."""
    ev = result.evaluation
    rec = ev.recourse
    wealth = oracle_wealth(inst, scen, result)
    problems = []
    gap = np.abs(wealth - rec.wealth) / np.maximum(1.0, np.abs(wealth))
    if not gap.max() <= REL_TOL:
        problems.append(f"terminal wealth off by {gap.max():.3g} relative")
    probs = scen.probabilities
    losses = -(wealth / inst.w0 - 1.0)
    exp_ret = float(probs @ (wealth / inst.w0 - 1.0))
    if not close(exp_ret, ev.expected_return):
        problems.append(f"expected return {ev.expected_return!r} != {exp_ret!r}")
    cvar = cvar_tail(losses, probs, inst.beta)
    if not close(cvar, ev.cvar):
        problems.append(f"cvar {ev.cvar!r} != tail oracle {cvar!r}")
    slack = REL_TOL * max(1.0, abs(ev.cvar))
    if ev.cvar < ev.alpha - slack:
        problems.append(f"cvar {ev.cvar!r} below var {ev.alpha!r}")
    if ev.cvar < float(probs @ losses) - slack:
        problems.append(f"cvar {ev.cvar!r} below the expected loss")
    if ru_minimum(losses, probs, inst.beta) < ev.cvar - slack:
        problems.append("a loss value as alpha gives a lower RU objective")
    best = np.array([row[1] for row in result.trace] + [result.fitness])
    if np.any(np.diff(best) > 0.0):
        problems.append("best fitness rose between generations")
    return problems


def check_row(point, inst, scen, result, unreachable: float) -> list[str]:
    """A frontier row against its solve: values, status, target."""
    ev = result.evaluation
    problems = []
    if not (close(point.achieved_return, ev.expected_return)
            and close(point.cvar, ev.cvar)):
        problems.append(f"mu={point.mu}: row does not match its solve")
    if point.status == "solved":
        wealth = oracle_wealth(inst, scen, result)
        achieved = float(scen.probabilities @ (wealth / inst.w0 - 1.0))
        if achieved < point.mu - TARGET_TOL:
            problems.append(f"mu={point.mu}: solved at return {achieved!r}")
        if point.mu == unreachable:
            problems.append(f"mu={point.mu} marked solved")
    return problems


def _live(matrix: np.ndarray) -> np.ndarray:
    return matrix.std(axis=0) > 1e-12


def check_rvc(panel, scen) -> list[str]:
    """Per-column two-sample KS and the mean Kendall tau gap."""
    matrix = panel.column_matrix()
    names = panel.column_names()
    if list(scen.columns) != names or scen.values.shape[1] != len(names):
        return [f"scenario columns {scen.columns} != panel {names}"]
    problems = []
    live = np.flatnonzero(_live(matrix))
    for j in range(len(names)):
        if j not in live and not np.allclose(scen.values[:, j], matrix[0, j]):
            problems.append(f"constant column {names[j]} not carried through")
    for j in live:
        p = stats.ks_2samp(scen.values[:, j], matrix[:, j]).pvalue
        if p < KS_LEVEL:
            problems.append(f"KS p={p:.3g} on column {names[j]}")
    if len(live) > 1:
        gap = tau_gap(matrix, scen.values, live)
        if not gap < tau_gap_bound(scen.n_scenarios):
            problems.append(f"mean Kendall tau gap {gap:.3f}")
    return problems


def tau_gap(matrix, values, live) -> float:
    """Mean |tau(values) - tau(matrix)| over pairs of the live columns."""
    return float(np.mean([
        abs(stats.kendalltau(values[:, a], values[:, b])[0]
            - stats.kendalltau(matrix[:, a], matrix[:, b])[0])
        for i, a in enumerate(live) for b in live[i + 1:]
    ]))


def check_mvn(panel, scen) -> list[str]:
    """Sample mean and covariance within MVN_SIGMAS Monte Carlo errors."""
    matrix = panel.column_matrix()
    values, n = scen.values, scen.n_scenarios
    live = _live(matrix)
    problems = []
    if not np.allclose(values[:, ~live], matrix[0, ~live], atol=1e-5):
        problems.append("constant columns not carried through")
    x, y = matrix[:, live], values[:, live]
    cov = np.cov(x, rowvar=False, ddof=1)
    sd = np.sqrt(np.diag(cov))
    if np.any(np.abs(y.mean(axis=0) - x.mean(axis=0)) > MVN_SIGMAS * sd / np.sqrt(n)):
        problems.append("sample mean outside Monte Carlo error")
    cov_se = np.sqrt((np.outer(sd**2, sd**2) + cov**2) / n)
    if np.any(np.abs(np.cov(y, rowvar=False, ddof=1) - cov) > MVN_SIGMAS * cov_se):
        problems.append("sample covariance outside Monte Carlo error")
    return problems
