"""Bivariate copula families.

Implements density, conditional distribution (h-function), its inverse,
Kendall's tau, parameter fitting and AIC-based family selection for the
elliptical (Gaussian, Student's t) and Archimedean (Clayton, Gumbel,
Frank) families plus the 90/180/270-degree rotations of Clayton and
Gumbel, and the independence copula.

Rotated families are evaluated through the base family at reflected
arguments; 90/270 rotations carry negated parameter ranges.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy import integrate, optimize, special, stats

from .errors import FitFailure, InvalidParameter, LengthMismatch, NonConvergence

EPS = 1e-10
DF_MIN, DF_MAX = 2.0 + 1e-4, 30.0


class CopulaFamily(Enum):
    INDEPENDENCE = "independence"
    GAUSSIAN = "gaussian"
    STUDENT_T = "student_t"
    CLAYTON = "clayton"
    GUMBEL = "gumbel"
    FRANK = "frank"
    CLAYTON_90 = "clayton_90"
    CLAYTON_180 = "clayton_180"
    CLAYTON_270 = "clayton_270"
    GUMBEL_90 = "gumbel_90"
    GUMBEL_180 = "gumbel_180"
    GUMBEL_270 = "gumbel_270"


ALL_FAMILIES = frozenset(CopulaFamily)

# (base family, rotation degrees)
_ROTATION = {
    CopulaFamily.CLAYTON_90: (CopulaFamily.CLAYTON, 90),
    CopulaFamily.CLAYTON_180: (CopulaFamily.CLAYTON, 180),
    CopulaFamily.CLAYTON_270: (CopulaFamily.CLAYTON, 270),
    CopulaFamily.GUMBEL_90: (CopulaFamily.GUMBEL, 90),
    CopulaFamily.GUMBEL_180: (CopulaFamily.GUMBEL, 180),
    CopulaFamily.GUMBEL_270: (CopulaFamily.GUMBEL, 270),
}

# Inclusive numeric fitting bounds, clamped 1e-4 inside open range ends.
_THETA_BOUNDS = {
    CopulaFamily.GAUSSIAN: (-1 + 1e-4, 1 - 1e-4),
    CopulaFamily.STUDENT_T: (-1 + 1e-4, 1 - 1e-4),
    CopulaFamily.CLAYTON: (1e-4, 28.0),
    CopulaFamily.GUMBEL: (1.0, 17.0),
    CopulaFamily.FRANK: (-35.0, 35.0),
    CopulaFamily.CLAYTON_180: (1e-4, 28.0),
    CopulaFamily.GUMBEL_180: (1.0, 17.0),
    CopulaFamily.CLAYTON_90: (-28.0, -1e-4),
    CopulaFamily.CLAYTON_270: (-28.0, -1e-4),
    CopulaFamily.GUMBEL_90: (-17.0, -1.0),
    CopulaFamily.GUMBEL_270: (-17.0, -1.0),
}


def theta_in_range(family: CopulaFamily, theta: float) -> bool:
    """Whether theta lies in the family's admissible parameter range."""
    if family is CopulaFamily.INDEPENDENCE:
        return True
    if family in (CopulaFamily.GAUSSIAN, CopulaFamily.STUDENT_T):
        return -1.0 < theta < 1.0
    if family in (CopulaFamily.CLAYTON, CopulaFamily.CLAYTON_180):
        return theta > 0.0
    if family in (CopulaFamily.GUMBEL, CopulaFamily.GUMBEL_180):
        return theta >= 1.0
    if family is CopulaFamily.FRANK:
        return theta != 0.0
    if family in (CopulaFamily.CLAYTON_90, CopulaFamily.CLAYTON_270):
        return theta < 0.0
    if family in (CopulaFamily.GUMBEL_90, CopulaFamily.GUMBEL_270):
        return theta <= -1.0
    raise ValueError(family)


@dataclass(frozen=True)
class FittedBicop:
    """A copula family with fitted parameters and fit diagnostics."""

    family: CopulaFamily
    theta: float = 0.0
    theta2: float | None = None  # Student's t degrees of freedom
    loglik: float = 0.0
    n_obs: int = 0

    def __post_init__(self):
        if not theta_in_range(self.family, self.theta):
            raise InvalidParameter(
                f"theta={self.theta} outside range of {self.family.value}"
            )
        if self.family is CopulaFamily.STUDENT_T:
            if self.theta2 is None or not self.theta2 > 2.0:
                raise InvalidParameter("Student t needs degrees of freedom > 2")

    @property
    def n_params(self) -> int:
        if self.family is CopulaFamily.INDEPENDENCE:
            return 0
        return 2 if self.family is CopulaFamily.STUDENT_T else 1

    @property
    def aic(self) -> float:
        return 2.0 * self.n_params - 2.0 * self.loglik


def _clip(u):
    return np.clip(np.asarray(u, dtype=float), EPS, 1.0 - EPS)


# ---------------------------------------------------------------------------
# Base-family kernels (all exchangeable), vectorized over numpy arrays.
# h(u|v) is the conditional CDF of the first argument given the second,
# i.e. dC(u, v)/dv.
# ---------------------------------------------------------------------------


def _gauss_pdf(u, v, rho):
    x, y = special.ndtri(u), special.ndtri(v)
    r2 = 1.0 - rho * rho
    expo = -(rho * rho * (x * x + y * y) - 2.0 * rho * x * y) / (2.0 * r2)
    return np.exp(expo) / math.sqrt(r2)


def _gauss_h(u, v, rho):
    x, y = special.ndtri(u), special.ndtri(v)
    return special.ndtr((x - rho * y) / math.sqrt(1.0 - rho * rho))


def _gauss_hinv(w, v, rho):
    y = special.ndtri(v)
    x = special.ndtri(w) * math.sqrt(1.0 - rho * rho) + rho * y
    return special.ndtr(x)


def _t_ppf(p, df):
    """Student-t quantile with one Newton step: scipy's `t.ppf` misses by
    about 4e-11 in probability near p = 0.5, which h-function differences
    magnify. Arguments are clipped to (0, 1), so the quantile is finite."""
    x = special.stdtrit(df, p)
    log_pdf = (special.gammaln((df + 1.0) / 2.0) - special.gammaln(df / 2.0)
               - 0.5 * np.log(df * np.pi) - (df + 1.0) / 2.0 * np.log1p(x * x / df))
    return x - (special.stdtr(df, x) - p) / np.exp(log_pdf)


def _t_pdf(u, v, rho, df, xy=None):
    """`xy`, if given, holds the quantiles `_t_ppf(u, df), _t_ppf(v, df)`."""
    x, y = xy if xy is not None else (_t_ppf(u, df), _t_ppf(v, df))
    r2 = 1.0 - rho * rho
    log_num = (
        math.lgamma((df + 2.0) / 2.0)
        + math.lgamma(df / 2.0)
        - 2.0 * math.lgamma((df + 1.0) / 2.0)
        - 0.5 * math.log(r2)
    )
    core = 1.0 + (x * x + y * y - 2.0 * rho * x * y) / (df * r2)
    marg = (1.0 + x * x / df) * (1.0 + y * y / df)
    return np.exp(
        log_num
        - (df + 2.0) / 2.0 * np.log(core)
        + (df + 1.0) / 2.0 * np.log(marg)
    )


def _t_h(u, v, rho, df):
    x, y = _t_ppf(u, df), _t_ppf(v, df)
    scale = np.sqrt((df + y * y) * (1.0 - rho * rho) / (df + 1.0))
    return special.stdtr(df + 1.0, (x - rho * y) / scale)


def _t_hinv(w, v, rho, df):
    y = _t_ppf(v, df)
    scale = np.sqrt((df + y * y) * (1.0 - rho * rho) / (df + 1.0))
    x = _t_ppf(w, df + 1.0) * scale + rho * y
    return special.stdtr(df, x)


def _clayton_pdf(u, v, th):
    lu, lv = np.log(u), np.log(v)
    s = np.power(u, -th) + np.power(v, -th) - 1.0
    return np.exp(
        np.log1p(th) - (1.0 + th) * (lu + lv) - (2.0 + 1.0 / th) * np.log(s)
    )


def _clayton_h(u, v, th):
    s = np.power(u, -th) + np.power(v, -th) - 1.0
    return np.power(v, -th - 1.0) * np.power(s, -1.0 / th - 1.0)


def _clayton_hinv(w, v, th):
    a = np.power(w * np.power(v, th + 1.0), -th / (th + 1.0))
    return np.power(np.maximum(a + 1.0 - np.power(v, -th), EPS), -1.0 / th)


def _gumbel_pieces(u, v, th):
    lu, lv = -np.log(u), -np.log(v)
    s = np.power(lu, th) + np.power(lv, th)
    a = np.power(s, 1.0 / th)
    return lu, lv, s, a


def _gumbel_pdf(u, v, th):
    lu, lv, s, a = _gumbel_pieces(u, v, th)
    # c = C(u,v) (uv)^-1 (lu lv)^(th-1) s^(1/th - 2) (a + th - 1)
    logc = (
        -a
        - np.log(u)
        - np.log(v)
        + (th - 1.0) * (np.log(lu) + np.log(lv))
        + (1.0 / th - 2.0) * np.log(s)
        + np.log(a + th - 1.0)
    )
    return np.exp(logc)


def _gumbel_h(u, v, th):
    lu, lv, s, a = _gumbel_pieces(u, v, th)
    return np.exp(-a) / v * np.power(lv, th - 1.0) * np.power(s, 1.0 / th - 1.0)


def _gumbel_hinv(w, v, th):
    # No closed form: bisection in u, monotone increasing.
    w = np.asarray(w, dtype=float)
    v = np.asarray(v, dtype=float)
    lo = np.full(np.broadcast(w, v).shape, EPS)
    hi = np.full_like(lo, 1.0 - EPS)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        too_low = _gumbel_h(mid, v, th) < w
        new_lo, new_hi = np.where(too_low, mid, lo), np.where(too_low, hi, mid)
        if np.array_equal(new_lo, lo) and np.array_equal(new_hi, hi):
            break  # a fixed point: no later step would move either end
        lo, hi = new_lo, new_hi
        if np.max(hi - lo) < 1e-16:
            break
    return 0.5 * (lo + hi)


def _frank_pdf(u, v, th):
    em = -np.expm1(-th)  # 1 - e^-theta
    eu, ev = -np.expm1(-th * u), -np.expm1(-th * v)
    denom = em - eu * ev
    return th * em * np.exp(-th * (u + v)) / (denom * denom)


def _frank_h(u, v, th):
    eu, ev = np.expm1(-th * u), np.expm1(-th * v)
    em = np.expm1(-th)
    return eu * (ev + 1.0) / (em + eu * ev)


def _frank_hinv(w, v, th):
    ev = np.exp(-th * v)
    val = 1.0 + np.expm1(-th) / ((1.0 / w - 1.0) * ev + 1.0)
    return -np.log(np.maximum(val, EPS)) / th


# ---------------------------------------------------------------------------
# Dispatch with rotations
# ---------------------------------------------------------------------------


def _base_eval(kind: str, family: CopulaFamily, u, v, theta, theta2):
    if family is CopulaFamily.GAUSSIAN:
        fn = {"pdf": _gauss_pdf, "h": _gauss_h, "hinv": _gauss_hinv}[kind]
        return fn(u, v, theta)
    if family is CopulaFamily.STUDENT_T:
        fn = {"pdf": _t_pdf, "h": _t_h, "hinv": _t_hinv}[kind]
        return fn(u, v, theta, theta2)
    if family is CopulaFamily.CLAYTON:
        fn = {"pdf": _clayton_pdf, "h": _clayton_h, "hinv": _clayton_hinv}[kind]
        return fn(u, v, theta)
    if family is CopulaFamily.GUMBEL:
        fn = {"pdf": _gumbel_pdf, "h": _gumbel_h, "hinv": _gumbel_hinv}[kind]
        return fn(u, v, theta)
    if family is CopulaFamily.FRANK:
        fn = {"pdf": _frank_pdf, "h": _frank_h, "hinv": _frank_hinv}[kind]
        return fn(u, v, theta)
    raise ValueError(family)


def density(c: FittedBicop, u, v):
    """Copula density c(u, v); arguments are clamped to (0, 1)."""
    u, v = _clip(u), _clip(v)
    fam = c.family
    if fam is CopulaFamily.INDEPENDENCE:
        return np.ones(np.broadcast(u, v).shape) if np.ndim(u) or np.ndim(v) else 1.0
    if fam in _ROTATION:
        base, deg = _ROTATION[fam]
        th = abs(c.theta)
        if deg == 180:
            return _base_eval("pdf", base, 1.0 - u, 1.0 - v, c.theta, c.theta2)
        if deg == 90:
            return _base_eval("pdf", base, 1.0 - u, v, th, c.theta2)
        return _base_eval("pdf", base, u, 1.0 - v, th, c.theta2)  # 270
    return _base_eval("pdf", fam, u, v, c.theta, c.theta2)


def h_func(c: FittedBicop, u, v):
    """Conditional CDF of u given v: dC(u, v)/dv."""
    u, v = _clip(u), _clip(v)
    fam = c.family
    if fam is CopulaFamily.INDEPENDENCE:
        return u
    if fam in _ROTATION:
        base, deg = _ROTATION[fam]
        th = abs(c.theta)
        if deg == 180:
            return 1.0 - _base_eval("h", base, 1.0 - u, 1.0 - v, c.theta, c.theta2)
        if deg == 90:
            return 1.0 - _base_eval("h", base, 1.0 - u, v, th, c.theta2)
        return _base_eval("h", base, u, 1.0 - v, th, c.theta2)  # 270
    return _base_eval("h", fam, u, v, c.theta, c.theta2)


def h_func_cond_first(c: FittedBicop, u, v):
    """Conditional CDF of v given u: dC(u, v)/du.

    Base families are exchangeable, so this is h with swapped arguments;
    rotations are re-mapped explicitly.
    """
    fam = c.family
    if fam not in _ROTATION:
        return h_func(c, v, u)
    u, v = _clip(u), _clip(v)
    base, deg = _ROTATION[fam]
    th = abs(c.theta)
    if deg == 180:
        return 1.0 - _base_eval("h", base, 1.0 - v, 1.0 - u, c.theta, c.theta2)
    if deg == 90:
        # dC90/du with C90(u,v) = v - C(1-u, v)
        return _base_eval("h", base, v, 1.0 - u, th, c.theta2)
    # 270: dC270/du with C270(u,v) = u - C(u, 1-v)
    return 1.0 - _base_eval("h", base, 1.0 - v, u, th, c.theta2)


def inv_h(c: FittedBicop, w, v):
    """Inverse of h_func in its first argument: h(inv_h(w|v)|v) = w."""
    w, v = _clip(w), _clip(v)
    fam = c.family
    if fam is CopulaFamily.INDEPENDENCE:
        return w
    if fam in _ROTATION:
        base, deg = _ROTATION[fam]
        th = abs(c.theta)
        if deg == 180:
            return 1.0 - _base_eval("hinv", base, 1.0 - w, 1.0 - v, c.theta, c.theta2)
        if deg == 90:
            return 1.0 - _base_eval("hinv", base, 1.0 - w, v, th, c.theta2)
        out = _base_eval("hinv", base, w, 1.0 - v, th, c.theta2)  # 270
    else:
        out = _base_eval("hinv", fam, w, v, c.theta, c.theta2)
    out = np.clip(out, EPS, 1.0 - EPS)
    resid = np.max(np.abs(h_func(c, out, v) - w))
    if not np.isfinite(resid) or resid > 1e-6:
        raise NonConvergence(
            f"inv_h residual {resid:.3g} for {fam.value} theta={c.theta}"
        )
    return out


# ---------------------------------------------------------------------------
# Kendall's tau
# ---------------------------------------------------------------------------


def _debye1(x: float) -> float:
    val, _ = integrate.quad(lambda t: t / math.expm1(t), 0.0, x)
    return val / x


def model_tau(c: FittedBicop) -> float:
    """Kendall's tau implied by the fitted parameters."""
    fam, th = c.family, c.theta
    if fam is CopulaFamily.INDEPENDENCE:
        return 0.0
    if fam in (CopulaFamily.GAUSSIAN, CopulaFamily.STUDENT_T):
        return 2.0 / math.pi * math.asin(th)
    if fam is CopulaFamily.FRANK:
        return 1.0 - 4.0 / th * (1.0 - _debye1(th))
    if fam in _ROTATION:
        base, deg = _ROTATION[fam]
        tb = model_tau(FittedBicop(base, abs(th)))
        return tb if deg == 180 else -tb
    if fam is CopulaFamily.CLAYTON:
        return th / (th + 2.0)
    if fam is CopulaFamily.GUMBEL:
        return 1.0 - 1.0 / th
    raise ValueError(fam)


def empirical_tau(u_series, v_series) -> float:
    """Kendall's tau from concordant/discordant pair counts."""
    u = np.asarray(u_series, dtype=float)
    v = np.asarray(v_series, dtype=float)
    if u.size != v.size:
        raise LengthMismatch(f"lengths {u.size} and {v.size}")
    if u.size < 8:
        raise LengthMismatch("need at least 8 pairs")
    tau, _ = stats.kendalltau(u, v)
    return float(tau)


def tau_independence_threshold(m: int) -> float:
    """5% asymptotic critical value of |tau| under independence."""
    return 1.96 * math.sqrt(2.0 * (2.0 * m + 5.0) / (9.0 * m * (m - 1.0)))


# ---------------------------------------------------------------------------
# Fitting
# ---------------------------------------------------------------------------


def _tau_inversion_start(family: CopulaFamily, tau: float) -> float:
    lo, hi = _THETA_BOUNDS[family]
    if family in (CopulaFamily.GAUSSIAN, CopulaFamily.STUDENT_T):
        th = math.sin(math.pi * tau / 2.0)
    elif family in (CopulaFamily.CLAYTON, CopulaFamily.CLAYTON_180):
        t = max(abs(tau), 1e-4)
        th = 2.0 * t / (1.0 - t) if t < 1.0 else hi
    elif family in (CopulaFamily.CLAYTON_90, CopulaFamily.CLAYTON_270):
        t = max(abs(tau), 1e-4)
        th = -(2.0 * t / (1.0 - t)) if t < 1.0 else lo
    elif family in (CopulaFamily.GUMBEL, CopulaFamily.GUMBEL_180):
        th = 1.0 / max(1.0 - abs(tau), 1e-6)
    elif family in (CopulaFamily.GUMBEL_90, CopulaFamily.GUMBEL_270):
        th = -1.0 / max(1.0 - abs(tau), 1e-6)
    elif family is CopulaFamily.FRANK:
        # Numeric inversion of the Debye-function tau formula.
        if abs(tau) < 1e-5:
            th = 1e-3 if tau >= 0 else -1e-3
        else:

            def f(t):
                return model_tau(FittedBicop(CopulaFamily.FRANK, t)) - tau

            a, b = (1e-6, 35.0) if tau > 0 else (-35.0, -1e-6)
            try:
                th = optimize.brentq(f, a, b, xtol=1e-9)
            except ValueError:
                th = b if tau > 0 else a
    else:
        raise ValueError(family)
    return float(np.clip(th, lo, hi))


def _loglik(family: CopulaFamily, theta: float, theta2, u, v, xy=None) -> float:
    try:
        c = FittedBicop(family, theta, theta2)
    except InvalidParameter:
        return -np.inf
    dens = density(c, u, v) if xy is None else _t_pdf(u, v, theta, theta2, xy)
    with np.errstate(divide="ignore"):
        ll = np.log(np.maximum(dens, 1e-300)).sum()
    return float(ll) if np.isfinite(ll) else -np.inf


def fit(family: CopulaFamily, u_series, v_series, tau: float | None = None) -> FittedBicop:
    """Fit one family by tau-inversion start plus bounded MLE refinement;
    a given `tau` of the series is reused if clipping leaves them unchanged."""
    u = _clip(u_series)
    v = _clip(v_series)
    if u.size != v.size:
        raise LengthMismatch(f"lengths {u.size} and {v.size}")
    if u.size < 8:
        raise FitFailure("need at least 8 observations")
    m = int(u.size)

    if family is CopulaFamily.INDEPENDENCE:
        return FittedBicop(CopulaFamily.INDEPENDENCE, loglik=0.0, n_obs=m)

    if tau is None or not (np.array_equal(u, u_series) and np.array_equal(v, v_series)):
        tau = empirical_tau(u, v)
    theta0 = _tau_inversion_start(family, tau)
    lo, hi = _THETA_BOUNDS[family]

    if family is CopulaFamily.STUDENT_T:
        quantiles = {}  # df -> t quantiles of (u, v), for this fit only

        def loglik(th, df):
            if df not in quantiles:
                quantiles[df] = (_t_ppf(u, df), _t_ppf(v, df))
            return _loglik(family, th, df, u, v, quantiles[df])

        # Log-spaced df grid, then Nelder-Mead on (theta, log df).
        best = (theta0, 5.0, loglik(theta0, 5.0))
        for df in np.geomspace(DF_MIN + 0.1, DF_MAX, 8):
            ll = loglik(theta0, df)
            if ll > best[2]:
                best = (theta0, float(df), ll)

        def neg(p):
            th = float(np.clip(p[0], lo, hi))
            df = float(np.clip(math.exp(p[1]), DF_MIN, DF_MAX))
            return -loglik(th, df)

        res = optimize.minimize(
            neg, [best[0], math.log(best[1])], method="Nelder-Mead",
            options={"xatol": 1e-5, "fatol": 1e-7, "maxiter": 300},
        )
        th = float(np.clip(res.x[0], lo, hi))
        df = float(np.clip(math.exp(res.x[1]), DF_MIN, DF_MAX))
        ll = loglik(th, df)
        if ll < best[2]:
            th, df, ll = best
        if not np.isfinite(ll):
            raise FitFailure(f"student t fit failed (tau={tau:.3f})")
        return FittedBicop(family, th, df, loglik=ll, n_obs=m)

    ll0 = _loglik(family, theta0, None, u, v)
    res = optimize.minimize_scalar(
        lambda t: -_loglik(family, float(t), None, u, v),
        bounds=(lo, hi), method="bounded",
        options={"xatol": 1e-7},
    )
    theta, ll = float(res.x), -float(res.fun)
    if ll < ll0:
        theta, ll = theta0, ll0
    if not np.isfinite(ll):
        raise FitFailure(f"{family.value} fit failed (tau={tau:.3f})")
    return FittedBicop(family, theta, loglik=ll, n_obs=m)


def select_family(u_series, v_series, candidates=ALL_FAMILIES, tau=None) -> FittedBicop:
    """Fit every candidate and keep the one with minimal AIC; `tau` as in `fit`."""
    candidates = list(candidates)
    if not candidates:
        raise FitFailure("empty candidate set")
    best: FittedBicop | None = None
    best_aic = np.inf
    last_error: Exception | None = None
    for fam in sorted(candidates, key=lambda f: f.value):
        try:
            fitted = fit(fam, u_series, v_series, tau)
        except (FitFailure, InvalidParameter) as exc:
            last_error = exc
            continue
        if fitted.aic < best_aic:
            best, best_aic = fitted, fitted.aic
    if best is None:
        raise FitFailure(f"all candidates failed: {last_error}")
    return best


def sample(c: FittedBicop, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw n pairs (u, v) by conditional inversion."""
    v = rng.random(n)
    w = rng.random(n)
    u = inv_h(c, w, v)
    return np.column_stack([u, v])
