"""Bivariate copula families.

Implements density, conditional distribution (h-function), its inverse,
Kendall's tau, parameter fitting and AIC-based family selection for the
elliptical (Gaussian, Student's t) and Archimedean (Clayton, Gumbel,
Frank) families plus the 90/180/270-degree rotations of Clayton and
Gumbel, and the independence copula.

`_ROTATION` (rotated family -> base family, degrees) states the rotations
once; every fact of a rotated family follows from it by one rule. Density,
h and inverse h are the base family's with the first argument reflected
(x -> 1 - x) at 90 and 180 degrees and the second at 180 and 270; h and
its inverse reflect back with the first. At 90 and 270 degrees the base
family's parameter, range, fitting bounds, tau inversion and Kendall's tau
are negated, so those Clayton and Gumbel rotations model only negative
tau, and exchanging the two arguments turns each into the other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
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

# Rotated family -> (base family, rotation degrees); see the module docstring.
_ROTATION = {
    CopulaFamily.CLAYTON_90: (CopulaFamily.CLAYTON, 90),
    CopulaFamily.CLAYTON_180: (CopulaFamily.CLAYTON, 180),
    CopulaFamily.CLAYTON_270: (CopulaFamily.CLAYTON, 270),
    CopulaFamily.GUMBEL_90: (CopulaFamily.GUMBEL, 90),
    CopulaFamily.GUMBEL_180: (CopulaFamily.GUMBEL, 180),
    CopulaFamily.GUMBEL_270: (CopulaFamily.GUMBEL, 270),
}


def _base(family: CopulaFamily) -> tuple[CopulaFamily, int, int]:
    """(base family, rotation degrees, parameter sign): the sign is -1 at
    90 and 270 degrees. A base family is its own base at 0 degrees."""
    base, deg = _ROTATION.get(family, (family, 0))
    return base, deg, -1 if deg in (90, 270) else 1


# Inclusive numeric fitting bounds of the base families, clamped 1e-4
# inside open range ends; `_bounds` gives a rotated family's.
_THETA_BOUNDS = {
    CopulaFamily.GAUSSIAN: (-1 + 1e-4, 1 - 1e-4),
    CopulaFamily.STUDENT_T: (-1 + 1e-4, 1 - 1e-4),
    CopulaFamily.CLAYTON: (1e-4, 28.0),
    CopulaFamily.GUMBEL: (1.0, 17.0),
    CopulaFamily.FRANK: (-35.0, 35.0),
}


def _bounds(family: CopulaFamily) -> tuple[float, float]:
    base, _, sign = _base(family)
    lo, hi = _THETA_BOUNDS[base]
    return (lo, hi) if sign > 0 else (-hi, -lo)


def theta_in_range(family: CopulaFamily, theta: float) -> bool:
    """Whether theta lies in the family's admissible parameter range."""
    if family is CopulaFamily.INDEPENDENCE:
        return True
    base, _, sign = _base(family)
    theta = sign * theta
    if base in (CopulaFamily.GAUSSIAN, CopulaFamily.STUDENT_T):
        return -1.0 < theta < 1.0
    if base is CopulaFamily.CLAYTON:
        return theta > 0.0
    if base is CopulaFamily.GUMBEL:
        return theta >= 1.0
    if base is CopulaFamily.FRANK:
        return theta != 0.0
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


# Base family -> (density, h, inverse h); only Student's t takes theta2.
_KERNELS = {
    CopulaFamily.GAUSSIAN: (_gauss_pdf, _gauss_h, _gauss_hinv),
    CopulaFamily.STUDENT_T: (_t_pdf, _t_h, _t_hinv),
    CopulaFamily.CLAYTON: (_clayton_pdf, _clayton_h, _clayton_hinv),
    CopulaFamily.GUMBEL: (_gumbel_pdf, _gumbel_h, _gumbel_hinv),
    CopulaFamily.FRANK: (_frank_pdf, _frank_h, _frank_hinv),
}


def _evaluate(kind: str, family: CopulaFamily, a, v, theta, theta2):
    """Density ("pdf"), h ("h") or inverse h ("hinv") of a family other than
    independence at clamped arguments, by the module docstring's rotation rule."""
    base, deg, sign = _base(family)
    flip_a, flip_v = deg in (90, 180), deg in (180, 270)
    fn = _KERNELS[base][("pdf", "h", "hinv").index(kind)]
    args = (1.0 - a if flip_a else a, 1.0 - v if flip_v else v, sign * theta)
    out = fn(*args, theta2) if base is CopulaFamily.STUDENT_T else fn(*args)
    return 1.0 - out if flip_a and kind != "pdf" else out


def density(c: FittedBicop, u, v):
    """Copula density c(u, v); arguments are clamped to (0, 1)."""
    return _density(c.family, _clip(u), _clip(v), c.theta, c.theta2)


def _density(fam: CopulaFamily, u, v, theta, theta2):
    """`density` at arguments already clamped to (0, 1)."""
    if fam is CopulaFamily.INDEPENDENCE:
        return np.ones(np.broadcast(u, v).shape) if np.ndim(u) or np.ndim(v) else 1.0
    return _evaluate("pdf", fam, u, v, theta, theta2)


def h_func(c: FittedBicop, u, v):
    """Conditional CDF of u given v: dC(u, v)/dv."""
    u, v = _clip(u), _clip(v)
    return u if c.family is CopulaFamily.INDEPENDENCE else _evaluate(
        "h", c.family, u, v, c.theta, c.theta2)


def swap_args(c: FittedBicop) -> FittedBicop:
    """The same copula with its two arguments exchanged. Base families are
    exchangeable; the 90- and 270-degree rotations turn into each other."""
    base, deg, _ = _base(c.family)
    if deg not in (90, 270):
        return c
    return replace(c, family=next(f for f, rot in _ROTATION.items() if rot == (base, 360 - deg)))


def h_func_cond_first(c: FittedBicop, u, v):
    """Conditional CDF of v given u: dC(u, v)/du."""
    return h_func(swap_args(c), v, u)


def inv_h(c: FittedBicop, w, v):
    """Inverse of h_func in its first argument: h(inv_h(w|v)|v) = w."""
    w, v = _clip(w), _clip(v)
    if c.family is CopulaFamily.INDEPENDENCE:
        return w
    out = np.clip(_evaluate("hinv", c.family, w, v, c.theta, c.theta2), EPS, 1.0 - EPS)
    resid = h_func(c, out, v) - w
    # h is increasing in u: an exact inverse beyond a clip bound leaves h at
    # that bound short of w on the bound's side, and the bound is the answer.
    ok = ((np.abs(resid) <= 1e-6) | ((out == 1.0 - EPS) & (resid < 0.0))
          | ((out == EPS) & (resid > 0.0)))
    if not np.all(ok):
        worst = np.max(np.abs(np.where(ok, 0.0, resid)))
        raise NonConvergence(f"inv_h residual {worst:.3g} for {c.family.value} theta={c.theta}")
    return out


# ---------------------------------------------------------------------------
# Kendall's tau
# ---------------------------------------------------------------------------


def _debye1(x: float) -> float:
    val, _ = integrate.quad(lambda t: t / math.expm1(t), 0.0, x)
    return val / x


def model_tau(c: FittedBicop) -> float:
    """Kendall's tau implied by the fitted parameters."""
    if c.family is CopulaFamily.INDEPENDENCE:
        return 0.0
    base, _, sign = _base(c.family)
    th = sign * c.theta
    if base in (CopulaFamily.GAUSSIAN, CopulaFamily.STUDENT_T):
        tau = 2.0 / math.pi * math.asin(th)
    elif base is CopulaFamily.FRANK:
        tau = 1.0 - 4.0 / th * (1.0 - _debye1(th))
    elif base is CopulaFamily.CLAYTON:
        tau = th / (th + 2.0)
    elif base is CopulaFamily.GUMBEL:
        tau = 1.0 - 1.0 / th
    else:
        raise ValueError(c.family)
    return sign * tau


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
    """The family's parameter of Kendall's tau `tau`, within its fitting
    bounds: the base family's inversion, with the rotation's sign."""
    base, _, sign = _base(family)
    lo, hi = _THETA_BOUNDS[base]
    if base in (CopulaFamily.GAUSSIAN, CopulaFamily.STUDENT_T):
        th = math.sin(math.pi * tau / 2.0)
    elif base is CopulaFamily.CLAYTON:
        t = max(abs(tau), 1e-4)
        th = 2.0 * t / (1.0 - t) if t < 1.0 else hi
    elif base is CopulaFamily.GUMBEL:
        th = 1.0 / max(1.0 - abs(tau), 1e-6)
    elif base is CopulaFamily.FRANK and abs(tau) < 1e-5:
        th = 1e-3 if tau >= 0 else -1e-3
    elif base is CopulaFamily.FRANK:
        # Numeric inversion of the Debye-function tau formula.
        a, b = (1e-6, 35.0) if tau > 0 else (-35.0, -1e-6)
        try:
            th = optimize.brentq(lambda t: model_tau(FittedBicop(base, t)) - tau, a, b, xtol=1e-9)
        except ValueError:
            th = b if tau > 0 else a
    else:
        raise ValueError(family)
    return sign * float(np.clip(th, lo, hi))


def _loglik(family: CopulaFamily, theta: float, theta2, u, v, xy=None) -> float:
    """Log-likelihood at series already clamped to (0, 1), as `fit` passes
    them; -inf outside the family's parameter range."""
    if not theta_in_range(family, theta):
        return -np.inf
    dens = _density(family, u, v, theta, theta2) if xy is None else _t_pdf(u, v, theta, theta2, xy)
    with np.errstate(divide="ignore"):
        ll = np.log(np.maximum(dens, 1e-300)).sum()
    return float(ll) if np.isfinite(ll) else -np.inf


def fit(family: CopulaFamily, u_series, v_series, tau: float | None = None) -> FittedBicop:
    """Fit one family to the series, clamped to (0, 1).

    A one-parameter family starts at its tau inversion and refines it by a
    bounded likelihood search. Student's t is fitted by "itau": rho is the
    tau inversion sin(pi tau / 2), and df maximises the likelihood at that
    rho over log df in [DF_MIN, DF_MAX], bounds included. A given `tau` of
    the series is reused if clipping leaves them unchanged."""
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

    if family is CopulaFamily.STUDENT_T:
        quantiles = {}  # df -> t quantiles of (u, v), for this fit only

        def loglik(df):
            if df not in quantiles:
                quantiles[df] = (_t_ppf(u, df), _t_ppf(v, df))
            return _loglik(family, theta0, df, u, v, quantiles[df])

        res = optimize.minimize_scalar(
            lambda x: -loglik(math.exp(x)),
            bounds=(math.log(DF_MIN), math.log(DF_MAX)), method="bounded",
        )
        df = max((float(np.clip(math.exp(res.x), DF_MIN, DF_MAX)), DF_MIN, DF_MAX), key=loglik)
        ll = loglik(df)
        if not np.isfinite(ll):
            raise FitFailure(f"student t fit failed (tau={tau:.3f})")
        return FittedBicop(family, theta0, df, loglik=ll, n_obs=m)

    ll0 = _loglik(family, theta0, None, u, v)
    res = optimize.minimize_scalar(
        lambda t: -_loglik(family, float(t), None, u, v),
        bounds=_bounds(family), method="bounded",
        options={"xatol": 1e-7},
    )
    theta, ll = float(res.x), -float(res.fun)
    if ll < ll0:
        theta, ll = theta0, ll0
    if not np.isfinite(ll):
        raise FitFailure(f"{family.value} fit failed (tau={tau:.3f})")
    return FittedBicop(family, theta, loglik=ll, n_obs=m)


def select_family(u_series, v_series, candidates=ALL_FAMILIES, tau=None) -> FittedBicop:
    """Fit the candidates that can model dependence of the sign of the
    series' Kendall's tau and keep the one with minimal AIC.

    `tau`, if given, is that tau of the unclipped series (see `fit`); it is
    computed once otherwise. Families that model only the opposite sign
    are not fitted; if no candidate is left, the result is independence.
    """
    candidates = set(candidates)
    if not candidates:
        raise FitFailure("empty candidate set")
    if tau is None:
        tau = empirical_tau(u_series, v_series)
    candidates = {fam for fam in candidates if not (
        _base(fam)[0] in (CopulaFamily.CLAYTON, CopulaFamily.GUMBEL) and _base(fam)[2] * tau < 0)}
    if not candidates:
        return fit(CopulaFamily.INDEPENDENCE, u_series, v_series)
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
