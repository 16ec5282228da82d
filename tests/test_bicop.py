import math

import numpy as np
import pytest
from scipy import stats

from vinefolio import bicop
from vinefolio.bicop import ALL_FAMILIES, CopulaFamily as F, FittedBicop
from vinefolio.errors import InvalidParameter, LengthMismatch, NonConvergence

PARAM_CASES = [
    (F.INDEPENDENCE, 0.0, None),
    (F.GAUSSIAN, -0.7, None), (F.GAUSSIAN, 0.2, None), (F.GAUSSIAN, 0.9, None),
    (F.STUDENT_T, -0.5, 4.0), (F.STUDENT_T, 0.3, 10.0), (F.STUDENT_T, 0.8, 25.0),
    (F.CLAYTON, 0.5, None), (F.CLAYTON, 2.0, None), (F.CLAYTON, 8.0, None),
    (F.GUMBEL, 1.2, None), (F.GUMBEL, 2.5, None), (F.GUMBEL, 6.0, None),
    (F.FRANK, -8.0, None), (F.FRANK, 2.0, None), (F.FRANK, 15.0, None),
    (F.CLAYTON_90, -2.0, None), (F.CLAYTON_180, 2.0, None), (F.CLAYTON_270, -2.0, None),
    (F.GUMBEL_90, -2.5, None), (F.GUMBEL_180, 2.5, None), (F.GUMBEL_270, -2.5, None),
]


def _cop(fam, th, th2):
    return FittedBicop(fam, th, th2)


# ---------------------------------------------------------------------------
# density
# ---------------------------------------------------------------------------


def test_independence_density_is_one():
    c = _cop(F.INDEPENDENCE, 0.0, None)
    assert bicop.density(c, 0.3, 0.8) == pytest.approx(1.0)


def test_gaussian_zero_theta_is_independence():
    c = _cop(F.GAUSSIAN, 0.0, None)
    assert bicop.density(c, 0.3, 0.7) == pytest.approx(1.0, abs=1e-12)


def test_clayton_density_matches_mixed_partial_of_cdf():
    th = 2.0
    c = _cop(F.CLAYTON, th, None)

    def cdf(u, v):
        return (u ** -th + v ** -th - 1.0) ** (-1.0 / th)

    eps = 1e-5
    u0, v0 = 0.5, 0.5
    fd = (cdf(u0 + eps, v0 + eps) - cdf(u0 + eps, v0 - eps)
          - cdf(u0 - eps, v0 + eps) + cdf(u0 - eps, v0 - eps)) / (4 * eps * eps)
    assert bicop.density(c, u0, v0) == pytest.approx(fd, rel=1e-4)


@pytest.mark.parametrize("fam,th,th2", PARAM_CASES)
def test_density_finite_nonnegative(fam, th, th2):
    c = _cop(fam, th, th2)
    rng = np.random.default_rng(2)
    u, v = rng.random(200), rng.random(200)
    d = np.asarray(bicop.density(c, u, v))
    assert np.all(np.isfinite(d)) and np.all(d >= 0.0)


def test_invalid_parameter_rejected():
    with pytest.raises(InvalidParameter):
        FittedBicop(F.GAUSSIAN, 1.5, None)
    with pytest.raises(InvalidParameter):
        FittedBicop(F.CLAYTON, -1.0, None)
    with pytest.raises(InvalidParameter):
        FittedBicop(F.GUMBEL, 0.5, None)


@pytest.mark.parametrize("fam,th,th2", [
    (F.GAUSSIAN, 0.6, None), (F.STUDENT_T, 0.5, 5.0),
    (F.CLAYTON, 2.0, None), (F.GUMBEL, 2.5, None), (F.FRANK, 5.0, None),
    (F.CLAYTON_90, -2.0, None), (F.GUMBEL_180, 2.5, None),
])
def test_density_integrates_to_one(fam, th, th2):
    c = _cop(fam, th, th2)
    g = np.linspace(0.0025, 0.9975, 201)
    U, V = np.meshgrid(g, g)
    D = np.asarray(bicop.density(c, U, V))
    integral = np.trapezoid(np.trapezoid(D, g, axis=1), g)
    assert integral == pytest.approx(1.0, abs=1e-2)


def test_uniform_margins():
    c = _cop(F.FRANK, 5.0, None)
    g = np.linspace(0.0025, 0.9975, 201)
    for u0 in (0.2, 0.5, 0.8):
        d = np.asarray(bicop.density(c, np.full_like(g, u0), g))
        assert np.trapezoid(d, g) == pytest.approx(1.0, abs=1e-2)


# Rotated family, its base family and parameter, and whether the rotation
# reflects the first and the second argument (x -> 1 - x).
ROTATIONS = [
    (F.CLAYTON_90, F.CLAYTON, 2.0, True, False),
    (F.CLAYTON_180, F.CLAYTON, 2.0, True, True),
    (F.CLAYTON_270, F.CLAYTON, 2.0, False, True),
    (F.GUMBEL_90, F.GUMBEL, 2.5, True, False),
    (F.GUMBEL_180, F.GUMBEL, 2.5, True, True),
    (F.GUMBEL_270, F.GUMBEL, 2.5, False, True),
]


def test_rotation_density_consistency():
    """Each rotation's density, h and inverse h are its base family's at
    reflected arguments, bit for bit; h and its inverse reflect back when
    the first argument is reflected. The 90 and 270 rotations carry the
    negated parameter."""
    rng = np.random.default_rng(3)
    u, v = rng.random(100) * 0.9 + 0.05, rng.random(100) * 0.9 + 0.05
    for fam, base_fam, th, flip_u, flip_v in ROTATIONS:
        rot = _cop(fam, th if flip_u == flip_v else -th, None)
        base = _cop(base_fam, th, None)
        ub, vb = (1 - u if flip_u else u), (1 - v if flip_v else v)
        back = (lambda x: 1 - x) if flip_u else (lambda x: x)
        assert np.array_equal(bicop.density(rot, u, v), bicop.density(base, ub, vb)), fam
        assert np.array_equal(bicop.h_func(rot, u, v), back(bicop.h_func(base, ub, vb))), fam
        assert np.array_equal(bicop.inv_h(rot, u, v), back(bicop.inv_h(base, ub, vb))), fam


# ---------------------------------------------------------------------------
# h-function and inverse
# ---------------------------------------------------------------------------


def test_h_gaussian_independence():
    c = _cop(F.GAUSSIAN, 0.0, None)
    for v in (0.1, 0.5, 0.9):
        assert bicop.h_func(c, 0.37, v) == pytest.approx(0.37, abs=1e-12)


@pytest.mark.parametrize("fam,th,th2", PARAM_CASES)
def test_h_matches_finite_difference_of_cdf(fam, th, th2):
    # h(u|v) = dC/dv; integrate the density over u' <= u to get C numerically
    # is slow, so use the cheaper identity dh/du = density instead.
    c = _cop(fam, th, th2)
    g = np.linspace(0.1, 0.9, 9)
    U, V = np.meshgrid(g, g)
    eps = 1e-6
    fd = (np.asarray(bicop.h_func(c, U + eps, V))
          - np.asarray(bicop.h_func(c, U - eps, V))) / (2 * eps)
    assert np.max(np.abs(fd - np.asarray(bicop.density(c, U, V)))) < 1e-5


def test_h_is_cdf_in_first_argument():
    c = _cop(F.GUMBEL, 2.5, None)
    u = np.linspace(1e-9, 1 - 1e-9, 500)
    h = np.asarray(bicop.h_func(c, u, np.full_like(u, 0.4)))
    assert np.all(np.diff(h) >= -1e-12)
    assert h[0] < 1e-6 and h[-1] > 1 - 1e-6


def test_clayton180_rotation_identity():
    base = _cop(F.CLAYTON, 2.0, None)
    rot = _cop(F.CLAYTON_180, 2.0, None)
    rng = np.random.default_rng(4)
    u, v = rng.random(50), rng.random(50)
    lhs = np.asarray(bicop.h_func(rot, u, v))
    rhs = 1.0 - np.asarray(bicop.h_func(base, 1 - u, 1 - v))
    assert np.max(np.abs(lhs - rhs)) < 1e-10


@pytest.mark.parametrize("fam,th,th2", PARAM_CASES)
def test_inv_h_round_trip(fam, th, th2):
    c = _cop(fam, th, th2)
    rng = np.random.default_rng(5)
    w = rng.random(1000) * 0.98 + 0.01
    v = rng.random(1000) * 0.98 + 0.01
    u = np.asarray(bicop.inv_h(c, w, v))
    assert np.all((u > 0) & (u < 1))
    assert np.max(np.abs(np.asarray(bicop.h_func(c, u, v)) - w)) < 1e-8


def test_inv_h_gaussian_independence():
    c = _cop(F.GAUSSIAN, 0.0, None)
    assert bicop.inv_h(c, 0.42, 0.9) == pytest.approx(0.42, abs=1e-10)


def test_inv_h_returns_the_clip_bound_beyond_which_the_inverse_lies(monkeypatch):
    # The exact inverses, 1 - 7.7e-13 and 7.7e-13, lie beyond the clip
    # bounds; h at each bound falls short of w on that bound's side.
    c = _cop(F.GAUSSIAN, -0.9, None)
    u = bicop.inv_h(c, 0.999, 1e-10)
    assert bicop.EPS <= u <= 1.0 - bicop.EPS
    assert u == 1.0 - bicop.EPS and bicop.h_func(c, u, 1e-10) < 0.999
    assert bicop.inv_h(c, 0.001, 1.0 - 1e-10) == bicop.EPS
    both = bicop.inv_h(c, np.array([0.999, 0.5, 0.001]), np.array([1e-10, 0.5, 1.0 - 1e-10]))
    assert both[0] == 1.0 - bicop.EPS and both[2] == bicop.EPS
    assert abs(bicop.h_func(c, both[1], 0.5) - 0.5) < 1e-12
    # A wrong inverse away from the bounds still fails the residual check.
    pdf, h, _ = bicop._KERNELS[F.GAUSSIAN]
    monkeypatch.setitem(bicop._KERNELS, F.GAUSSIAN, (pdf, h, lambda w, v, rho: np.full_like(w, 0.5)))
    with pytest.raises(NonConvergence):
        bicop.inv_h(c, np.array([0.999, 0.2]), np.array([1e-10, 0.5]))


@pytest.mark.parametrize("fam,th", [(F.GAUSSIAN, 0.6), (F.FRANK, 5.0)])
def test_center_symmetry(fam, th):
    c = _cop(fam, th, None)
    assert bicop.inv_h(c, bicop.h_func(c, 0.5, 0.5), 0.5) == pytest.approx(0.5, abs=1e-8)


def test_h_func_cond_first_consistency():
    # dC/du at (u,v) equals dC/dv at the swapped copula for exchangeable
    # families; for rotations it must match a finite difference in v.
    eps = 1e-6
    rng = np.random.default_rng(6)
    u, v = rng.random(50) * 0.8 + 0.1, rng.random(50) * 0.8 + 0.1
    for fam, th in [(F.GAUSSIAN, 0.6), (F.CLAYTON, 2.0), (F.CLAYTON_90, -2.0),
                    (F.GUMBEL_270, -2.5), (F.FRANK, -5.0), (F.CLAYTON_180, 2.0)]:
        c = _cop(fam, th, None)
        # integrate density over v' <= v by Gauss-Legendre to get dC/du.
        got = np.asarray(bicop.h_func_cond_first(c, u, v))
        nodes, weights = np.polynomial.legendre.leggauss(64)
        approx = np.zeros_like(u)
        for i in range(len(u)):
            t = 0.5 * v[i] * (nodes + 1.0)
            wgt = 0.5 * v[i] * weights
            approx[i] = float(wgt @ np.asarray(bicop.density(c, np.full_like(t, u[i]), t)))
        assert np.max(np.abs(got - approx)) < 1e-4, fam


# ---------------------------------------------------------------------------
# tau
# ---------------------------------------------------------------------------


def test_model_tau_independence():
    assert bicop.model_tau(_cop(F.INDEPENDENCE, 0.0, None)) == 0.0


def test_model_tau_comonotone_limit():
    taus = [bicop.model_tau(_cop(F.GAUSSIAN, th, None)) for th in (0.9, 0.99, 0.999)]
    assert taus == sorted(taus)
    assert taus[-1] > 0.97


@pytest.mark.parametrize("fam,th", [
    (F.GAUSSIAN, 0.6), (F.CLAYTON, 2.0), (F.GUMBEL, 2.0), (F.FRANK, 5.0),
])
def test_model_tau_matches_simulation(fam, th):
    c = _cop(fam, th, None)
    s = bicop.sample(c, 100_000, np.random.default_rng(0))
    emp = bicop.empirical_tau(s[:, 0], s[:, 1])
    assert emp == pytest.approx(bicop.model_tau(c), abs=0.02)


def test_model_tau_sign_matches_parameter_sign():
    for th in (-0.5, 0.5):
        assert np.sign(bicop.model_tau(_cop(F.GAUSSIAN, th, None))) == np.sign(th)
    for th in (-5.0, 5.0):
        assert np.sign(bicop.model_tau(_cop(F.FRANK, th, None))) == np.sign(th)


def test_empirical_tau_perfect_and_reverse():
    u = np.random.default_rng(1).random(60)
    assert bicop.empirical_tau(u, u) == pytest.approx(1.0)
    assert bicop.empirical_tau(u, -u) == pytest.approx(-1.0)


def test_empirical_tau_brute_force():
    rng = np.random.default_rng(7)
    u, v = rng.random(50), rng.random(50)
    num = 0
    for i in range(50):
        for j in range(i + 1, 50):
            num += np.sign((u[i] - u[j]) * (v[i] - v[j]))
    expected = num / (50 * 49 / 2)
    assert bicop.empirical_tau(u, v) == pytest.approx(expected, abs=1e-12)


def test_empirical_tau_length_mismatch():
    with pytest.raises(LengthMismatch):
        bicop.empirical_tau(np.zeros(10), np.zeros(11))


# ---------------------------------------------------------------------------
# fitting and selection
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("fam", [f for f in F if f is not F.INDEPENDENCE],
                         ids=lambda f: f.value)
def test_family_facts_agree(fam):
    """A family's fitting bounds lie in its parameter range, its tau
    inversion lands within them with the sign of tau for each sign the
    family models, and exchanging the arguments twice gives it back."""
    lo, hi = bicop._bounds(fam)
    th2 = 5.0 if fam is F.STUDENT_T else None
    assert bicop.theta_in_range(fam, lo) and bicop.theta_in_range(fam, hi)
    signs = {np.sign(bicop.model_tau(_cop(fam, th, th2))) for th in (lo, hi)} - {0.0}
    assert signs
    for sign in signs:
        start = bicop._tau_inversion_start(fam, 0.4 * sign)
        assert lo <= start <= hi
        assert np.sign(bicop.model_tau(_cop(fam, start, th2))) == sign
        c = _cop(fam, start, th2)
        assert bicop.swap_args(bicop.swap_args(c)) == c
        u, v = np.linspace(0.05, 0.95, 19), np.linspace(0.9, 0.1, 19)
        swapped = np.asarray(bicop.density(bicop.swap_args(c), v, u))
        assert np.allclose(swapped, np.asarray(bicop.density(c, u, v)), rtol=1e-12, atol=0.0)


def test_fit_clayton_recovers_parameter():
    s = bicop.sample(_cop(F.CLAYTON, 2.0, None), 2000, np.random.default_rng(8))
    fitted = bicop.fit(F.CLAYTON, s[:, 0], s[:, 1])
    assert 1.7 <= fitted.theta <= 2.3


def test_fit_independent_data_small_theta():
    rng = np.random.default_rng(9)
    fitted = bicop.fit(F.GAUSSIAN, rng.random(2000), rng.random(2000))
    assert abs(fitted.theta) < 0.08


def test_fit_comonotone_hits_upper_bound():
    u = np.random.default_rng(10).random(500)
    fitted = bicop.fit(F.GUMBEL, u, u.copy())
    upper = bicop._THETA_BOUNDS[F.GUMBEL][1]
    assert fitted.theta == pytest.approx(upper, rel=1e-6)


def test_fit_improves_on_tau_start():
    s = bicop.sample(_cop(F.FRANK, 6.0, None), 1000, np.random.default_rng(11))
    fitted = bicop.fit(F.FRANK, s[:, 0], s[:, 1])
    start = bicop._tau_inversion_start(F.FRANK, bicop.empirical_tau(s[:, 0], s[:, 1]))
    start_ll = bicop._loglik(F.FRANK, start, None, s[:, 0], s[:, 1])
    assert fitted.loglik >= start_ll - 1e-9


def test_select_family_recovers_clayton():
    hits = 0
    for seed in range(20):
        s = bicop.sample(_cop(F.CLAYTON, 3.0, None), 2000, np.random.default_rng(seed))
        sel = bicop.select_family(s[:, 0], s[:, 1],
                                  {F.GAUSSIAN, F.CLAYTON, F.GUMBEL, F.FRANK})
        hits += sel.family is F.CLAYTON
    assert hits >= 18


def test_select_family_independence_dominates():
    rng = np.random.default_rng(12)
    sel = bicop.select_family(rng.random(2000), rng.random(2000), ALL_FAMILIES)
    assert sel.family is F.INDEPENDENCE


def test_select_family_single_candidate():
    rng = np.random.default_rng(13)
    sel = bicop.select_family(rng.random(300), rng.random(300), {F.FRANK})
    assert sel.family is F.FRANK


def test_select_family_fits_only_candidates_of_tau_sign(monkeypatch):
    s = bicop.sample(_cop(F.GAUSSIAN, -0.6, None), 300, np.random.default_rng(16))
    u, v = s[:, 0], s[:, 1]
    taus, fitted = [], []
    empirical_tau, fit = bicop.empirical_tau, bicop.fit
    monkeypatch.setattr(bicop, "empirical_tau", lambda a, b: taus.append(1) or empirical_tau(a, b))
    monkeypatch.setattr(bicop, "fit", lambda fam, *args: fitted.append(fam) or fit(fam, *args))
    sel = bicop.select_family(u, v, {F.CLAYTON, F.CLAYTON_90, F.GUMBEL_180, F.FRANK})
    assert sel.family in (F.CLAYTON_90, F.FRANK)
    assert sorted(f.value for f in fitted) == ["clayton_90", "frank"]
    assert len(taus) == 1  # once in select_family, reused by every fit
    # No candidate of the data's sign: the independence copula.
    fitted.clear()
    sel = bicop.select_family(u, v, {F.CLAYTON, F.GUMBEL}, tau=-0.4)
    assert (sel.family, sel.loglik, sel.n_obs) == (F.INDEPENDENCE, 0.0, 300)
    assert fitted == [F.INDEPENDENCE]


def test_fit_reuses_given_tau_only_on_unclipped_series(monkeypatch):
    s = bicop.sample(_cop(F.GUMBEL, 2.0, None), 300, np.random.default_rng(14))
    u, v = s[:, 0], s[:, 1]
    tau = bicop.empirical_tau(u, v)
    plain = bicop.fit(F.GUMBEL, u, v)
    calls = []
    empirical_tau = bicop.empirical_tau
    monkeypatch.setattr(bicop, "empirical_tau",
                        lambda a, b: calls.append(1) or empirical_tau(a, b))
    assert bicop.fit(F.GUMBEL, u, v, tau) == plain
    assert calls == []
    # Clipping changes a series: the given tau is not the clipped series' tau.
    u_edge = np.concatenate([[0.0, 1e-12], u[2:]])
    expected = bicop.fit(F.GUMBEL, u_edge, v)
    calls.clear()
    assert bicop.fit(F.GUMBEL, u_edge, v, 0.5) == expected
    assert len(calls) == 1


def test_t_fit_computes_quantiles_once_per_df(monkeypatch):
    s = bicop.sample(_cop(F.STUDENT_T, 0.5, 5.0), 300, np.random.default_rng(15))
    dfs = []
    t_ppf = bicop._t_ppf

    def counting_ppf(p, df):
        dfs.append(float(df))
        return t_ppf(p, df)

    monkeypatch.setattr(bicop, "_t_ppf", counting_ppf)
    fitted = bicop.fit(F.STUDENT_T, s[:, 0], s[:, 1])
    assert fitted.family is F.STUDENT_T
    # One quantile of each series per distinct df.
    assert len(set(dfs)) > 9
    assert all(dfs.count(df) == 2 for df in set(dfs))


@pytest.mark.parametrize("fam,th,th2,seed", [
    (F.STUDENT_T, 0.5, 5.0, 17), (F.STUDENT_T, -0.4, 3.0, 18), (F.GAUSSIAN, 0.6, None, 19),
])
def test_t_fit_is_tau_inversion_with_profiled_df(fam, th, th2, seed):
    s = bicop.sample(_cop(fam, th, th2), 500, np.random.default_rng(seed))
    u, v = s[:, 0], s[:, 1]
    fitted = bicop.fit(F.STUDENT_T, u, v)
    tau = bicop.empirical_tau(u, v)
    assert fitted.theta == float(np.clip(math.sin(math.pi * tau / 2.0), -1 + 1e-4, 1 - 1e-4))
    assert bicop.DF_MIN <= fitted.theta2 <= bicop.DF_MAX
    assert fitted.loglik == bicop._loglik(F.STUDENT_T, fitted.theta, fitted.theta2, u, v)
    for df in np.geomspace(bicop.DF_MIN, bicop.DF_MAX, 41):
        assert fitted.loglik >= bicop._loglik(F.STUDENT_T, fitted.theta, float(df), u, v)


def _reference_gumbel_hinv(w, v, th):
    """Bisection of up to 200 steps that stops once hi - lo < 1e-16."""
    lo = np.full(np.broadcast(w, v).shape, bicop.EPS)
    hi = np.full_like(lo, 1.0 - bicop.EPS)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        too_low = bicop._gumbel_h(mid, v, th) < w
        lo = np.where(too_low, mid, lo)
        hi = np.where(too_low, hi, mid)
        if np.max(hi - lo) < 1e-16:
            break
    return 0.5 * (lo + hi)


@pytest.mark.parametrize("th", [1.0, 1.3, 2.5, 6.0, 17.0])
@pytest.mark.parametrize("where", ["everywhere", "small roots"])
def test_gumbel_hinv_stops_at_its_fixed_point(th, where, monkeypatch):
    rng = np.random.default_rng(16)
    ends = [bicop.EPS, 1e-6, 0.5, 1.0 - 1e-6, 1.0 - bicop.EPS]
    w = np.concatenate([ends, rng.random(400)])
    v = np.concatenate([ends[::-1], rng.random(400)])
    if where == "small roots":
        w = w * 1e-3
    expected = _reference_gumbel_hinv(w, v, th)
    steps = []
    gumbel_h = bicop._gumbel_h
    monkeypatch.setattr(bicop, "_gumbel_h",
                        lambda u, vv, t: steps.append(1) or gumbel_h(u, vv, t))
    assert np.array_equal(bicop._gumbel_hinv(w, v, th), expected)
    assert len(steps) < 100


def _reference_kernels(fam, rho, df):
    """The Gaussian and t kernels written with scipy.stats distributions."""
    if fam is F.GAUSSIAN:
        ppf, ppf1 = stats.norm.ppf, stats.norm.ppf
        cdf, cdf1 = stats.norm.cdf, stats.norm.cdf
        h_scale = lambda y: math.sqrt(1.0 - rho * rho)
    else:
        ppf, ppf1 = (lambda p: bicop._t_ppf(p, df)), (lambda p: bicop._t_ppf(p, df + 1.0))
        cdf, cdf1 = (lambda x: stats.t.cdf(x, df)), (lambda x: stats.t.cdf(x, df + 1.0))
        h_scale = lambda y: np.sqrt((df + y * y) * (1.0 - rho * rho) / (df + 1.0))

    def pdf(u, v):
        x, y = ppf(u), ppf(v)
        r2 = 1.0 - rho * rho
        if fam is F.GAUSSIAN:
            expo = -(rho * rho * (x * x + y * y) - 2.0 * rho * x * y) / (2.0 * r2)
            return np.exp(expo) / math.sqrt(r2)
        log_num = (math.lgamma((df + 2.0) / 2.0) + math.lgamma(df / 2.0)
                   - 2.0 * math.lgamma((df + 1.0) / 2.0) - 0.5 * math.log(r2))
        core = 1.0 + (x * x + y * y - 2.0 * rho * x * y) / (df * r2)
        marg = (1.0 + x * x / df) * (1.0 + y * y / df)
        return np.exp(log_num - (df + 2.0) / 2.0 * np.log(core)
                      + (df + 1.0) / 2.0 * np.log(marg))

    def h(u, v):
        x, y = ppf(u), ppf(v)
        return cdf1((x - rho * y) / h_scale(y))

    def hinv(w, v):
        y = ppf(v)
        return cdf(ppf1(w) * h_scale(y) + rho * y)

    return pdf, h, hinv


@pytest.mark.parametrize("fam,rho,df", [
    (F.GAUSSIAN, -0.9, None), (F.GAUSSIAN, 0.0, None), (F.GAUSSIAN, 0.3, None),
    (F.GAUSSIAN, 0.9999, None), (F.STUDENT_T, -0.7, bicop.DF_MIN),
    (F.STUDENT_T, 0.0, 4.0), (F.STUDENT_T, 0.5, 11.3), (F.STUDENT_T, 0.95, bicop.DF_MAX),
    (F.STUDENT_T, 0.2, 31.0),
])
def test_elliptical_kernels_equal_scipy_stats(fam, rho, df):
    rng = np.random.default_rng(17)
    ends = [0.0, bicop.EPS, 1e-7, 0.5, 1.0 - 1e-7, 1.0 - bicop.EPS, 1.0]
    grid = np.concatenate([ends, rng.random(60)])
    u, v = (a.ravel() for a in np.meshgrid(grid, grid))
    c = _cop(fam, rho, df)
    pdf, h, hinv = _reference_kernels(fam, rho, df)
    cu, cv = bicop._clip(u), bicop._clip(v)
    assert np.array_equal(bicop.density(c, u, v), pdf(cu, cv))
    assert np.array_equal(bicop.h_func(c, u, v), h(cu, cv))
    # Near the ends h is too flat to invert, and inv_h rejects its own result.
    inner = (cv > 1e-6) & (cv < 1.0 - 1e-6) & (cu > 1e-6) & (cu < 1.0 - 1e-6)
    assert np.array_equal(bicop.inv_h(c, u[inner], v[inner]),
                          np.clip(hinv(cu[inner], cv[inner]), bicop.EPS, 1.0 - bicop.EPS))
