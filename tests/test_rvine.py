import hashlib
import json

import numpy as np
import pytest

from vinefolio import bicop, rvine
from vinefolio.bicop import ALL_FAMILIES, CopulaFamily as F, FittedBicop


def _simulated_3d_panel(m=5000, seed=5):
    """Chain construction: 1-2 Gaussian(0.7), 2-3 Clayton(2)."""
    rng = np.random.default_rng(seed)
    c12 = FittedBicop(F.GAUSSIAN, 0.7, None)
    c23 = FittedBicop(F.CLAYTON, 2.0, None)
    u2 = rng.random(m)
    u1 = np.asarray(bicop.inv_h(c12, rng.random(m), u2))
    u3 = np.asarray(bicop.inv_h(c23, rng.random(m), u2))
    return np.column_stack([u1, u2, u3])


@pytest.fixture(scope="module")
def fitted_3d():
    return rvine.select_and_fit(_simulated_3d_panel(), ALL_FAMILIES)


def _independence_spec(n):
    structure = np.zeros((n, n), dtype=int)
    for j in range(n):
        structure[j, j] = n - j
        for i in range(j + 1, n):
            structure[i, j] = n - i
    copulas = {}
    for j in range(n - 1):
        for i in range(j + 1, n):
            copulas[(i, j)] = FittedBicop(F.INDEPENDENCE, 0.0, None)
    return rvine.RVineSpec(dimension=n, structure=structure, copulas=copulas)


# ---------------------------------------------------------------------------
# selection and fitting
# ---------------------------------------------------------------------------


def test_two_variable_vine_equals_bivariate_fit():
    s = bicop.sample(FittedBicop(F.FRANK, 6.0, None), 1500, np.random.default_rng(1))
    spec = rvine.select_and_fit(s, ALL_FAMILIES)
    assert spec.dimension == 2
    edges = list(spec.edges())
    assert len(edges) == 1
    direct = bicop.select_family(s[:, 0], s[:, 1], set(ALL_FAMILIES))
    assert edges[0][3].family == direct.family
    assert edges[0][3].theta == pytest.approx(direct.theta, rel=1e-6)


def test_three_variable_structure(fitted_3d):
    trees = {}
    for tree, pair, cond, _ in fitted_3d.edges():
        trees.setdefault(tree, []).append((pair, cond))
    assert set(trees) == {1, 2}
    assert len(trees[1]) == 2 and len(trees[2]) == 1
    tree1_pairs = {frozenset(p) for p, _ in trees[1]}
    assert tree1_pairs == {frozenset({1, 2}), frozenset({2, 3})}
    (pair2, cond2) = trees[2][0]
    assert frozenset(pair2) == {1, 3} and cond2 == {2}


def test_three_variable_families(fitted_3d):
    for tree, pair, cond, cop in fitted_3d.edges():
        if tree != 1:
            continue
        if frozenset(pair) == {1, 2}:
            assert cop.family is F.GAUSSIAN
            assert cop.theta == pytest.approx(0.7, abs=0.05)
        else:
            assert cop.family is F.CLAYTON
            assert cop.theta == pytest.approx(2.0, abs=0.3)


def test_star_tree_selection():
    # Variable 1 strongly linked to 2,3,4; other pairs nearly independent
    # given 1, so tree 1 must be the star centered at variable 1.
    rng = np.random.default_rng(2)
    m = 3000
    u1 = rng.random(m)
    c = FittedBicop(F.GAUSSIAN, 0.85, None)
    cols = [u1] + [np.asarray(bicop.inv_h(c, rng.random(m), u1)) for _ in range(3)]
    spec = rvine.select_and_fit(np.column_stack(cols), ALL_FAMILIES)
    tree1 = [frozenset(p) for t, p, _, _ in spec.edges() if t == 1]
    assert all(1 in pair for pair in tree1)


def test_proximity_predicate_accepts_fits(fitted_3d):
    assert rvine.check_proximity(fitted_3d)


def test_proximity_predicate_rejects_garbage():
    spec = _independence_spec(4)
    bad_structure = spec.structure.copy()
    bad_structure[3, 0] = bad_structure[2, 0]  # duplicated conditioning entry
    bad = rvine.RVineSpec(dimension=4, structure=bad_structure, copulas=spec.copulas)
    assert not rvine.check_proximity(bad)


def test_edge_count_is_n_choose_2():
    for n in (3, 5):
        rng = np.random.default_rng(n)
        spec = rvine.select_and_fit(rng.random((200, n)), {F.GAUSSIAN, F.INDEPENDENCE})
        assert len(list(spec.edges())) == n * (n - 1) // 2


# ---------------------------------------------------------------------------
# log density
# ---------------------------------------------------------------------------


def test_independence_log_density_zero():
    spec = _independence_spec(4)
    rng = np.random.default_rng(3)
    u = rng.random((20, 4))
    assert np.max(np.abs(rvine.log_density(spec, u))) < 1e-12


def test_two_dim_log_density_reduces_to_bicop():
    s = bicop.sample(FittedBicop(F.GAUSSIAN, 0.6, None), 800, np.random.default_rng(4))
    spec = rvine.select_and_fit(s, {F.GAUSSIAN})
    cop = list(spec.edges())[0][3]
    rng = np.random.default_rng(5)
    u = rng.random((10, 2)) * 0.9 + 0.05
    ld = rvine.log_density(spec, u)
    d = int(spec.structure[0, 0])
    expected = np.log(np.asarray(bicop.density(cop, u[:, d - 1], u[:, 2 - d])))
    assert np.max(np.abs(ld - expected)) < 1e-12


def test_three_dim_log_density_hand_composed():
    # Build a fixed spec with known copulas on the path 1-2-3 and compare
    # against the explicit chain c12 * c23 * c13|2 with h-transformed args.
    c12 = FittedBicop(F.GAUSSIAN, 0.5, None)
    c23 = FittedBicop(F.CLAYTON, 1.5, None)
    c13_2 = FittedBicop(F.FRANK, 3.0, None)
    structure = np.array([[3, 0, 0], [1, 2, 0], [2, 1, 1]])
    copulas = {
        (1, 0): c13_2,       # (3,1 | 2), diagonal variable 3 first
        (2, 0): c23,         # (3,2)
        (2, 1): c12,         # (2,1)
    }
    spec = rvine.RVineSpec(dimension=3, structure=structure, copulas=copulas)
    assert rvine.check_proximity(spec)
    pts = np.array([
        [0.3, 0.6, 0.2], [0.5, 0.5, 0.5], [0.9, 0.1, 0.7],
        [0.25, 0.75, 0.4], [0.66, 0.33, 0.85],
    ])
    got = rvine.log_density(spec, pts)
    u1, u2, u3 = pts[:, 0], pts[:, 1], pts[:, 2]
    manual = (
        np.log(np.asarray(bicop.density(c12, u1, u2)))
        + np.log(np.asarray(bicop.density(c23, u3, u2)))
        + np.log(np.asarray(bicop.density(
            c13_2,
            np.asarray(bicop.h_func(c23, u3, u2)),
            np.asarray(bicop.h_func(c12, u1, u2)),
        )))
    )
    assert np.max(np.abs(got - manual)) < 1e-10


def test_two_dim_density_integrates_to_one():
    s = bicop.sample(FittedBicop(F.GUMBEL, 2.0, None), 1500, np.random.default_rng(6))
    spec = rvine.select_and_fit(s, {F.GUMBEL})
    g = np.linspace(0.0025, 0.9975, 201)
    U, V = np.meshgrid(g, g)
    pts = np.column_stack([U.ravel(), V.ravel()])
    dens = np.exp(rvine.log_density(spec, pts)).reshape(U.shape)
    integral = np.trapezoid(np.trapezoid(dens, g, axis=1), g)
    assert integral == pytest.approx(1.0, abs=1e-2)


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------


def test_sample_independence_pairwise():
    spec = _independence_spec(3)
    s = rvine.sample(spec, 4000, 7)
    for a in range(3):
        for b in range(a + 1, 3):
            assert abs(bicop.empirical_tau(s[:, a], s[:, b])) < 2 / np.sqrt(4000)


def test_sample_marginal_uniformity(fitted_3d):
    N = 5000
    s = rvine.sample(fitted_3d, N, 11)
    for col in range(3):
        srt = np.sort(s[:, col])
        ks = np.max(np.maximum(np.arange(1, N + 1) / N - srt,
                               srt - np.arange(N) / N))
        assert ks < 1.36 / np.sqrt(N)


def test_sample_gaussian_tau_fidelity():
    structure = np.array([[2, 0], [1, 1]])
    cop = FittedBicop(F.GAUSSIAN, 0.8, None)
    spec = rvine.RVineSpec(dimension=2, structure=structure, copulas={(1, 0): cop})
    s = rvine.sample(spec, 100_000, 3)
    assert bicop.empirical_tau(s[:, 0], s[:, 1]) == pytest.approx(
        bicop.model_tau(cop), abs=0.01)


def test_sample_tree1_tau_fidelity(fitted_3d):
    N = 20_000
    s = rvine.sample(fitted_3d, N, 13)
    for tree, (a, b), _, cop in fitted_3d.edges():
        if tree != 1:
            continue
        emp = bicop.empirical_tau(s[:, a - 1], s[:, b - 1])
        assert emp == pytest.approx(bicop.model_tau(cop), abs=max(0.03, 3 / np.sqrt(N)))


def test_sample_deterministic(fitted_3d):
    a = rvine.sample(fitted_3d, 500, 21)
    b = rvine.sample(fitted_3d, 500, 21)
    assert np.array_equal(a, b)


def test_simulate_fit_round_trip(fitted_3d):
    s = rvine.sample(fitted_3d, 5000, 17)
    refit = rvine.select_and_fit(s, ALL_FAMILIES)
    orig = {frozenset(p): bicop.model_tau(c)
            for t, p, _, c in fitted_3d.edges() if t == 1}
    new = {frozenset(p): bicop.model_tau(c)
           for t, p, _, c in refit.edges() if t == 1}
    assert set(orig) == set(new)
    for pair, tau in orig.items():
        assert new[pair] == pytest.approx(tau, abs=0.05)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def test_json_round_trip(fitted_3d):
    doc = rvine.to_json(fitted_3d)
    back = rvine.from_json(doc)
    assert back.dimension == fitted_3d.dimension
    assert np.array_equal(back.structure, fitted_3d.structure)
    for key, cop in fitted_3d.copulas.items():
        assert back.copulas[key].family == cop.family
        assert back.copulas[key].theta == cop.theta
        assert back.copulas[key].theta2 == cop.theta2
        assert back.copulas[key].loglik == cop.loglik
        assert back.copulas[key].n_obs == cop.n_obs
    assert rvine.to_json(back) == doc


def test_json_keeps_edge_diagnostics(fitted_3d):
    doc = json.loads(rvine.to_json(fitted_3d))
    for (i, j), cop in fitted_3d.copulas.items():
        assert doc["loglik"][i][j] == cop.loglik and doc["n_obs"][i][j] == 5000
        assert doc["aic"][i][j] == 2.0 * cop.n_params - 2.0 * cop.loglik
        assert doc["tau"][i][j] == bicop.model_tau(cop)
    assert doc["loglik"][0][0] is None and doc["aic"][0][0] is None


# ---------------------------------------------------------------------------
# fixed-seed goldens and the cost of a fit
# ---------------------------------------------------------------------------


def _mixed_sign_panel(m=400, seed=1):
    """Chain 1-2 Clayton(3), 2-3 Gumbel-90(-2), 3-4 Frank(-6), 4-5
    Gumbel-180(2.5): tree 1 has edges of both signs."""
    rng = np.random.default_rng(seed)
    u2 = rng.random(m)
    u1 = bicop.inv_h(FittedBicop(F.CLAYTON, 3.0), rng.random(m), u2)
    u3 = bicop.inv_h(FittedBicop(F.GUMBEL_90, -2.0), rng.random(m), u2)
    u4 = bicop.inv_h(FittedBicop(F.FRANK, -6.0), rng.random(m), u3)
    u5 = bicop.inv_h(FittedBicop(F.GUMBEL_180, 2.5), rng.random(m), u4)
    return np.column_stack([u1, u2, u3, u4, u5])


def _gumbel_t_gauss_panel(m=400, seed=0):
    """Chain 1-2 Gumbel(2), 2-3 Student t(0.6, 4), 3-4 Gaussian(-0.6); the
    fit keeps one tree-1 edge of each family."""
    rng = np.random.default_rng(seed)
    u2 = rng.random(m)
    u1 = bicop.inv_h(FittedBicop(F.GUMBEL, 2.0), rng.random(m), u2)
    u3 = bicop.inv_h(FittedBicop(F.STUDENT_T, 0.6, 4.0), rng.random(m), u2)
    u4 = bicop.inv_h(FittedBicop(F.GAUSSIAN, -0.6), rng.random(m), u3)
    return np.column_stack([u1, u2, u3, u4])


# SHA-256 of `to_json` of the fit and of `sample(fit, 1000, 11).tobytes()`,
# re-captured when the Student-t fit became the itau estimator (rho by tau
# inversion, a profile search in df): the (2, 3) edge moved from rho 0.6441,
# df 7.968 to rho 0.6551, df 8.197 (AIC +0.161), and so did the draws.
GOLDEN_SPEC_SHA256 = "7c79ed48f4c26f82d5929ba029c1298e837341054d927aec8e6877f680896a8c"
GOLDEN_SAMPLE_SHA256 = "9ca2b07cd3ad1682878cd6b14142385531d5c4be9f1444059e6fb33fa3cdbcdc"
# The same of the mixed-sign panel, whose fit selects rotated families.
GOLDEN_ROTATED_SPEC_SHA256 = "80129524883b7a88cd75927f051645b14eed1ebc82d30096fd376fcb7efb0f77"
GOLDEN_ROTATED_SAMPLE_SHA256 = "844f8f9e8c6cacbfa6dfa521352e8328a29c302b881fdf5c2f39366b24f8e071"


def _check_golden(data, tree1_families, spec_sha256, sample_sha256):
    spec = rvine.select_and_fit(data, ALL_FAMILIES)
    tree1 = {frozenset(p): c.family for t, p, _, c in spec.edges() if t == 1}
    assert tree1 == tree1_families
    text = rvine.to_json(spec)
    assert hashlib.sha256(text.encode()).hexdigest() == spec_sha256
    draws = rvine.sample(spec, 1000, 11)
    assert hashlib.sha256(draws.tobytes()).hexdigest() == sample_sha256


def test_golden_fit_and_sample():
    _check_golden(_gumbel_t_gauss_panel(),
                  {frozenset({1, 2}): F.GUMBEL, frozenset({2, 3}): F.STUDENT_T,
                   frozenset({3, 4}): F.GAUSSIAN},
                  GOLDEN_SPEC_SHA256, GOLDEN_SAMPLE_SHA256)


def test_golden_fit_and_sample_rotated():
    _check_golden(_mixed_sign_panel(),
                  {frozenset({1, 2}): F.CLAYTON, frozenset({2, 3}): F.GUMBEL_90,
                   frozenset({3, 4}): F.FRANK, frozenset({4, 5}): F.GUMBEL_180},
                  GOLDEN_ROTATED_SPEC_SHA256, GOLDEN_ROTATED_SAMPLE_SHA256)


@pytest.mark.parametrize("panel", ["gumbel_t_gauss", "simulated_3d", "independent"])
def test_one_tau_per_candidate_pair(panel, monkeypatch):
    data = {"gumbel_t_gauss": _gumbel_t_gauss_panel,
            "simulated_3d": lambda: _simulated_3d_panel(m=500),
            "independent": lambda: np.random.default_rng(3).random((200, 5))}[panel]()
    tau_calls, candidate_pairs = [], []
    empirical_tau, mst_max = bicop.empirical_tau, rvine._mst_max

    def counting_tau(u, v):
        tau_calls.append(1)
        return empirical_tau(u, v)

    def counting_mst(num_nodes, taus):
        candidate_pairs.append(len(taus))
        return mst_max(num_nodes, taus)

    monkeypatch.setattr(bicop, "empirical_tau", counting_tau)
    monkeypatch.setattr(rvine, "_mst_max", counting_mst)
    spec = rvine.select_and_fit(data, ALL_FAMILIES)
    n = data.shape[1]
    assert candidate_pairs[0] == n * (n - 1) // 2 and len(candidate_pairs) == n - 1
    assert len(tau_calls) == sum(candidate_pairs)
    if panel != "independent":
        assert any(c.family is not F.INDEPENDENCE for c in spec.copulas.values())


# ---------------------------------------------------------------------------
# candidate families matched to the sign of each edge's tau
# ---------------------------------------------------------------------------


def test_fits_only_families_of_the_edge_sign(monkeypatch):
    positive_only = {F.CLAYTON, F.GUMBEL, F.CLAYTON_180, F.GUMBEL_180}
    negative_only = {F.CLAYTON_90, F.CLAYTON_270, F.GUMBEL_90, F.GUMBEL_270}
    fits = {}  # edge tau -> families fitted
    fit = bicop.fit

    def recording_fit(family, u, v, tau=None):
        fits.setdefault(tau, []).append(family)
        return fit(family, u, v, tau)

    monkeypatch.setattr(bicop, "fit", recording_fit)
    rvine.select_and_fit(_mixed_sign_panel(), ALL_FAMILIES)
    assert any(tau > 0 for tau in fits) and any(tau < 0 for tau in fits)
    for tau, families in fits.items():
        wrong = negative_only if tau > 0 else positive_only
        assert set(families) == set(ALL_FAMILIES) - {F.INDEPENDENCE} - wrong
        assert len(families) == 7


def _unpruned_select_family(u, v, candidates, tau):
    """Every candidate fitted, the first of minimal AIC in name order."""
    fits = [bicop.fit(fam, u, v, tau) for fam in sorted(candidates, key=lambda f: f.value)]
    return min(fits, key=lambda c: c.aic)


@pytest.mark.parametrize("panel", [_mixed_sign_panel, _gumbel_t_gauss_panel])
def test_sign_rule_selects_what_an_unpruned_fit_selects(panel, monkeypatch):
    pruned = rvine.to_json(rvine.select_and_fit(panel(), ALL_FAMILIES))
    monkeypatch.setattr(bicop, "select_family", _unpruned_select_family)
    assert rvine.to_json(rvine.select_and_fit(panel(), ALL_FAMILIES)) == pruned
