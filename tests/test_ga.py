import numpy as np
import pytest

from vinefolio import ga, model
from vinefolio.errors import LengthMismatch
from vinefolio.ga import (
    GAConfig, build_layout, crossover_arithmetic, decode,
    mutate_adaptive_feasible, rank_scaled_values, select_stochastic_uniform,
    stage_length,
)
from vinefolio.model import Instance, zero_solution
from vinefolio.scenarios import ScenarioSet

from test_acceptance import _market_instance


def _tiny_instance(mu=0.0, **overrides):
    """Two USD assets, no forwards: smallest end-to-end exercise."""
    kwargs = dict(
        assets=("A1", "A2"),
        asset_currency=("USD", "USD"),
        currencies=("USD",),
        base="USD",
        forward_pairs=(),
        mu=mu,
        beta=0.9,
        a_min=np.zeros(2),
        a_max=np.full(2, np.inf),
        c_min=np.full(1, -np.inf),
        c_max=np.full(1, np.inf),
        t_min_asset=np.zeros(2),
        t_min_forward=np.zeros(0),
        v_u=1.0,
        k_c=1,
        k_g=0,
        margin_rate=0.0,
        big_b=1e6,
        h0=100.0,
        a0=np.zeros(2),
        q0=np.zeros(0),
        w0=100.0,
        fixed_buy_asset=np.zeros(2),
        fixed_sell_asset=np.zeros(2),
        var_buy_asset=np.zeros(2),
        var_sell_asset=np.zeros(2),
        fixed_buy_forward=np.zeros(0),
        fixed_sell_forward=np.zeros(0),
        var_buy_forward=np.zeros(0),
        var_sell_forward=np.zeros(0),
        p0_asset=np.array([10.0, 25.0]),
        p0_forward=np.zeros(0),
    )
    kwargs.update(overrides)
    return Instance(**kwargs)


def _market_scenarios(n, seed):
    """Scenarios over the acceptance market's columns."""
    rng = np.random.default_rng(seed)
    vals = np.column_stack([
        rng.normal(0.008, 0.04, (n, 3)), rng.normal(0.003, 0.01, (n, 2)),
        np.zeros(n), rng.normal(0.0, 0.02, n),
    ])
    return ScenarioSet(("EQ_A", "EQ_B", "EQ_C", "BD_A", "BD_B", "USD", "GBP"),
                       vals, np.full(n, 1.0 / n))


def _tiny_scenarios(n=20, seed=0):
    rng = np.random.default_rng(seed)
    vals = np.column_stack([
        rng.normal(0.01, 0.02, n),
        rng.normal(0.008, 0.01, n),
        np.zeros(n),
    ])
    return ScenarioSet(("A1", "A2", "USD"), vals, np.full(n, 1.0 / n))


# ---------------------------------------------------------------------------
# Configuration and layout
# ---------------------------------------------------------------------------


def test_config_validation():
    with pytest.raises(ValueError):
        GAConfig(population=1)
    with pytest.raises(ValueError):
        GAConfig(crossover_rate=1.0)
    with pytest.raises(ValueError):
        GAConfig(elite_count=0)
    with pytest.raises(ValueError):
        GAConfig(recourse_mode="bogus")


def test_layout_lengths():
    inst = _tiny_instance()
    sl = stage_length(inst)
    assert sl == 4 * 2 + 1
    assert build_layout(inst, 7, "no-recourse-trades").length == sl
    assert build_layout(inst, 7, "full").length == sl * 8


def test_layout_bounds():
    inst = _tiny_instance()
    layout = build_layout(inst, 3, "no-recourse-trades")
    assert np.all(layout.lower == 0.0)
    # trade caps scale inversely with price
    assert layout.upper[0] == pytest.approx(2 * 100.0 / 10.0)
    assert layout.upper[1] == pytest.approx(2 * 100.0 / 25.0)
    assert np.all(layout.upper[layout.is_binary] == 1.0)


# ---------------------------------------------------------------------------
# Decoding
# ---------------------------------------------------------------------------


def test_decode_thresholds_and_zeroing():
    inst = _tiny_instance()
    layout = build_layout(inst, 2, "no-recourse-trades")
    genes = np.array([3.0, 4.0,    # b
                      1.0, 2.0,    # s
                      0.6, 0.4,    # x: on, off
                      0.49, 0.51,  # y: off, on
                      0.9])        # z
    sol = decode(layout, genes)
    assert np.array_equal(sol.x_asset, [1.0, 0.0])
    assert np.array_equal(sol.y_asset, [0.0, 1.0])
    # trades survive only where the matching flag is on
    assert np.array_equal(sol.b_asset, [3.0, 0.0])
    assert np.array_equal(sol.s_asset, [0.0, 2.0])
    assert np.array_equal(sol.z, [1.0])
    assert not sol.has_recourse


def test_decode_full_mode_recourse_shapes():
    inst = _tiny_instance()
    N = 3
    layout = build_layout(inst, N, "full")
    rng = np.random.default_rng(0)
    sol = decode(layout, rng.random(layout.length))
    assert sol.has_recourse
    assert sol.rb_asset.shape == (N, 2)
    assert sol.rz.shape == (N, 1)
    assert set(np.unique(sol.rx_asset)) <= {0.0, 1.0}


def _genes_of(layout, sol):
    """The gene vector in `layout` order that holds `sol`'s fields."""
    genes = [getattr(sol, f) for f in model.STAGE_FIELDS]
    if layout.recourse_mode == "full":
        genes.append(np.concatenate([getattr(sol, "r" + f) for f in model.STAGE_FIELDS],
                                    axis=-1).ravel())
    return np.concatenate(genes)


def test_decode_round_trip():
    # Decoding is a projection: the fields of a decoded solution, laid
    # out as genes, decode to the same solution.
    inst = _tiny_instance()
    for mode, N in (("no-recourse-trades", 1), ("full", 4)):
        layout = build_layout(inst, N, mode)
        rng = np.random.default_rng(5)
        sol = decode(layout, rng.random(layout.length) * layout.upper)
        again = decode(layout, _genes_of(layout, sol))
        for name in ("b_asset", "s_asset", "x_asset", "y_asset", "z"):
            assert np.array_equal(getattr(again, name), getattr(sol, name)), name
        if mode == "full":
            for name in ("rb_asset", "rs_asset", "rx_asset", "ry_asset", "rz"):
                assert np.array_equal(getattr(again, name), getattr(sol, name)), name


def test_decode_zero_vector_is_zero_solution():
    inst = _tiny_instance()
    layout = build_layout(inst, 2, "full")
    sol = decode(layout, np.zeros(layout.length))
    zero = zero_solution(inst)
    for name in model.STAGE_FIELDS:
        assert np.array_equal(getattr(sol, name), getattr(zero, name)), name
        rec = getattr(sol, "r" + name)
        assert rec.shape == (2,) + getattr(zero, name).shape and not rec.any(), name
    assert np.array_equal(_genes_of(layout, sol), np.zeros(layout.length))


# ---------------------------------------------------------------------------
# Selection
# ---------------------------------------------------------------------------


def test_rank_scaling_inverse_sqrt():
    fits = np.array([5.0, 1.0, 3.0])   # ranks: 3rd, 1st, 2nd
    w = rank_scaled_values(fits)
    assert w.sum() == pytest.approx(1.0, abs=1e-15)
    raw = np.array([1 / np.sqrt(3), 1.0, 1 / np.sqrt(2)])
    assert w == pytest.approx(raw / raw.sum(), abs=1e-15)


def test_sus_equal_weights_near_uniform():
    n = 10
    w = np.full(n, 1.0 / n)
    idx = select_stochastic_uniform(w, 30, np.random.default_rng(0))
    counts = np.bincount(idx, minlength=n)
    # equal-step traversal of equal slices: exactly 3 picks each
    assert np.all(counts == 3)


def test_sus_concentrated_weight_takes_all():
    w = np.array([0.998, 0.001, 0.001])
    idx = select_stochastic_uniform(w, 50, np.random.default_rng(1))
    assert np.all(idx == 0)


def test_sus_frequency_matches_weights():
    rng = np.random.default_rng(2)
    w = np.array([0.5, 0.3, 0.2])
    counts = np.zeros(3)
    reps, per = 10_000, 10
    for _ in range(reps):
        counts += np.bincount(select_stochastic_uniform(w, per, rng), minlength=3)
    freq = counts / (reps * per)
    assert freq == pytest.approx(w, abs=0.02)


def test_sus_zero_count():
    assert select_stochastic_uniform(np.array([1.0]), 0,
                                     np.random.default_rng(0)).size == 0


# ---------------------------------------------------------------------------
# Variation operators
# ---------------------------------------------------------------------------


def test_crossover_is_midpoint():
    a, b = np.array([0.0, 2.0, 4.0]), np.array([2.0, 2.0, 0.0])
    assert np.array_equal(crossover_arithmetic(a, b), [1.0, 2.0, 2.0])


def test_crossover_length_mismatch():
    with pytest.raises(LengthMismatch):
        crossover_arithmetic(np.zeros(3), np.zeros(4))


def test_mutation_zero_sigma_identity():
    x = np.array([0.3, 0.7])
    out = mutate_adaptive_feasible(x, 0.0, np.zeros(2), np.ones(2),
                                   np.random.default_rng(0))
    assert np.array_equal(out, x)
    assert out is not x


def test_mutation_respects_bounds():
    rng = np.random.default_rng(3)
    lo, hi = np.zeros(5), np.ones(5)
    x = np.full(5, 0.5)
    for _ in range(200):
        out = mutate_adaptive_feasible(x, 2.0, lo, hi, rng)
        assert np.all(out >= lo) and np.all(out <= hi)


def test_mutation_step_size_exact_without_clipping():
    # With unbounded room the relative step has norm exactly sigma.
    rng = np.random.default_rng(4)
    lo, hi = np.full(8, -100.0), np.full(8, 100.0)
    x = np.zeros(8)
    sigma = 0.05
    out = mutate_adaptive_feasible(x, sigma, lo, hi, rng)
    rel = (out - x) / (hi - lo)
    assert np.linalg.norm(rel) == pytest.approx(sigma, abs=1e-12)


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def tiny_run():
    inst = _tiny_instance(mu=0.005)
    scen = _tiny_scenarios()
    cfg = GAConfig(population=40, generations=40, seed=7,
                   recourse_mode="no-recourse-trades")
    return ga.run(inst, scen, cfg), inst, scen, cfg


def test_run_reaches_feasibility(tiny_run):
    result, *_ = tiny_run
    assert result.evaluation.violation < 1e-6
    assert np.isfinite(result.cvar)
    # investing must beat holding cash when returns are mostly positive
    assert result.evaluation.expected_return >= 0.005 - 1e-6


def test_run_trace_monotone_best(tiny_run):
    result, *_ = tiny_run
    best = [b for _, b, _ in result.trace]
    assert len(best) == 40
    assert all(b2 <= b1 + 1e-12 for b1, b2 in zip(best, best[1:]))


def test_run_best_matches_reported_fitness(tiny_run):
    result, inst, scen, _ = tiny_run
    from vinefolio.model import evaluate
    ev = evaluate(inst, result.solution, scen)
    assert ev.fitness == pytest.approx(result.fitness, abs=1e-9)
    assert result.cvar == pytest.approx(ev.cvar, abs=1e-9)


def test_run_deterministic(tiny_run):
    result, inst, scen, cfg = tiny_run
    again = ga.run(inst, scen, cfg)
    assert again.trace == result.trace
    assert again.fitness == result.fitness
    assert np.array_equal(again.solution.b_asset, result.solution.b_asset)


def test_run_full_mode_smoke():
    inst = _tiny_instance()
    scen = _tiny_scenarios(n=5)
    cfg = GAConfig(population=12, generations=5, seed=1, recourse_mode="full")
    result = ga.run(inst, scen, cfg)
    assert result.solution.has_recourse
    assert len(result.trace) == 5


# ---------------------------------------------------------------------------
# Population evaluation
# ---------------------------------------------------------------------------


def _random_population(layout, P, rng):
    """Trades up to a fifth of their cap, every flag a fair coin, so that
    recourse trades are switched on in full mode."""
    genes = layout.lower + 0.2 * rng.random((P, layout.length)) * (layout.upper - layout.lower)
    genes[:, layout.is_binary] = rng.random((P, int(layout.is_binary.sum())))
    return genes


def _one_by_one(layout, pop, scen):
    inst = layout.instance
    return np.array([model.evaluate(inst, decode(layout, g), scen).fitness for g in pop])


@pytest.mark.parametrize("market", [False, True])
@pytest.mark.parametrize("mode", ["no-recourse-trades", "full"])
def test_batched_fitness_matches_evaluate(market, mode):
    inst = _market_instance(mu=0.003) if market else _tiny_instance(mu=0.005)
    scen = _market_scenarios(30, 1) if market else _tiny_scenarios(30)
    layout = build_layout(inst, scen.n_scenarios, mode)
    pop = _random_population(layout, 16, np.random.default_rng(2))
    p_asset, p_fwd = model.scenario_prices(inst, scen)
    if mode == "full":
        assert decode(layout, pop).rx_asset.any()
    batched = ga._population_fitness(layout, pop, scen, p_asset, p_fwd)
    np.testing.assert_allclose(batched, _one_by_one(layout, pop, scen),
                               rtol=1e-12, atol=0.0)


def test_full_mode_chunks_match_individual_evaluation():
    inst = _market_instance(mu=0.003)
    scen = _market_scenarios(2000, 3)
    layout = build_layout(inst, scen.n_scenarios, "full")
    rows = ga._CHUNK_ELEMENTS // layout.length
    pop = _random_population(layout, 2 * rows + 1, np.random.default_rng(4))
    assert 1 <= rows < len(pop)
    p_asset, p_fwd = model.scenario_prices(inst, scen)
    batched = ga._population_fitness(layout, pop, scen, p_asset, p_fwd)
    np.testing.assert_allclose(batched, _one_by_one(layout, pop, scen),
                               rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("mode", ["no-recourse-trades", "full"])
def test_result_fitness_matches_trace_and_evaluation(mode):
    inst = _market_instance(mu=0.002)
    scen = _market_scenarios(15, 5)
    cfg = GAConfig(population=16, generations=6, seed=3, elite_count=2,
                   recourse_mode=mode)
    result = ga.run(inst, scen, cfg)
    assert result.fitness == pytest.approx(result.evaluation.fitness, rel=1e-12, abs=1e-15)
    # The trace records the best-so-far before each generation, so one
    # more generation on the same stream ends on this run's final best.
    longer = ga.run(inst, scen, GAConfig(population=16, generations=7, seed=3,
                                         elite_count=2, recourse_mode=mode))
    assert longer.trace[-1][1] == pytest.approx(result.fitness, rel=1e-12, abs=1e-15)


# Results of these fixed-seed solves before generations were evaluated
# in one batched pass.
GOLDEN = [
    (("no-recourse-trades", 0.003, 60, 24, 15, 2), 0.016759986837544903,
     [0.0, 1.3209719690864508, 0.983080339776526, 0.0, 0.32293274658017856]),
    (("full", 0.002, 12, 16, 10, 3), 0.0055439687053828735,
     [0.0, 0.0, 1.1081026781320313, 0.0, 0.0]),
]


@pytest.mark.parametrize("case,fitness,b_asset", GOLDEN)
def test_golden_fixed_seed_results(case, fitness, b_asset):
    mode, mu, n, population, generations, seed = case
    cfg = GAConfig(population=population, generations=generations, seed=seed,
                   elite_count=2, recourse_mode=mode)
    result = ga.run(_market_instance(mu), _market_scenarios(n, seed), cfg)
    assert result.fitness == pytest.approx(fitness, rel=1e-12)
    assert result.cvar == pytest.approx(fitness, rel=1e-12)
    np.testing.assert_allclose(result.solution.b_asset, b_asset, rtol=1e-12, atol=1e-15)
