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


def _four_currency_instance(mu=0.002):
    """Five assets in four currencies and three forwards, with a currency
    floor on GBP and JPY, a cap on GBP and EUR, and an overlay limit v_u
    that random portfolios break."""
    na, nf = 5, 3
    return Instance(
        assets=("A_USD", "A_GBP", "A_EUR", "A_JPY", "B_USD"),
        asset_currency=("USD", "GBP", "EUR", "JPY", "USD"),
        currencies=("USD", "GBP", "EUR", "JPY"), base="USD",
        forward_pairs=((1, 0), (2, 0), (3, 1)),
        mu=mu, beta=0.9,
        a_min=np.zeros(na), a_max=np.full(na, np.inf),
        c_min=np.array([-np.inf, 5.0, -np.inf, 2.0]),
        c_max=np.array([np.inf, 40.0, 30.0, np.inf]),
        t_min_asset=np.zeros(na), t_min_forward=np.zeros(nf),
        v_u=0.1, k_c=4, k_g=3, margin_rate=0.05, big_b=1e4,
        h0=100.0, a0=np.zeros(na), q0=np.zeros(nf), w0=100.0,
        fixed_buy_asset=np.zeros(na), fixed_sell_asset=np.zeros(na),
        var_buy_asset=np.full(na, 0.001), var_sell_asset=np.full(na, 0.001),
        fixed_buy_forward=np.zeros(nf), fixed_sell_forward=np.zeros(nf),
        var_buy_forward=np.full(nf, 0.001), var_sell_forward=np.full(nf, 0.001),
        p0_asset=np.array([10.0, 20.0, 15.0, 8.0, 12.0]),
        p0_forward=np.array([5.0, 4.0, 6.0]),
    )


def _scenarios_for(inst, n, seed):
    """Normal returns over every asset and currency column of `inst`."""
    columns = (*inst.assets, *inst.currencies)
    rng = np.random.default_rng(seed)
    return ScenarioSet(columns, rng.normal(0.004, 0.03, (n, len(columns))),
                       np.full(n, 1.0 / n))


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


def test_decode_full_mode_recourse_fields_are_gene_major():
    # Each recourse field is a (P, N, k) view of (k, P, N) memory, so the
    # stage evaluator reads every instrument as one contiguous plane.
    inst = _market_instance(mu=0.003)
    P, N = 4, 6
    layout = build_layout(inst, N, "full")
    sol = decode(layout, np.random.default_rng(1).random((P, layout.length)) * layout.upper)
    na, nf, nc = inst.n_assets, inst.n_forwards, inst.n_currencies
    for name, k in zip(model.STAGE_FIELDS, (na, na, na, na, nf, nf, nf, nf, nc)):
        field = getattr(sol, "r" + name)
        assert field.shape == (P, N, k), name
        assert field.strides == (8 * N, 8, 8 * P * N), name
        assert np.moveaxis(field, -1, 0).flags.c_contiguous, name


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


def test_crossover_writes_child_in_place():
    rng = np.random.default_rng(3)
    a, b = rng.normal(size=50), rng.normal(size=50)
    rows = np.zeros((3, 50))
    child = crossover_arithmetic(a, b, out=rows[1])
    assert np.shares_memory(child, rows[1])
    assert np.array_equal(rows[1], 0.5 * (a + b))
    assert not rows[0].any() and not rows[2].any()


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
    batched, _ = ga._population_fitness(layout, pop, scen, p_asset, p_fwd)
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
    batched, _ = ga._population_fitness(layout, pop, scen, p_asset, p_fwd)
    np.testing.assert_allclose(batched, _one_by_one(layout, pop, scen),
                               rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("n", [500, 1000, 2000])
@pytest.mark.parametrize("P", [2, 3, 24, 40, 41, 150])
def test_no_recourse_passes_match_one_whole_pass(monkeypatch, P, n):
    # No-recourse rows go in equal passes under ga._HOLD_ELEMENTS, none of
    # one row; every fitness equals the whole population scored in one
    # pass, bit for bit.
    inst = _market_instance(mu=0.003)
    scen = _market_scenarios(n, P)
    layout = build_layout(inst, n, "no-recourse-trades")
    pop = _random_population(layout, P, np.random.default_rng(P + n))
    p_asset, p_fwd = model.scenario_prices(inst, scen)
    whole = model.population_fitness(inst, decode(layout, pop), scen, p_asset, p_fwd)
    sizes = []
    score = model.population_fitness

    def counted(inst, sols, *args):
        sizes.append(len(sols.z))
        return score(inst, sols, *args)

    monkeypatch.setattr(model, "population_fitness", counted)
    fits, _ = ga._population_fitness(layout, pop, scen, p_asset, p_fwd)
    assert np.array_equal(fits, whole)
    assert sum(sizes) == P and min(sizes) >= 2 and max(sizes) - min(sizes) <= 1
    assert len(sizes) == 1 or max(sizes) * n <= ga._HOLD_ELEMENTS


def _idle(layout, genes):
    """`genes` with every recourse flag gene halved into [0, 0.5], so that
    each row decodes to all-zero recourse fields."""
    sl = stage_length(layout.instance)
    idle = genes.copy()
    flags = np.flatnonzero(layout.is_binary[sl:]) + sl
    idle[:, flags] *= 0.5
    return idle


def test_mixed_pass_matches_individual_evaluation():
    # Idle and live rows interleaved; the live rows fill three chunks. One
    # live row has a single flag on, a z gene just above 0.5.
    inst = _market_instance(mu=0.003)
    scen = _market_scenarios(2000, 6)
    layout = build_layout(inst, scen.n_scenarios, "full")
    rows = ga._CHUNK_ELEMENTS // layout.length
    sl = stage_length(inst)
    edge = _idle(layout, _random_population(layout, 1, np.random.default_rng(9)))
    edge[0, sl + 1000 * sl + sl - 1] = 0.5 + 1e-9
    live = np.vstack([_random_population(layout, 2 * rows, np.random.default_rng(7)), edge])
    idle = _idle(layout, _random_population(layout, 4, np.random.default_rng(8)))
    pop = np.empty((len(live) + len(idle), layout.length))
    is_live = np.zeros(len(pop), dtype=bool)
    is_live[[0, 2, 3, 5, 8]] = True
    pop[is_live], pop[~is_live] = live, idle
    assert 1 <= rows < is_live.sum()
    assert not decode(layout, idle).rx_asset.any() and decode(layout, live).rx_asset.any()
    p_asset, p_fwd = model.scenario_prices(inst, scen)
    batched, n_live = ga._population_fitness(layout, pop, scen, p_asset, p_fwd)
    assert n_live == is_live.sum()
    np.testing.assert_allclose(batched, _one_by_one(layout, pop, scen),
                               rtol=1e-12, atol=0.0)


def _captured_populations(monkeypatch, inst, scen, cfg):
    """Every population that `ga.run` evaluates, and the run's result."""
    pops = []
    evaluate = ga._population_fitness

    def capture(layout, pop, *args):
        pops.append(pop.copy())
        return evaluate(layout, pop, *args)

    with monkeypatch.context() as patch:
        patch.setattr(ga, "_population_fitness", capture)
        return pops, ga.run(inst, scen, cfg)


def test_idle_rows_score_as_dense_rows_of_a_recourse_run(monkeypatch):
    # The populations of a full-recourse run, as the benchmark's `recourse`
    # workload makes them: idle rows score as their first stage alone, held
    # with no recourse fields, in one pass of the same rows.
    # (`test_held_stage_is_a_stage_that_trades_nothing` in test_model.py
    # matches a held stage with dense zero recourse fields.)
    inst = _market_instance(mu=0.002)
    scen = _market_scenarios(200, 12)
    cfg = GAConfig(population=40, generations=20, seed=12, elite_count=2)
    pops, _ = _captured_populations(monkeypatch, inst, scen, cfg)
    layout = build_layout(inst, scen.n_scenarios, "full")
    p_asset, p_fwd = model.scenario_prices(inst, scen)
    idle_rows = 0
    for pop in pops:
        sol = decode(layout, pop)
        flags = [getattr(sol, "r" + f) for f in ("x_asset", "y_asset", "x_fwd", "y_fwd", "z")]
        live = np.any([f.any(axis=(1, 2)) for f in flags], axis=0)
        idle = pop[~live]
        idle_rows += len(idle)
        fast, n_live = ga._population_fitness(layout, idle, scen, p_asset, p_fwd)
        first = model.Solution(**{f: getattr(sol, f)[~live] for f in model.STAGE_FIELDS})
        held = model.population_fitness(inst, first, scen, p_asset, p_fwd)
        assert n_live == 0 and np.array_equal(fast, held)
    assert idle_rows > 0


def test_full_mode_pass_fitness_is_row_independent(monkeypatch):
    # A row's fitness does not depend on the other rows of its pass: it
    # equals the row evaluated alone, and the row in a pass that starts
    # three rows later, bit for bit. The rows are a full-mode run's last
    # population, most of them feasible so that the CVaR's last bits show
    # in the fitness, with small recourse buys switched on in three rows.
    inst = _market_instance(mu=0.002)
    scen = _market_scenarios(200, 7)
    pops, _ = _captured_populations(monkeypatch, inst, scen,
                                    GAConfig(population=16, generations=30, seed=7))
    layout = build_layout(inst, scen.n_scenarios, "full")
    pop = pops[-1].copy()
    sl, na = stage_length(inst), inst.n_assets
    recourse = pop[:, sl:].reshape(len(pop), scen.n_scenarios, sl)
    recourse[[1, 4, 7], ::5, 0] = 1e-3         # b of the first asset
    recourse[[1, 4, 7], ::5, 2 * na] = 1.0      # its buy flag
    p_asset, p_fwd = model.scenario_prices(inst, scen)

    def fitness(genes):
        return model.population_fitness(inst, decode(layout, genes), scen, p_asset, p_fwd)

    whole = fitness(pop)
    assert np.sum(whole < 1.0) >= 8             # feasible rows: fitness is the CVaR
    assert np.array_equal(fitness(pop[3:]), whole[3:])
    for i in range(len(pop)):
        assert fitness(pop[i:i + 1])[0] == whole[i], i


def test_run_counts_live_evaluations(monkeypatch):
    # A large mutation step switches recourse flags on; the count is the
    # number of evaluated rows whose decoded recourse fields are not all zero.
    monkeypatch.setattr(ga, "_MUTATION_SCALE", 5.0)
    inst = _tiny_instance(mu=0.005)
    scen = _tiny_scenarios(n=2)
    cfg = GAConfig(population=12, generations=5, seed=2)
    pops, result = _captured_populations(monkeypatch, inst, scen, cfg)
    layout = build_layout(inst, scen.n_scenarios, "full")
    expected = sum(int(np.any([getattr(decode(layout, g), "r" + f).any()
                               for f in model.STAGE_FIELDS])) for pop in pops for g in pop)
    assert 0 < result.live_evaluations == expected < 12 * 6
    off = ga.run(inst, scen, GAConfig(population=12, generations=5, seed=2,
                                      recourse_mode="no-recourse-trades"))
    assert off.live_evaluations == 0


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
