"""Genetic algorithm for the two-stage portfolio model.

Each generation keeps the elite unchanged, creates a fixed share of
children as the arithmetic mean of two selected parents, and fills the
rest with adaptive-step mutants. Selection is stochastic-uniform over
rank-scaled fitness. The chromosome holds all first-stage decisions
(and, in `full` recourse mode, per-scenario recourse decisions) as a
flat real vector; binary genes are thresholded at 0.5.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import model
from .errors import LengthMismatch
from .model import Evaluation, Instance, Solution
from .scenarios import ScenarioSet


@dataclass(frozen=True)
class GAConfig:
    population: int = 200
    generations: int = 200
    crossover_rate: float = 0.8
    elite_count: int = 1
    seed: int = 0
    recourse_mode: str = "full"           # "full" or "no-recourse-trades"
    mutation_scale: float = 0.05
    mutation_grow: float = 1.1
    mutation_shrink: float = 0.7
    mutation_floor: float = 1e-6

    def __post_init__(self):
        if self.population < 2 or self.generations < 1:
            raise ValueError("need population >= 2 and generations >= 1")
        if not 0.0 < self.crossover_rate < 1.0:
            raise ValueError("crossover rate must be in (0,1)")
        if not 1 <= self.elite_count < self.population:
            raise ValueError("elite count must be in [1, population)")
        if self.recourse_mode not in ("full", "no-recourse-trades"):
            raise ValueError(f"unknown recourse mode {self.recourse_mode!r}")


# ---------------------------------------------------------------------------
# Chromosome encoding
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ChromosomeLayout:
    """Gene layout and bounds for one instance / scenario-count pair."""

    instance: Instance
    n_scenarios: int
    recourse_mode: str
    lower: np.ndarray = field(repr=False)
    upper: np.ndarray = field(repr=False)
    is_binary: np.ndarray = field(repr=False)

    @property
    def length(self) -> int:
        return self.lower.size


def _stage_bounds(inst: Instance):
    """Per-gene (lower, upper, binary flag) for one stage block."""
    trade_cap_a = 2.0 * inst.w0 / np.maximum(inst.p0_asset, 1e-12)
    trade_cap_f = 2.0 * inst.w0 / np.maximum(inst.p0_forward, 1e-12)
    lo, hi, binary = [], [], []
    for cap in (trade_cap_a, trade_cap_a):          # b_asset, s_asset
        lo.append(np.zeros_like(cap)); hi.append(cap); binary.append(np.zeros_like(cap, dtype=bool))
    for _ in range(2):                               # x_asset, y_asset
        lo.append(np.zeros(inst.n_assets)); hi.append(np.ones(inst.n_assets)); binary.append(np.ones(inst.n_assets, dtype=bool))
    for cap in (trade_cap_f, trade_cap_f):           # b_fwd, s_fwd
        lo.append(np.zeros_like(cap)); hi.append(cap); binary.append(np.zeros_like(cap, dtype=bool))
    for _ in range(2):                               # x_fwd, y_fwd
        lo.append(np.zeros(inst.n_forwards)); hi.append(np.ones(inst.n_forwards)); binary.append(np.ones(inst.n_forwards, dtype=bool))
    lo.append(np.zeros(inst.n_currencies)); hi.append(np.ones(inst.n_currencies)); binary.append(np.ones(inst.n_currencies, dtype=bool))  # z
    return np.concatenate(lo), np.concatenate(hi), np.concatenate(binary)


def build_layout(inst: Instance, n_scenarios: int, recourse_mode: str) -> ChromosomeLayout:
    lo1, hi1, bin1 = _stage_bounds(inst)
    if recourse_mode == "full":
        lo = np.concatenate([lo1] + [lo1] * n_scenarios)
        hi = np.concatenate([hi1] + [hi1] * n_scenarios)
        binary = np.concatenate([bin1] + [bin1] * n_scenarios)
    else:
        lo, hi, binary = lo1, hi1, bin1
    return ChromosomeLayout(instance=inst, n_scenarios=n_scenarios,
                            recourse_mode=recourse_mode,
                            lower=lo, upper=hi, is_binary=binary)


def _split_stage(inst: Instance, genes: np.ndarray):
    na, nf, nc = inst.n_assets, inst.n_forwards, inst.n_currencies
    sizes = [na, na, na, na, nf, nf, nf, nf, nc]
    parts, pos = [], 0
    for s in sizes:
        parts.append(genes[..., pos:pos + s])
        pos += s
    return parts


def stage_length(inst: Instance) -> int:
    return 4 * inst.n_assets + 4 * inst.n_forwards + inst.n_currencies


def _decode_stage(inst: Instance, genes: np.ndarray) -> dict[str, np.ndarray]:
    b_a, s_a, xg_a, yg_a, b_f, s_f, xg_f, yg_f, zg = _split_stage(inst, genes)
    x_a, y_a, x_f, y_f, z = ((g > 0.5).astype(float) for g in (xg_a, yg_a, xg_f, yg_f, zg))
    values = (np.maximum(b_a, 0.0) * x_a, np.maximum(s_a, 0.0) * y_a, x_a, y_a,
              np.maximum(b_f, 0.0) * x_f, np.maximum(s_f, 0.0) * y_f, x_f, y_f, z)
    return dict(zip(model.STAGE_FIELDS, values))


def decode(layout: ChromosomeLayout, genes: np.ndarray) -> Solution:
    """Genes -> Solution; binaries thresholded, trades zeroed when the
    matching flag is off (keeps the pair consistent).

    Leading axes of `genes` carry over to every field, so a (P, L)
    population decodes to one Solution with a leading P axis.
    """
    inst = layout.instance
    sl = stage_length(inst)
    first = _decode_stage(inst, genes[..., :sl])
    if layout.recourse_mode != "full":
        return Solution(**first)
    rec = genes[..., sl:].reshape(genes.shape[:-1] + (layout.n_scenarios, sl))
    return Solution(**first, **{"r" + k: v for k, v in _decode_stage(inst, rec).items()})


# ---------------------------------------------------------------------------
# Genetic operators
# ---------------------------------------------------------------------------


def rank_scaled_values(fitnesses: np.ndarray) -> np.ndarray:
    """Selection weight proportional to 1/sqrt(rank), best first."""
    order = np.argsort(fitnesses, kind="stable")
    weights = np.empty_like(fitnesses, dtype=float)
    weights[order] = 1.0 / np.sqrt(np.arange(1, fitnesses.size + 1))
    return weights / weights.sum()


def select_stochastic_uniform(weights: np.ndarray, count: int,
                              rng: np.random.Generator) -> np.ndarray:
    """Equal-step line traversal with a random start below the step."""
    if count < 1:
        return np.zeros(0, dtype=int)
    step = 1.0 / count
    points = rng.random() * step + step * np.arange(count)
    cum = np.cumsum(weights)
    cum[-1] = 1.0
    return np.searchsorted(cum, points, side="right").clip(0, weights.size - 1)


def crossover_arithmetic(parent_a: np.ndarray, parent_b: np.ndarray) -> np.ndarray:
    if parent_a.shape != parent_b.shape:
        raise LengthMismatch(f"{parent_a.shape} vs {parent_b.shape}")
    return 0.5 * (parent_a + parent_b)


def mutate_adaptive_feasible(individual: np.ndarray, sigma: float,
                             lower: np.ndarray, upper: np.ndarray,
                             rng: np.random.Generator) -> np.ndarray:
    """individual + sigma * range * unit direction, clipped to bounds."""
    if sigma == 0.0:
        return individual.copy()
    d = rng.standard_normal(individual.size)
    norm = np.linalg.norm(d)
    if norm > 0:
        d /= norm
    mutant = individual + sigma * (upper - lower) * d
    return np.clip(mutant, lower, upper)


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GAResult:
    solution: Solution
    evaluation: Evaluation
    fitness: float
    cvar: float
    trace: tuple[tuple[int, float, float], ...]   # (generation, best, mean)
    config: GAConfig


def _initial_population(layout: ChromosomeLayout, config: GAConfig,
                        rng: np.random.Generator) -> np.ndarray:
    """Random-weighted portfolios: buys split the initial cash across
    assets; binaries fair coin flips; recourse trades start at zero."""
    inst = layout.instance
    sl = stage_length(inst)
    na, nf, nc = inst.n_assets, inst.n_forwards, inst.n_currencies
    # Row p holds individual p's weight draws, then its flag draws.
    draws = rng.random((config.population, na + 2 * na + 2 * nf + nc))
    w = draws[:, :na]
    flags = draws[:, na:] < 0.5
    pop = np.zeros((config.population, layout.length))
    pop[:, 0:na] = w / w.sum(axis=1, keepdims=True) * inst.h0 / inst.p0_asset  # b_asset
    pop[:, 2 * na:4 * na] = flags[:, : 2 * na]                                 # x/y asset
    pop[:, 4 * na + 2 * nf : 4 * na + 4 * nf] = flags[:, 2 * na : 2 * na + 2 * nf]
    pop[:, sl - nc : sl] = flags[:, 2 * na + 2 * nf :]                         # z
    return np.clip(pop, layout.lower, layout.upper)


# Population rows per evaluation pass are capped so that a pass's P_c x L
# genes stay under this many elements. In full recourse mode L is the
# stage length times N + 1, and the stage makes about twenty temporaries
# of that size.
_CHUNK_ELEMENTS = 1 << 19


def _population_fitness(layout: ChromosomeLayout, pop: np.ndarray,
                        scen: ScenarioSet, p_asset: np.ndarray,
                        p_fwd: np.ndarray) -> np.ndarray:
    """Fitness of every row of `pop`, a chunk of rows per pass."""
    rows = max(1, _CHUNK_ELEMENTS // layout.length)
    return np.concatenate([
        model.population_fitness(layout.instance, decode(layout, pop[i:i + rows]),
                                 scen, p_asset, p_fwd)
        for i in range(0, len(pop), rows)
    ])


def run(inst: Instance, scen: ScenarioSet, config: GAConfig) -> GAResult:
    """Evolve and return the best-ever decoded solution with its trace."""
    layout = build_layout(inst, scen.n_scenarios, config.recourse_mode)
    rng = np.random.default_rng(config.seed)
    p_asset, p_fwd = model.scenario_prices(inst, scen)

    pop = _initial_population(layout, config, rng)
    fits = _population_fitness(layout, pop, scen, p_asset, p_fwd)
    best_idx = int(np.argmin(fits))
    best_genes = pop[best_idx].copy()
    best_fit = float(fits[best_idx])

    sigma = config.mutation_scale
    trace: list[tuple[int, float, float]] = []
    n_children = config.population - config.elite_count
    n_cross = int(round(config.crossover_rate * n_children))
    n_mut = n_children - n_cross

    for gen in range(config.generations):
        trace.append((gen, best_fit, float(fits.mean())))
        weights = rank_scaled_values(fits)
        parent_idx = select_stochastic_uniform(weights, 2 * n_cross + n_mut, rng)
        rng.shuffle(parent_idx)

        elite_order = np.argsort(fits, kind="stable")[: config.elite_count]
        new_pop = np.empty_like(pop)
        new_pop[: config.elite_count] = pop[elite_order]
        pos = config.elite_count
        new_pop[pos:pos + n_cross] = crossover_arithmetic(
            pop[parent_idx[0:2 * n_cross:2]], pop[parent_idx[1:2 * n_cross:2]])
        pos += n_cross
        for mgene in range(n_mut):
            src = pop[parent_idx[2 * n_cross + mgene]]
            new_pop[pos] = mutate_adaptive_feasible(
                src, sigma, layout.lower, layout.upper, rng
            )
            pos += 1

        pop = new_pop
        fits = _population_fitness(layout, pop, scen, p_asset, p_fwd)

        gen_best = int(np.argmin(fits))
        improved = fits[gen_best] < best_fit
        if improved:
            best_fit = float(fits[gen_best])
            best_genes = pop[gen_best].copy()
        sigma = max(
            config.mutation_floor,
            sigma * (config.mutation_grow if improved else config.mutation_shrink),
        )

    best_sol = decode(layout, best_genes)
    best_eval = model.evaluate(inst, best_sol, scen, p_asset, p_fwd)
    return GAResult(solution=best_sol, evaluation=best_eval,
                    fitness=best_fit, cvar=best_eval.cvar,
                    trace=tuple(trace), config=config)
