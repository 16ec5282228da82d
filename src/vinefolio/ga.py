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
from .errors import InvalidConfig, LengthMismatch
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

    def __post_init__(self):
        if self.population < 2 or self.generations < 1:
            raise InvalidConfig("need population >= 2 and generations >= 1")
        if not 0.0 < self.crossover_rate < 1.0:
            raise InvalidConfig("crossover rate must be in (0,1)")
        if not 1 <= self.elite_count < self.population:
            raise InvalidConfig("elite count must be in [1, population)")
        if self.recourse_mode not in ("full", "no-recourse-trades"):
            raise InvalidConfig(f"unknown recourse mode {self.recourse_mode!r}")


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
    """Per-gene (lower, upper, binary flag) for one stage block: trade caps
    on b and s, 1 on the x, y and z flags."""
    cap_a = 2.0 * inst.w0 / np.maximum(inst.p0_asset, 1e-12)
    cap_f = 2.0 * inst.w0 / np.maximum(inst.p0_forward, 1e-12)
    binary = np.repeat([False, False, True, True] * 2 + [True], model.stage_sizes(inst))
    upper = np.ones(binary.size)
    upper[~binary] = np.concatenate([cap_a, cap_a, cap_f, cap_f])
    return np.zeros_like(upper), upper, binary


def build_layout(inst: Instance, n_scenarios: int, recourse_mode: str) -> ChromosomeLayout:
    reps = n_scenarios + 1 if recourse_mode == "full" else 1
    lo, hi, binary = (np.tile(v, reps) for v in _stage_bounds(inst))
    return ChromosomeLayout(instance=inst, n_scenarios=n_scenarios,
                            recourse_mode=recourse_mode,
                            lower=lo, upper=hi, is_binary=binary)


def _split_stage(inst: Instance, genes: np.ndarray):
    """The stage's nine gene blocks, split along the first axis."""
    return np.split(genes, np.cumsum(model.stage_sizes(inst)[:-1]))


def stage_length(inst: Instance) -> int:
    return sum(model.stage_sizes(inst))


def _decode_stage(inst: Instance, genes: np.ndarray) -> dict[str, np.ndarray]:
    """Fields of one stage from its genes, (stage_length, ...batch); each is
    a (...batch, k) view whose gene axis is outermost in memory."""
    b_a, s_a, xg_a, yg_a, b_f, s_f, xg_f, yg_f, zg = _split_stage(inst, genes)
    x_a, y_a, x_f, y_f, z = ((g > 0.5).astype(float) for g in (xg_a, yg_a, xg_f, yg_f, zg))
    values = (np.maximum(b_a, 0.0) * x_a, np.maximum(s_a, 0.0) * y_a, x_a, y_a,
              np.maximum(b_f, 0.0) * x_f, np.maximum(s_f, 0.0) * y_f, x_f, y_f, z)
    return {f: model._first_last(v) for f, v in zip(model.STAGE_FIELDS, values)}


def decode(layout: ChromosomeLayout, genes: np.ndarray) -> Solution:
    """Genes -> Solution; binaries thresholded, trades zeroed when the
    matching flag is off (keeps the pair consistent).

    Leading axes of `genes` carry over to every field, so a (P, L)
    population decodes to one Solution with a leading P axis. Full-mode
    recourse genes are copied once into (stage_length, ...batch, N) memory.
    """
    inst = layout.instance
    sl = stage_length(inst)
    first = _decode_stage(inst, model._last_first(genes[..., :sl]))
    if layout.recourse_mode != "full":
        return Solution(**first)
    rec = genes[..., sl:].reshape(genes.shape[:-1] + (layout.n_scenarios, sl))
    rec = np.ascontiguousarray(model._last_first(rec))
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


def crossover_arithmetic(parent_a: np.ndarray, parent_b: np.ndarray,
                         out: np.ndarray | None = None) -> np.ndarray:
    """The parents' mean, written into `out` when given."""
    if parent_a.shape != parent_b.shape:
        raise LengthMismatch(f"{parent_a.shape} vs {parent_b.shape}")
    return np.multiply(np.add(parent_a, parent_b, out=out), 0.5, out=out)


# The mutation step starts at the scale, grows after a generation that
# improves on the best point, shrinks after one that does not, and never
# falls below the floor.
_MUTATION_SCALE, _MUTATION_GROW, _MUTATION_SHRINK, _MUTATION_FLOOR = 0.05, 1.1, 0.7, 1e-6


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
    live_evaluations: int      # evaluated individuals with a recourse flag on


def _initial_population(layout: ChromosomeLayout, config: GAConfig,
                        rng: np.random.Generator) -> np.ndarray:
    """Random-weighted portfolios: buys split the initial cash across
    assets; binaries fair coin flips; recourse trades start at zero."""
    inst = layout.instance
    na = inst.n_assets
    flags = np.flatnonzero(layout.is_binary[:stage_length(inst)])
    # Row p holds individual p's weight draws, then its first-stage flag draws.
    draws = rng.random((config.population, na + flags.size))
    w = draws[:, :na]
    pop = np.zeros((config.population, layout.length))
    pop[:, 0:na] = w / w.sum(axis=1, keepdims=True) * inst.h0 / inst.p0_asset  # b_asset
    pop[:, flags] = draws[:, na:] < 0.5
    return np.clip(pop, layout.lower, layout.upper)


# Rows are scored in equal passes of at least three rows, so that no pass
# is one row, whose BLAS products round differently, unless a generation
# has one row of its kind. A pass stays under an element budget: rows x L
# genes for live rows, L being the stage length times N + 1, and rows x N
# for held rows, whose second stage works on (rows, N) planes. Each budget
# was the fastest timed (2-core x86, BLAS on one thread); one budget does
# not fit both kinds of row.
# - Live, every row decoded (P = 40, N = 200, L = 5226), ms per call:
#   2^15 5.7, 2^16 4.0-4.5, 2^17 3.1-3.3, 2^18 3.7-4.1, 2^19 3.7-4.2.
# - Held, GA seconds per `frontier` | `stability` benchmark pass
#   (P = 40, N = 1000 | P = 24, N = 500-2000): the whole population in one
#   pass 0.331 | 0.092, 2^14 0.207 | 0.066, 2^15 0.201 | 0.058, 2^16
#   0.261 | 0.056. A `frontier` pass took 5 400 minor page faults at 2^14
#   and 2^15, 59 000 at 2^16 and 77 000 in one pass.
_CHUNK_ELEMENTS, _HOLD_ELEMENTS = 1 << 17, 1 << 15


def _population_fitness(layout: ChromosomeLayout, pop: np.ndarray,
                        scen: ScenarioSet, p_asset: np.ndarray,
                        p_fwd: np.ndarray) -> tuple[np.ndarray, int]:
    """Fitness of every row of `pop`, and the number of live rows.

    A row is live when any of its recourse flag genes is above 0.5, which
    only a full-mode row has. The other rows, held ones, make no recourse
    trade: they are decoded for the first stage only and scored by
    `model._hold`, in equal passes under `_HOLD_ELEMENTS`. Live rows are
    decoded in full and scored by `model._trade`, under `_CHUNK_ELEMENTS`.
    """
    inst = layout.instance
    sl = stage_length(inst)
    live = pop[:, sl:] > 0.5
    live &= layout.is_binary[sl:]      # in place: one (P, L) mask at a time, not two
    live = live.any(axis=1)
    fits = np.empty(len(pop))
    for rows, width, budget, sols in (
            (np.flatnonzero(~live), layout.n_scenarios, _HOLD_ELEMENTS,
             lambda at: Solution(**_decode_stage(inst, model._last_first(pop[at, :sl])))),
            (np.flatnonzero(live), layout.length, _CHUNK_ELEMENTS,
             lambda at: decode(layout, pop[at]))):
        passes = -(-len(rows) // max(3, budget // width))
        for k in range(passes):
            at = rows[len(rows) * k // passes:len(rows) * (k + 1) // passes]
            fits[at] = model.population_fitness(inst, sols(at), scen, p_asset, p_fwd)
    return fits, int(live.sum())


def run(inst: Instance, scen: ScenarioSet, config: GAConfig) -> GAResult:
    """Evolve and return the best-ever decoded solution with its trace."""
    layout = build_layout(inst, scen.n_scenarios, config.recourse_mode)
    rng = np.random.default_rng(config.seed)
    p_asset, p_fwd = model.scenario_prices(inst, scen)

    pop = _initial_population(layout, config, rng)
    new_pop = np.empty_like(pop)     # filled each generation, then swapped with pop
    fits, live_evaluations = _population_fitness(layout, pop, scen, p_asset, p_fwd)
    best_idx = int(np.argmin(fits))
    best_genes = pop[best_idx].copy()
    best_fit = float(fits[best_idx])

    sigma = _MUTATION_SCALE
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
        new_pop[: config.elite_count] = pop[elite_order]
        pos = config.elite_count
        for i in range(n_cross):
            crossover_arithmetic(pop[parent_idx[2 * i]], pop[parent_idx[2 * i + 1]],
                                 out=new_pop[pos + i])
        for i, parent in enumerate(parent_idx[2 * n_cross:], pos + n_cross):
            new_pop[i] = mutate_adaptive_feasible(pop[parent], sigma, layout.lower,
                                                  layout.upper, rng)

        pop, new_pop = new_pop, pop
        fits, live = _population_fitness(layout, pop, scen, p_asset, p_fwd)
        live_evaluations += live

        gen_best = int(np.argmin(fits))
        improved = fits[gen_best] < best_fit
        if improved:
            best_fit = float(fits[gen_best])
            best_genes = pop[gen_best].copy()
        sigma = max(_MUTATION_FLOOR, sigma * (_MUTATION_GROW if improved else _MUTATION_SHRINK))

    best_sol = decode(layout, best_genes)
    best_eval = model.evaluate(inst, best_sol, scen, p_asset, p_fwd)
    return GAResult(solution=best_sol, evaluation=best_eval,
                    fitness=best_fit, cvar=best_eval.cvar,
                    trace=tuple(trace), config=config,
                    live_evaluations=live_evaluations)
