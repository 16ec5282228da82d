"""The three workloads, the recorder of their operations, and the checks
that map back onto those operations.

A pass is one whole run of a workload through the functions the CLI
commands call. An operation is one call to `scenarios.generate` or to
`ga.run`; the recorder wraps those two module attributes, so it sees
the calls that `harness.frontier` and `scenarios.stability_report` make
as well as the benchmark's own, and it sees a raise even where those
sweeps turn it into an `infeasible` row or a `failures` entry.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from vinefolio import ga, harness, model, scenarios

import checks

# frontier: the paper's RVC-versus-MVN frontier in no-recourse mode.
FRONTIER_N = 1000
FRONTIER_MUS = (0.0, 0.003, 0.006, 0.5)
UNREACHABLE_MU = 0.5
FRONTIER_GA = dict(population=40, generations=9, elite_count=2,
                   recourse_mode="no-recourse-trades")

# recourse: full recourse mode, as `vinefolio optimize` runs it.
RECOURSE_N = 200
RECOURSE_MUS = (0.002, 0.004)
RECOURSE_GA = dict(population=40, generations=70, elite_count=2,
                   recourse_mode="full")

# stability: the scenario-stability study on the wide panel.
STABILITY_SIZES = (500, 1000, 2000)
STABILITY_SEEDS_PER_SIZE = 1
STABILITY_MU = 0.0
STABILITY_GA = dict(population=24, generations=8, elite_count=2,
                    recourse_mode="no-recourse-trades")


# Passes timed in every run; later passes that fit in the run are checked
# but not timed, so `run_s` is taken over the same passes and seeds
# however fast the program is.
MEASURED_PASSES = {"frontier": 3, "recourse": 3, "stability": 2}


def pass_seed(seed: int, index: int) -> int:
    """Scenario and GA seed of pass `index` of a run with `--seed seed`."""
    return 1000 * seed + index


@dataclass
class Op:
    kind: str                        # "generate" or "solve"
    args: tuple
    result: object = None
    error: str | None = None
    seconds: float = 0.0
    problems: list[str] = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return self.error is not None or bool(self.problems)


class Recorder:
    """Records every call to `ga.run` and `scenarios.generate`."""

    def __init__(self):
        self.ops: list[Op] = []

    def install(self, patches) -> None:
        """Wrap both attributes through a `tracer.Patches`."""
        for module, name, kind in ((ga, "run", "solve"),
                                   (scenarios, "generate", "generate")):
            patches.replace(module, name, lambda fn, kind=kind: self._wrap(kind, fn))

    def _wrap(self, kind, fn):
        def recorded(*args, **kwargs):
            op = Op(kind, args)
            self.ops.append(op)
            start = time.perf_counter()
            try:
                op.result = fn(*args, **kwargs)
                return op.result
            except Exception as exc:
                op.error = repr(exc)
                raise
            finally:
                op.seconds = time.perf_counter() - start
        return recorded


def ga_config(params: dict, seed: int) -> ga.GAConfig:
    return ga.GAConfig(seed=seed, **params)


def evals_of(op: Op) -> int:
    cfg = op.args[2]
    return cfg.population * (cfg.generations + 1)


# ---------------------------------------------------------------------------
# Passes: only package calls, so a pass's wall time is the workload's
# time from its first call into the package until its last return.
# ---------------------------------------------------------------------------


def frontier_pass(panel, inst, seed):
    cfg = ga_config(FRONTIER_GA, seed)
    return {
        method: harness.frontier(
            inst, scenarios.generate(panel, FRONTIER_N, method, seed=seed),
            FRONTIER_MUS, cfg)
        for method in ("rvc", "mvn")
    }


def recourse_pass(panel, inst, seed):
    scen = scenarios.generate(panel, RECOURSE_N, "rvc", seed=seed)
    cfg = ga_config(RECOURSE_GA, seed)
    return [ga.run(model.with_return_target(inst, mu), scen, cfg)
            for mu in RECOURSE_MUS]


def stability_pass(panel, inst, seed):
    seeds = tuple(STABILITY_SEEDS_PER_SIZE * seed + i
                  for i in range(STABILITY_SEEDS_PER_SIZE))
    return scenarios.stability_report(
        panel, STABILITY_SIZES, "rvc", inst, ga_config(STABILITY_GA, seed),
        mu_targets=(STABILITY_MU,), seeds=seeds)


PASSES = {"frontier": frontier_pass, "recourse": recourse_pass,
          "stability": stability_pass}


# ---------------------------------------------------------------------------
# Checks of one pass: per-operation problems go onto the operation, and
# problems of the pass as a whole are returned.
# ---------------------------------------------------------------------------


def check_pass(workload: str, panel, output, ops: list[Op]) -> list[str]:
    """`output` is None when the pass raised; that is a problem of the
    pass only if no operation of it raised."""
    for op in ops:
        if op.error is not None:
            continue
        if op.kind == "generate":
            method = op.args[2]
            check = checks.check_rvc if method == "rvc" else checks.check_mvn
            op.problems += check(panel, op.result)
        else:
            op.problems += checks.check_solve(op.args[0], op.args[1], op.result)
    if output is None:
        if any(op.error is not None for op in ops):
            return []
        return ["pass raised outside any operation"]
    solves = [op for op in ops if op.kind == "solve"]
    if workload == "frontier":
        return _check_frontier(output, ops)
    if workload == "recourse":
        expected = len(RECOURSE_MUS)
        if len(solves) != expected:
            return [f"{len(solves)} solves for {expected} targets"]
        return []
    return _check_stability(output, solves)


def _check_frontier(output, ops: list[Op]) -> list[str]:
    problems = []
    for gen in (op for op in ops if op.kind == "generate"):
        points = output[gen.args[2]]
        solves = [op for op in ops
                  if op.kind == "solve" and op.args[1] is gen.result]
        if len(points) != len(FRONTIER_MUS) or len(solves) != len(points):
            problems.append(f"{len(points)} rows, {len(solves)} solves "
                            f"for {len(FRONTIER_MUS)} targets")
            continue
        for point, mu, op in zip(points, FRONTIER_MUS, solves):
            if point.mu != mu:
                problems.append(f"row for mu={point.mu} where {mu} was asked")
            elif op.error is not None:
                if point.status == "solved":
                    problems.append(f"mu={mu}: raised but marked solved")
            else:
                op.problems += checks.check_row(
                    point, op.args[0], gen.result, op.result, UNREACHABLE_MU)
    return problems


def _check_stability(rows, solves: list[Op]) -> list[str]:
    if [r["size"] for r in rows] != list(STABILITY_SIZES):
        return [f"rows for sizes {[r['size'] for r in rows]}"]
    problems = []
    for row in rows:
        mine = [op for op in solves if op.args[1].n_scenarios == row["size"]]
        cvars = [op.result.cvar for op in mine if op.error is None]
        if row["n_solved"] != len(cvars) or row["n_failed"] != len(mine) - len(cvars):
            problems.append(f"size {row['size']}: counts do not match its solves")
        elif cvars and not (checks.close(row["min"], min(cvars))
                            and checks.close(row["max"], max(cvars))):
            problems.append(f"size {row['size']}: cvar range does not match its solves")
    return problems
