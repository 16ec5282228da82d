"""Command-line interface.

Each command is a function of (cfg, cfg_dir, out, **options) that
`_command` registers with `--config` and `--out`; it writes its outputs
under `--out` with a `manifest.json` of the seed and parameters, so a run
can be reproduced byte-for-byte. A missing or malformed config, instance,
solution or scenario file, or a config key of the wrong type, raises a
`ConfigError` naming the file or the key. Exit codes: 0 success, 1 any
`VinefolioError` or `OSError`, 2 unexpected runtime failure.
"""

from __future__ import annotations

import csv
import functools
import json
import sys
import time
from dataclasses import replace
from pathlib import Path

import click
import numpy as np
import scipy

from . import __version__, ga, harness, model, rvine, scenarios
from .errors import EmptyScenarios, FitFailure, VinefolioError
from .scenarios import ReturnPanel, ScenarioSet, adjust_returns


# ---------------------------------------------------------------------------
# Shared plumbing
# ---------------------------------------------------------------------------


class ConfigError(VinefolioError):
    pass


def _read_json(path: Path, what: str) -> dict:
    """The JSON object in the `what` file at `path`."""
    try:
        doc = json.loads(path.read_text())
    except FileNotFoundError:
        raise ConfigError(f"{what} file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{what} file {path} is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ConfigError(f"{what} file {path} must hold a JSON object")
    return doc


def _require(cfg: dict, key: str):
    if key not in cfg:
        raise ConfigError(f"config is missing required key {key!r}")
    return cfg[key]


def _path(cfg: dict, cfg_dir: Path, key: str) -> Path:
    """The file named by config key `key`, relative to the config's folder."""
    name = _require(cfg, key)
    if not isinstance(name, str):
        raise ConfigError(f"config key {key!r} must be a file name, got {name!r}")
    return cfg_dir / name


def _number(key: str, value, kind=float):
    try:
        return kind(value)
    except (TypeError, ValueError):
        raise ConfigError(f"config key {key!r} must be a number, got {value!r}") from None


def _numbers(cfg: dict, key: str, kind=float, default=None) -> list:
    """Config key `key`, required unless a `default` is given, as a
    non-empty list of `kind` numbers."""
    values = _require(cfg, key) if default is None else cfg.get(key, default)
    if not isinstance(values, list) or not values:
        raise ConfigError(f"config key {key!r} must be a non-empty list of numbers, "
                          f"got {values!r}")
    return [_number(f"{key}[{i}]", v, kind) for i, v in enumerate(values)]


def _load_adjusted_panel(cfg: dict, cfg_dir: Path, key: str = "panel") -> ReturnPanel:
    path, base = _path(cfg, cfg_dir, key), _require(cfg, "base")
    asset_currency = cfg.get("asset_currency", {})
    if not isinstance(base, str):
        raise ConfigError(f"config key 'base' must be a currency code, got {base!r}")
    if not (isinstance(asset_currency, dict)
            and all(isinstance(c, str) for c in asset_currency.values())):
        raise ConfigError("config key 'asset_currency' must map asset names to currency "
                          f"codes, got {asset_currency!r}")
    return adjust_returns(harness.load_panel(str(path), asset_currency, base))


def _load_instance(cfg: dict, cfg_dir: Path, mu=None) -> model.Instance:
    """The configured instance, at return target `mu` unless it is None."""
    path = _path(cfg, cfg_dir, "instance")
    try:
        inst = model.load_instance(str(path))
    except KeyError as exc:
        raise ConfigError(f"instance file {path} is missing key {exc}") from None
    except (AttributeError, TypeError, ValueError) as exc:   # ValueError: also bad JSON
        raise ConfigError(f"instance file {path}: {exc}") from None
    return inst if mu is None else replace(inst, mu=mu)


def _ga_config(cfg: dict, seed: int) -> ga.GAConfig:
    return ga.GAConfig(
        population=_number("population", cfg.get("population", 200), int),
        generations=_number("generations", cfg.get("generations", 200), int),
        crossover_rate=_number("crossover_rate", cfg.get("crossover_rate", 0.8)),
        elite_count=_number("elite_count", cfg.get("elite_count", 1), int),
        seed=seed,
        recourse_mode=cfg.get("recourse_mode", "full"),
    )


def _read_scenario_csv(path: Path) -> ScenarioSet:
    header, _, arr = harness.read_numeric_csv(path)
    if arr.shape[0] == 0:
        raise EmptyScenarios(f"{path}: no scenario rows")
    sidecar = path.with_suffix(".json")
    meta = _read_json(sidecar, "scenario sidecar") if sidecar.exists() else {}
    return ScenarioSet(tuple(header[1:]), arr, np.full(arr.shape[0], 1.0 / arr.shape[0]),
                       method=meta.get("method", ""), seed=meta.get("seed"))


def _solution_from_dict(inst: model.Instance, doc, path: Path) -> model.Solution:
    """First-stage decisions, each field holding the instance's count of numbers."""
    fields = {}
    for key, n in zip(model.STAGE_FIELDS, model.stage_sizes(inst)):
        try:
            fields[key] = np.asarray(doc[key], dtype=float)
        except (KeyError, TypeError, ValueError):
            raise ConfigError(f"solution file {path}: no list of numbers in {key!r}") from None
        if fields[key].shape != (n,) or not np.isfinite(fields[key]).all():
            raise ConfigError(f"solution file {path}: {key!r} must hold {n} finite numbers")
    return model.Solution(**fields)


def _write_manifest(out_dir: Path, command: str, seed: int | None, params: dict, **run) -> None:
    doc = {
        "command": command,
        "seed": seed,
        "parameters": params,
        "versions": {
            "vinefolio": __version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
        **run,
    }
    (out_dir / "manifest.json").write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _write_csv(path: Path, header: list, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _solution_to_dict(sol: model.Solution) -> dict:
    return {key: np.asarray(getattr(sol, key)).tolist() for key in model.STAGE_FIELDS}


def _timed(seconds: dict, stage: str, fn, *args, **kwargs):
    """fn(*args, **kwargs), adding its wall seconds to `seconds[stage]`."""
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    seconds[stage] = seconds.get(stage, 0.0) + time.perf_counter() - start
    return result


def _scenarios_for(cfg: dict, cfg_dir: Path, method: str, n: int, seed: int,
                   seconds: dict) -> ScenarioSet:
    """The scenario file, or a draw from the panel; adds stage times to `seconds`."""
    if "scenarios" in cfg:
        return _timed(seconds, "load", _read_scenario_csv, _path(cfg, cfg_dir, "scenarios"))
    panel = _timed(seconds, "load", _load_adjusted_panel, cfg, cfg_dir)
    fitted = _timed(seconds, "fit", scenarios.fit_rvc, panel) if method == "rvc" else None
    return _timed(seconds, "sample", scenarios.generate, panel, n, method, seed, fitted=fitted)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


@click.group()
@click.version_option(version=__version__)
def main() -> None:
    """Scenario generation and stochastic portfolio optimization toolkit."""


_CONFIG = click.option("--config", "config_path", required=True, type=click.Path())
_OUT = click.option("--out", "out_dir", required=True, type=click.Path())
_METHOD = click.option("--method", type=click.Choice(["rvc", "mvn"]), default="rvc")
_N = click.option("--n", "n_scenarios", type=int, default=1000)
_SEED = click.option("--seed", type=int, default=0)


def _command(name: str, *options):
    """Register `func(cfg, cfg_dir, out, **options)` as command `name`,
    taking --config, then `options`, then --out. An input error exits 1
    and any other exception 2, each with one line on standard error."""
    def register(func):
        @functools.wraps(func)
        def command(config_path: str, out_dir: str, **kwargs) -> None:
            try:
                cfg = _read_json(Path(config_path), "config")
                out = Path(out_dir)
                out.mkdir(parents=True, exist_ok=True)
                func(cfg, Path(config_path).resolve().parent, out, **kwargs)
            except (VinefolioError, click.ClickException, OSError) as exc:
                click.echo(f"error: {exc}", err=True)
                sys.exit(1)
            except Exception as exc:  # noqa: BLE001
                click.echo(f"unexpected failure: {exc!r}", err=True)
                sys.exit(2)
        for option in reversed((_CONFIG, *options, _OUT)):
            command = option(command)
        return main.command(name)(command)
    return register


@_command("fit-vine")
def fit_vine_cmd(cfg, cfg_dir, out) -> None:
    """Fit marginals and a vine copula to the configured panel."""
    seconds: dict[str, float] = {}
    panel = _timed(seconds, "load", _load_adjusted_panel, cfg, cfg_dir)
    fitted = _timed(seconds, "fit", scenarios.fit_rvc, panel)
    if fitted.spec is None:
        raise FitFailure(f"need >= 2 live columns to fit a vine, got {len(fitted.live)}")
    (out / "vine.json").write_text(rvine.to_json(fitted.spec) + "\n")
    (out / "vine_columns.json").write_text(
        json.dumps([fitted.columns[i] for i in fitted.live]) + "\n")
    _write_manifest(out, "fit-vine", None, {"config": cfg})
    click.echo(f"fitted {fitted.spec.dimension}-dimensional vine -> {out / 'vine.json'}")
    click.echo(json.dumps({"seconds": seconds}), err=True)


@_command("gen-scenarios", _METHOD, _N, _SEED)
def gen_scenarios_cmd(cfg, cfg_dir, out, method, n_scenarios, seed) -> None:
    """Generate a scenario set from the configured panel."""
    scen = scenarios.generate(_load_adjusted_panel(cfg, cfg_dir), n_scenarios, method, seed=seed)
    _write_csv(out / "scenarios.csv", ["scenario_id", *scen.columns],
               ([r, *(repr(float(v)) for v in row)] for r, row in enumerate(scen.values)))
    (out / "scenarios.json").write_text(json.dumps(
        {"method": method, "n": n_scenarios, "seed": seed}, indent=2) + "\n")
    _write_manifest(out, "gen-scenarios", seed,
                    {"config": cfg, "method": method, "n": n_scenarios})
    click.echo(f"wrote {n_scenarios} {method} scenarios -> {out / 'scenarios.csv'}")


@_command("optimize", click.option("--mu", type=float, default=None,
                                   help="Return target override."),
          _METHOD, _N, _SEED)
def optimize_cmd(cfg, cfg_dir, out, mu, method, n_scenarios, seed) -> None:
    """Solve the model once with the genetic algorithm."""
    seconds: dict[str, float] = {}
    inst = _timed(seconds, "load", _load_instance, cfg, cfg_dir, mu)
    scen = _scenarios_for(cfg, cfg_dir, method, n_scenarios, seed, seconds)
    result = _timed(seconds, "ga", ga.run, inst, scen, _ga_config(cfg, seed))
    evals = result.config.population * (result.config.generations + 1)
    ev = result.evaluation
    (out / "solution.json").write_text(json.dumps({
        "fitness": result.fitness,
        "cvar": ev.cvar,
        "alpha": ev.alpha,
        "expected_return": ev.expected_return,
        "violation": ev.violation,
        "residuals": ev.residuals,
        "first_stage": _solution_to_dict(result.solution),
    }, indent=2, sort_keys=True) + "\n")
    _write_csv(out / "convergence.csv", ["generation", "best_fitness", "mean_fitness"],
               ([gen, repr(best), repr(mean)] for gen, best, mean in result.trace))
    _write_manifest(out, "optimize", seed, {
        "config": cfg, "mu": mu, "method": method, "n": n_scenarios,
    }, ga_evaluations=evals, ga_live_evaluations=result.live_evaluations)
    click.echo(f"cvar={ev.cvar:.6f} violation={ev.violation:.3g} -> {out / 'solution.json'}")
    # Wall times differ between reruns, so no file under --out holds them.
    click.echo(json.dumps({"seconds": seconds, "ga_evals_per_s": evals / seconds["ga"]}), err=True)


@_command("frontier", _METHOD, _N, _SEED)
def frontier_cmd(cfg, cfg_dir, out, method, n_scenarios, seed) -> None:
    """Sweep the configured return-target grid."""
    inst = _load_instance(cfg, cfg_dir)
    mu_grid = _numbers(cfg, "mu_grid")
    scen = _scenarios_for(cfg, cfg_dir, method, n_scenarios, seed, {})
    points = harness.frontier(inst, scen, mu_grid, _ga_config(cfg, seed))
    _write_csv(out / "frontier.csv", ["mu", "achieved_return", "cvar", "equity_share",
                                      "fx_exposure", "total_overlay", "status", "reason"],
               ([repr(p.mu), repr(p.achieved_return), repr(p.cvar), repr(p.equity_share),
                 repr(p.fx_exposure), repr(p.total_overlay), p.status, p.reason]
                for p in points))
    _write_manifest(out, "frontier", seed, {"config": cfg, "method": method, "n": n_scenarios})
    solved = sum(1 for p in points if p.status == "solved")
    click.echo(f"{solved}/{len(points)} targets solved -> {out / 'frontier.csv'}")


@_command("backtest")
def backtest_cmd(cfg, cfg_dir, out) -> None:
    """Buy-and-hold backtest of a saved first-stage solution."""
    inst = _load_instance(cfg, cfg_dir)
    path = _path(cfg, cfg_dir, "solution")
    sol_doc = _read_json(path, "solution")
    sol = _solution_from_dict(inst, sol_doc.get("first_stage", sol_doc), path)
    report = harness.backtest(inst, sol, _load_adjusted_panel(cfg, cfg_dir, "oos_panel"))
    _write_csv(out / "backtest.csv", ["period", "wealth", "return"],
               ([period, repr(float(w)), repr(float(r))]
                for period, w, r in zip(report.periods, report.wealth, report.returns)))
    (out / "backtest.json").write_text(json.dumps({
        "final_wealth": report.final_wealth,
        "mean_return": report.mean_return,
        "historical_cvar": report.historical_cvar,
        "return_to_cvar": report.return_to_cvar,
    }, indent=2, sort_keys=True) + "\n")
    _write_manifest(out, "backtest", None, {"config": cfg})
    click.echo(f"final wealth {report.final_wealth:.2f} -> {out / 'backtest.csv'}")


@_command("stability", _METHOD, _SEED)
def stability_cmd(cfg, cfg_dir, out, method, seed) -> None:
    """Optimal-CVaR stability across scenario-set sizes."""
    inst = _load_instance(cfg, cfg_dir)
    panel = _load_adjusted_panel(cfg, cfg_dir)
    sizes = _numbers(cfg, "sizes", int)
    mu_targets = _numbers(cfg, "mu_grid")
    seeds = _numbers(cfg, "stability_seeds", int, default=[seed])
    rows = scenarios.stability_report(
        panel, sizes, method, inst, _ga_config(cfg, seed), mu_targets, seeds
    )
    _write_csv(out / "stability.csv", ["size", "n_solved", "n_failed", "average",
                                       "std", "range", "min", "max", "failures"],
               ([row["size"], row["n_solved"], row["n_failed"], repr(row["average"]),
                 repr(row["std"]), repr(row["range"]), repr(row["min"]), repr(row["max"]),
                 "; ".join(f"seed={s} mu={mu!r}: {reason}" for s, mu, reason in row["failures"])]
                for row in rows))
    _write_manifest(out, "stability", seed, {
        "config": cfg, "method": method, "sizes": sizes, "seeds": seeds,
    })
    click.echo(f"stability table -> {out / 'stability.csv'}")


if __name__ == "__main__":
    main()
