"""Command-line interface.

Every command reads a JSON config file, writes its outputs under
`--out`, and drops a `manifest.json` capturing the seed and parameters
so a run can be reproduced byte-for-byte; `fit-vine` and `optimize`
print where their time went to standard error. Exit codes: 0 success,
1 input/validation failure, 2 unexpected runtime failure.
"""

from __future__ import annotations

import csv
import json
import sys
import time
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


def _load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")
    return doc


def _require(cfg: dict, key: str):
    if key not in cfg:
        raise ConfigError(f"config is missing required key {key!r}")
    return cfg[key]


def _load_adjusted_panel(cfg: dict, cfg_dir: Path) -> ReturnPanel:
    panel_path = cfg_dir / _require(cfg, "panel")
    base = _require(cfg, "base")
    asset_currency = cfg.get("asset_currency", {})
    panel = harness.load_panel(str(panel_path), asset_currency, base)
    return adjust_returns(panel)


def _load_instance(cfg: dict, cfg_dir: Path) -> model.Instance:
    return model.load_instance(str(cfg_dir / _require(cfg, "instance")))


def _ga_config(cfg: dict, seed: int) -> ga.GAConfig:
    def number(key, kind, default):
        value = cfg.get(key, default)
        try:
            return kind(value)
        except (TypeError, ValueError):
            raise ConfigError(f"config key {key!r} must be a number, got {value!r}") from None

    return ga.GAConfig(
        population=number("population", int, 200),
        generations=number("generations", int, 200),
        crossover_rate=number("crossover_rate", float, 0.8),
        elite_count=number("elite_count", int, 1),
        seed=seed,
        recourse_mode=cfg.get("recourse_mode", "full"),
    )


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


def _write_scenario_csv(scen: ScenarioSet, path: Path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["scenario_id", *scen.columns])
        for r in range(scen.n_scenarios):
            writer.writerow([r, *[repr(float(v)) for v in scen.values[r]]])


def _read_scenario_csv(path: Path) -> ScenarioSet:
    header, _, arr = harness.read_numeric_csv(path)
    if arr.shape[0] == 0:
        raise EmptyScenarios(f"{path}: no scenario rows")
    sidecar = path.with_suffix(".json")
    method, seed = "", None
    if sidecar.exists():
        meta = json.loads(sidecar.read_text())
        method, seed = meta.get("method", ""), meta.get("seed")
    return ScenarioSet(tuple(header[1:]), arr, np.full(arr.shape[0], 1.0 / arr.shape[0]),
                       method=method, seed=seed)


def _solution_to_dict(sol: model.Solution) -> dict:
    return {key: np.asarray(getattr(sol, key)).tolist() for key in model.STAGE_FIELDS}


def _solution_from_dict(doc: dict) -> model.Solution:
    return model.Solution(**{k: np.asarray(v, dtype=float) for k, v in doc.items()
                             if k in model.STAGE_FIELDS})


def _run(func):
    """Execute a command body with the documented exit-code policy."""
    try:
        func()
    except (VinefolioError, click.ClickException, OSError) as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(1)
    except Exception as exc:  # noqa: BLE001
        click.echo(f"unexpected failure: {exc!r}", err=True)
        sys.exit(2)


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
        return _timed(seconds, "load", _read_scenario_csv, cfg_dir / cfg["scenarios"])
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


@main.command("fit-vine")
@click.option("--config", "config_path", required=True, type=click.Path())
@click.option("--out", "out_dir", required=True, type=click.Path())
def fit_vine_cmd(config_path: str, out_dir: str) -> None:
    """Fit marginals and a vine copula to the configured panel."""
    def body():
        cfg = _load_config(config_path)
        cfg_dir = Path(config_path).resolve().parent
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        seconds: dict[str, float] = {}
        panel = _timed(seconds, "load", _load_adjusted_panel, cfg, cfg_dir)
        fitted = _timed(seconds, "fit", scenarios.fit_rvc, panel)
        if fitted.spec is None:
            raise FitFailure(f"need >= 2 live columns to fit a vine, got {len(fitted.live)}")
        spec = fitted.spec
        (out / "vine.json").write_text(rvine.to_json(spec) + "\n")
        (out / "vine_columns.json").write_text(
            json.dumps([fitted.columns[i] for i in fitted.live]) + "\n")
        _write_manifest(out, "fit-vine", None, {"config": cfg})
        click.echo(f"fitted {spec.dimension}-dimensional vine -> {out / 'vine.json'}")
        click.echo(json.dumps({"seconds": seconds}), err=True)
    _run(body)


@main.command("gen-scenarios")
@click.option("--config", "config_path", required=True, type=click.Path())
@click.option("--method", type=click.Choice(["rvc", "mvn"]), default="rvc")
@click.option("--n", "n_scenarios", type=int, default=1000)
@click.option("--seed", type=int, default=0)
@click.option("--out", "out_dir", required=True, type=click.Path())
def gen_scenarios_cmd(config_path: str, method: str, n_scenarios: int,
                      seed: int, out_dir: str) -> None:
    """Generate a scenario set from the configured panel."""
    def body():
        cfg = _load_config(config_path)
        cfg_dir = Path(config_path).resolve().parent
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        panel = _load_adjusted_panel(cfg, cfg_dir)
        scen = scenarios.generate(panel, n_scenarios, method, seed=seed)
        _write_scenario_csv(scen, out / "scenarios.csv")
        (out / "scenarios.json").write_text(json.dumps(
            {"method": method, "n": n_scenarios, "seed": seed}, indent=2) + "\n")
        _write_manifest(out, "gen-scenarios", seed,
                        {"config": cfg, "method": method, "n": n_scenarios})
        click.echo(f"wrote {n_scenarios} {method} scenarios -> {out / 'scenarios.csv'}")
    _run(body)


@main.command("optimize")
@click.option("--config", "config_path", required=True, type=click.Path())
@click.option("--mu", type=float, default=None, help="Return target override.")
@click.option("--method", type=click.Choice(["rvc", "mvn"]), default="rvc")
@click.option("--n", "n_scenarios", type=int, default=1000)
@click.option("--seed", type=int, default=0)
@click.option("--kc", type=int, default=None, help="Currency cardinality override.")
@click.option("--kg", type=int, default=None, help="Forward cardinality override.")
@click.option("--out", "out_dir", required=True, type=click.Path())
def optimize_cmd(config_path, mu, method, n_scenarios, seed, kc, kg, out_dir) -> None:
    """Solve the model once with the genetic algorithm."""
    def body():
        cfg = _load_config(config_path)
        cfg_dir = Path(config_path).resolve().parent
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        seconds: dict[str, float] = {}
        inst = _timed(seconds, "load", _load_instance, cfg, cfg_dir)
        if mu is not None:
            inst2 = model.with_return_target(inst, mu)
        else:
            inst2 = inst
        from dataclasses import replace
        if kc is not None:
            inst2 = replace(inst2, k_c=kc)
        if kg is not None:
            inst2 = replace(inst2, k_g=kg)
        scen = _scenarios_for(cfg, cfg_dir, method, n_scenarios, seed, seconds)
        result = _timed(seconds, "ga", ga.run, inst2, scen, _ga_config(cfg, seed))
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
        with open(out / "convergence.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["generation", "best_fitness", "mean_fitness"])
            for gen, best, mean in result.trace:
                writer.writerow([gen, repr(best), repr(mean)])
        _write_manifest(out, "optimize", seed, {
            "config": cfg, "mu": mu, "method": method, "n": n_scenarios,
            "kc": kc, "kg": kg,
        }, ga_evaluations=evals, ga_live_evaluations=result.live_evaluations)
        click.echo(f"cvar={ev.cvar:.6f} violation={ev.violation:.3g} "
                   f"-> {out / 'solution.json'}")
        # Wall times differ between reruns, so no file under --out holds them.
        click.echo(json.dumps({"seconds": seconds, "ga_evals_per_s": evals / seconds["ga"]}), err=True)
    _run(body)


@main.command("frontier")
@click.option("--config", "config_path", required=True, type=click.Path())
@click.option("--method", type=click.Choice(["rvc", "mvn"]), default="rvc")
@click.option("--n", "n_scenarios", type=int, default=1000)
@click.option("--seed", type=int, default=0)
@click.option("--kc", type=int, default=None)
@click.option("--kg", type=int, default=None)
@click.option("--out", "out_dir", required=True, type=click.Path())
def frontier_cmd(config_path, method, n_scenarios, seed, kc, kg, out_dir) -> None:
    """Sweep the configured return-target grid."""
    def body():
        cfg = _load_config(config_path)
        cfg_dir = Path(config_path).resolve().parent
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        inst = _load_instance(cfg, cfg_dir)
        from dataclasses import replace
        if kc is not None:
            inst_local = replace(inst, k_c=kc)
        else:
            inst_local = inst
        if kg is not None:
            inst_local = replace(inst_local, k_g=kg)
        mu_grid = [float(m) for m in _require(cfg, "mu_grid")]
        if not mu_grid:
            raise ConfigError("config key 'mu_grid' must be a non-empty list")
        scen = _scenarios_for(cfg, cfg_dir, method, n_scenarios, seed, {})
        points = harness.frontier(inst_local, scen, mu_grid, _ga_config(cfg, seed))
        with open(out / "frontier.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["mu", "achieved_return", "cvar", "equity_share",
                             "fx_exposure", "total_overlay", "status", "reason"])
            for p in points:
                writer.writerow([repr(p.mu), repr(p.achieved_return), repr(p.cvar),
                                 repr(p.equity_share), repr(p.fx_exposure),
                                 repr(p.total_overlay), p.status, p.reason])
        _write_manifest(out, "frontier", seed, {
            "config": cfg, "method": method, "n": n_scenarios,
            "kc": kc, "kg": kg,
        })
        solved = sum(1 for p in points if p.status == "solved")
        click.echo(f"{solved}/{len(points)} targets solved -> {out / 'frontier.csv'}")
    _run(body)


@main.command("backtest")
@click.option("--config", "config_path", required=True, type=click.Path())
@click.option("--out", "out_dir", required=True, type=click.Path())
def backtest_cmd(config_path: str, out_dir: str) -> None:
    """Buy-and-hold backtest of a saved first-stage solution."""
    def body():
        cfg = _load_config(config_path)
        cfg_dir = Path(config_path).resolve().parent
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        inst = _load_instance(cfg, cfg_dir)
        sol_doc = json.loads((cfg_dir / _require(cfg, "solution")).read_text())
        sol = _solution_from_dict(sol_doc.get("first_stage", sol_doc))
        oos_cfg = dict(cfg)
        oos_cfg["panel"] = _require(cfg, "oos_panel")
        panel = _load_adjusted_panel(oos_cfg, cfg_dir)
        report = harness.backtest(inst, sol, panel)
        with open(out / "backtest.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["period", "wealth", "return"])
            for period, w, r in zip(report.periods, report.wealth, report.returns):
                writer.writerow([period, repr(float(w)), repr(float(r))])
        (out / "backtest.json").write_text(json.dumps({
            "final_wealth": report.final_wealth,
            "mean_return": report.mean_return,
            "historical_cvar": report.historical_cvar,
            "return_to_cvar": report.return_to_cvar,
        }, indent=2, sort_keys=True) + "\n")
        _write_manifest(out, "backtest", None, {"config": cfg})
        click.echo(f"final wealth {report.final_wealth:.2f} -> {out / 'backtest.csv'}")
    _run(body)


@main.command("stability")
@click.option("--config", "config_path", required=True, type=click.Path())
@click.option("--method", type=click.Choice(["rvc", "mvn"]), default="rvc")
@click.option("--seed", type=int, default=0)
@click.option("--out", "out_dir", required=True, type=click.Path())
def stability_cmd(config_path: str, method: str, seed: int, out_dir: str) -> None:
    """Optimal-CVaR stability across scenario-set sizes."""
    def body():
        cfg = _load_config(config_path)
        cfg_dir = Path(config_path).resolve().parent
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        inst = _load_instance(cfg, cfg_dir)
        panel = _load_adjusted_panel(cfg, cfg_dir)
        sizes = [int(s) for s in _require(cfg, "sizes")]
        mu_targets = [float(m) for m in _require(cfg, "mu_grid")]
        seeds = [int(s) for s in cfg.get("stability_seeds", [seed])]
        rows = scenarios.stability_report(
            panel, sizes, method, inst, _ga_config(cfg, seed), mu_targets, seeds
        )
        with open(out / "stability.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["size", "n_solved", "n_failed", "average",
                             "std", "range", "min", "max", "failures"])
            for row in rows:
                failures = "; ".join(f"seed={s} mu={mu!r}: {reason}"
                                     for s, mu, reason in row["failures"])
                writer.writerow([row["size"], row["n_solved"], row["n_failed"],
                                 repr(row["average"]), repr(row["std"]),
                                 repr(row["range"]), repr(row["min"]), repr(row["max"]),
                                 failures])
        _write_manifest(out, "stability", seed, {
            "config": cfg, "method": method, "sizes": sizes, "seeds": seeds,
        })
        click.echo(f"stability table -> {out / 'stability.csv'}")
    _run(body)


if __name__ == "__main__":
    main()
