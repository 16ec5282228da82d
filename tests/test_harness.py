import csv
import json

import numpy as np
import pytest
from click.testing import CliRunner

from vinefolio import cli, ga, harness, model, rvine, scenarios
from vinefolio.bicop import ALL_FAMILIES
from vinefolio.errors import FitFailure, MissingColumn, NonNumericCell, ParseError
from vinefolio.ga import GAConfig
from vinefolio.marginals import effectively_constant, pit_transform
from vinefolio.model import Instance, Solution, save_instance, zero_solution
from vinefolio.scenarios import ReturnPanel, ScenarioSet, adjust_returns


# ---------------------------------------------------------------------------
# Panel loading
# ---------------------------------------------------------------------------


def _write_panel(path, rows):
    path.write_text("\n".join(rows) + "\n")
    return str(path)


GOOD_ROWS = [
    "period,EQ_US,EQ_UK,GBP,rate.USD,rate.GBP",
    "2020-01,0.02,0.01,0.005,0.001,0.002",
    "2020-02,-0.01,0.03,-0.002,0.001,0.002",
    "2020-03,0.015,-0.02,0.004,0.001,0.002",
]

ASSET_CCY = {"EQ_US": "USD", "EQ_UK": "GBP"}


def test_load_panel_well_formed(tmp_path):
    path = _write_panel(tmp_path / "panel.csv", GOOD_ROWS)
    panel = harness.load_panel(path, ASSET_CCY, "USD")
    assert panel.periods == ("2020-01", "2020-02", "2020-03")
    assert set(panel.assets) == {"EQ_US", "EQ_UK"}
    assert set(panel.currencies) == {"USD", "GBP"}
    # base return series absent from the file defaults to zero
    assert np.array_equal(panel.currencies["USD"], np.zeros(3))
    assert np.array_equal(panel.rates["GBP"], np.full(3, 0.002))
    assert panel.assets["EQ_UK"][1] == 0.03


def test_load_panel_blank_cell_reports_line(tmp_path):
    rows = list(GOOD_ROWS)
    rows += ["2020-0%d,0.01,0.01,0.0,0.001,0.002" % d for d in (4, 5)]
    rows.append("2020-06,0.01,,0.0,0.001,0.002")   # blank cell at line 7
    path = _write_panel(tmp_path / "panel.csv", rows)
    with pytest.raises(ParseError) as exc_info:
        harness.load_panel(path, ASSET_CCY, "USD")
    assert exc_info.value.line == 7


def test_load_panel_non_numeric_cell(tmp_path):
    rows = list(GOOD_ROWS)
    rows.append("2020-04,abc,0.01,0.0,0.001,0.002")
    path = _write_panel(tmp_path / "panel.csv", rows)
    with pytest.raises(NonNumericCell) as exc_info:
        harness.load_panel(path, ASSET_CCY, "USD")
    assert exc_info.value.line == 5


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
def test_load_panel_non_finite_cell(tmp_path, cell):
    rows = list(GOOD_ROWS)
    rows.append(f"2020-04,0.01,{cell},0.0,0.001,0.002")
    path = _write_panel(tmp_path / "panel.csv", rows)
    with pytest.raises(NonNumericCell) as exc_info:
        harness.load_panel(path, ASSET_CCY, "USD")
    assert exc_info.value.line == 5


def test_load_panel_ragged_row(tmp_path):
    rows = list(GOOD_ROWS)
    rows.append("2020-04,0.01,0.01")
    path = _write_panel(tmp_path / "panel.csv", rows)
    with pytest.raises(ParseError) as exc_info:
        harness.load_panel(path, ASSET_CCY, "USD")
    assert exc_info.value.line == 5


def test_load_panel_unassigned_asset(tmp_path):
    path = _write_panel(tmp_path / "panel.csv", GOOD_ROWS)
    with pytest.raises(MissingColumn):
        harness.load_panel(path, {"EQ_US": "USD"}, "USD")


def test_load_panel_bad_header(tmp_path):
    path = _write_panel(tmp_path / "panel.csv", ["date,EQ_US", "2020-01,0.01"])
    with pytest.raises(ParseError) as exc_info:
        harness.load_panel(path, ASSET_CCY, "USD")
    assert exc_info.value.line == 1


# ---------------------------------------------------------------------------
# Frontier
# ---------------------------------------------------------------------------


def _frontier_instance(mu=0.0):
    return Instance(
        assets=("A1", "A2"),
        asset_currency=("USD", "USD"),
        currencies=("USD",),
        base="USD",
        forward_pairs=(),
        mu=mu, beta=0.9,
        a_min=np.zeros(2), a_max=np.full(2, np.inf),
        c_min=np.full(1, -np.inf), c_max=np.full(1, np.inf),
        t_min_asset=np.zeros(2), t_min_forward=np.zeros(0),
        v_u=1.0, k_c=1, k_g=0, margin_rate=0.0, big_b=1e6,
        h0=100.0, a0=np.zeros(2), q0=np.zeros(0), w0=100.0,
        fixed_buy_asset=np.zeros(2), fixed_sell_asset=np.zeros(2),
        var_buy_asset=np.zeros(2), var_sell_asset=np.zeros(2),
        fixed_buy_forward=np.zeros(0), fixed_sell_forward=np.zeros(0),
        var_buy_forward=np.zeros(0), var_sell_forward=np.zeros(0),
        p0_asset=np.array([10.0, 25.0]), p0_forward=np.zeros(0),
    )


def _frontier_scenarios(n=20, seed=0):
    rng = np.random.default_rng(seed)
    vals = np.column_stack([
        rng.normal(0.01, 0.02, n),
        rng.normal(0.008, 0.01, n),
        np.zeros(n),
    ])
    return ScenarioSet(("A1", "A2", "USD"), vals, np.full(n, 1.0 / n))


def test_frontier_statuses():
    inst = _frontier_instance()
    scen = _frontier_scenarios()
    cfg = GAConfig(population=30, generations=30, seed=3,
                   recourse_mode="no-recourse-trades")
    points = harness.frontier(inst, scen, [0.0], cfg)
    assert points[0].mu == 0.0
    assert points[0].status == "solved"
    assert points[0].reason == ""
    assert points[0].achieved_return >= 0.0


def test_frontier_target_unreachable():
    # With loss-making assets no trade can buy expected return, so the
    # GA settles on cash and the target shortfall is the only residual.
    inst = _frontier_instance()
    rng = np.random.default_rng(1)
    n = 20
    vals = np.column_stack([
        rng.normal(-0.02, 0.01, n), rng.normal(-0.03, 0.01, n), np.zeros(n),
    ])
    scen = ScenarioSet(("A1", "A2", "USD"), vals, np.full(n, 1.0 / n))
    cfg = GAConfig(population=30, generations=30, seed=3,
                   recourse_mode="no-recourse-trades")
    points = harness.frontier(inst, scen, [0.05], cfg)
    assert points[0].status == "target-unreachable"
    assert points[0].reason.startswith("return_target=0.0")


def test_frontier_order_independent():
    inst = _frontier_instance()
    scen = _frontier_scenarios()
    cfg = GAConfig(population=20, generations=10, seed=5,
                   recourse_mode="no-recourse-trades")
    grid = [0.0, 0.004, 0.008]
    fwd = {p.mu: p for p in harness.frontier(inst, scen, grid, cfg)}
    rev = {p.mu: p for p in harness.frontier(inst, scen, grid[::-1], cfg)}
    for mu in grid:
        assert fwd[mu] == rev[mu]


def _raising(exc):
    def run(*args, **kwargs):
        raise exc
    return run


@pytest.mark.parametrize("sweep", ["frontier", "stability"])
def test_sweeps_record_package_errors_and_propagate_others(monkeypatch, sweep):
    inst = _frontier_instance()
    cfg = GAConfig(population=4, generations=1, seed=0,
                   recourse_mode="no-recourse-trades")
    panel = adjust_returns(_flat_rate_panel(np.random.default_rng(2).normal(0.0, 0.02, 30)))

    def run_sweep():
        if sweep == "frontier":
            return harness.frontier(inst, _frontier_scenarios(), [0.0], cfg)
        return scenarios.stability_report(panel, (10,), "rvc", inst, cfg, (0.0,))

    monkeypatch.setattr(ga, "run", _raising(RuntimeError("a bug")))
    with pytest.raises(RuntimeError, match="a bug"):
        run_sweep()
    monkeypatch.setattr(ga, "run", _raising(FitFailure("no fit")))
    (out,) = run_sweep()
    if sweep == "frontier":
        assert out.status == "infeasible"
        assert out.reason == "FitFailure('no fit')"
    else:
        assert out["n_failed"] == 1 and out["n_solved"] == 0
        assert out["failures"] == [(0, 0.0, "FitFailure('no fit')")]


# ---------------------------------------------------------------------------
# Backtest
# ---------------------------------------------------------------------------


def _flat_rate_panel(asset_returns):
    m = len(asset_returns)
    return ReturnPanel(
        periods=tuple(f"p{t}" for t in range(m)),
        assets={"A1": np.asarray(asset_returns, dtype=float),
                "A2": np.zeros(m)},
        asset_currency={"A1": "USD", "A2": "USD"},
        currencies={"USD": np.zeros(m)},
        rates={"USD": np.zeros(m)},
        base="USD",
    )


def _fully_invested_solution(inst):
    # hold w0/p units of A1 from the start, no trades
    return zero_solution(inst)


def test_backtest_all_cash_flat_100():
    inst = _frontier_instance()
    panel = _flat_rate_panel([0.05, -0.03, 0.02])
    report = harness.backtest(inst, zero_solution(inst), panel)
    assert np.array_equal(report.returns, np.zeros(3))
    assert np.array_equal(report.wealth, np.full(3, 100.0))
    assert report.final_wealth == 100.0
    assert report.return_to_cvar is None


def test_backtest_up_down_gives_99():
    inst = _frontier_instance()
    inst = model.Instance(**{**inst.__dict__, "a0": np.array([10.0, 0.0])})
    panel = _flat_rate_panel([0.10, -0.10])
    report = harness.backtest(inst, zero_solution(inst), panel)
    assert report.wealth == pytest.approx([110.0, 99.0], abs=1e-12)
    assert report.final_wealth == pytest.approx(99.0, abs=1e-12)


def test_backtest_period_count_and_log_identity():
    inst = _frontier_instance()
    inst = model.Instance(**{**inst.__dict__, "a0": np.array([5.0, 2.0])})
    rng = np.random.default_rng(0)
    panel = _flat_rate_panel(rng.normal(0.005, 0.02, 41))
    report = harness.backtest(inst, zero_solution(inst), panel)
    assert report.wealth.shape == (41,)
    assert np.log(report.final_wealth / 100.0) == pytest.approx(
        np.log1p(report.returns).sum(), abs=1e-12)


def test_backtest_historical_cvar():
    inst = _frontier_instance()
    inst = model.Instance(**{**inst.__dict__, "a0": np.array([10.0, 0.0])})
    returns = np.concatenate([np.full(95, 0.01), np.full(5, -0.04)])
    panel = _flat_rate_panel(returns)
    report = harness.backtest(inst, zero_solution(inst), panel)
    # the worst 5 of 100 periods are exactly the 5% tail
    assert report.historical_cvar == pytest.approx(0.04, abs=1e-12)
    assert report.return_to_cvar == pytest.approx(
        report.mean_return / 0.04, abs=1e-12)


@pytest.mark.parametrize("worst", [6, 10])
def test_backtest_historical_cvar_with_tied_worst_returns(worst):
    # More worst periods than the 5% tail holds: the 5% quantile equals the
    # worst return, so the tail is those returns, not an empty set below it.
    inst = _frontier_instance()
    inst = model.Instance(**{**inst.__dict__, "a0": np.array([10.0, 0.0])})
    returns = np.concatenate([np.full(100 - worst, 0.01), np.full(worst, -0.04)])
    report = harness.backtest(inst, zero_solution(inst), _flat_rate_panel(returns))
    assert report.historical_cvar == pytest.approx(0.04, abs=1e-12)
    assert report.return_to_cvar == pytest.approx(report.mean_return / 0.04, abs=1e-10)


def test_backtest_missing_column():
    inst = _frontier_instance()
    inst = model.Instance(**{**inst.__dict__, "assets": ("A1", "MISSING"),
                             "a0": np.array([1.0, 1.0])})
    panel = _flat_rate_panel([0.01, 0.02])
    with pytest.raises(MissingColumn):
        harness.backtest(inst, zero_solution(inst), panel)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def _cli_workspace(tmp_path, m=60, seed=2):
    rng = np.random.default_rng(seed)
    lines = ["period,EQ_US,EQ_UK,GBP,rate.USD,rate.GBP"]
    for t in range(m):
        lines.append(",".join([
            f"p{t}",
            repr(float(rng.normal(0.006, 0.04))),
            repr(float(rng.normal(0.004, 0.05))),
            repr(float(rng.normal(0.0, 0.02))),
            "0.001", "0.002",
        ]))
    (tmp_path / "panel.csv").write_text("\n".join(lines) + "\n")

    inst = Instance(
        assets=("EQ_US", "EQ_UK"),
        asset_currency=("USD", "GBP"),
        currencies=("USD", "GBP"),
        base="USD",
        forward_pairs=((1, 0),),
        mu=0.0, beta=0.9,
        a_min=np.zeros(2), a_max=np.full(2, np.inf),
        c_min=np.full(2, -np.inf), c_max=np.full(2, np.inf),
        t_min_asset=np.zeros(2), t_min_forward=np.zeros(1),
        v_u=0.5, k_c=2, k_g=1, margin_rate=0.05, big_b=1e5,
        h0=100.0, a0=np.zeros(2), q0=np.zeros(1), w0=100.0,
        fixed_buy_asset=np.zeros(2), fixed_sell_asset=np.zeros(2),
        var_buy_asset=np.full(2, 0.001), var_sell_asset=np.full(2, 0.001),
        fixed_buy_forward=np.zeros(1), fixed_sell_forward=np.zeros(1),
        var_buy_forward=np.full(1, 0.001), var_sell_forward=np.full(1, 0.001),
        p0_asset=np.array([10.0, 20.0]), p0_forward=np.array([5.0]),
    )
    save_instance(inst, str(tmp_path / "instance.json"))

    cfg = {
        "panel": "panel.csv",
        "base": "USD",
        "asset_currency": {"EQ_US": "USD", "EQ_UK": "GBP"},
        "instance": "instance.json",
        "population": 16,
        "generations": 5,
        "recourse_mode": "no-recourse-trades",
        "mu_grid": [0.0, 0.002],
        "sizes": [20, 30],
    }
    (tmp_path / "config.json").write_text(json.dumps(cfg, indent=2) + "\n")
    return tmp_path


def test_cli_gen_scenarios_byte_identical_reruns(tmp_path):
    ws = _cli_workspace(tmp_path)
    runner = CliRunner()
    args = lambda out: ["gen-scenarios", "--config", str(ws / "config.json"),
                        "--method", "rvc", "--n", "40", "--seed", "11",
                        "--out", str(ws / out)]
    r1 = runner.invoke(cli.main, args("out1"))
    r2 = runner.invoke(cli.main, args("out2"))
    assert r1.exit_code == 0, r1.output
    assert r2.exit_code == 0, r2.output
    for name in ("scenarios.csv", "scenarios.json", "manifest.json"):
        assert (ws / "out1" / name).read_bytes() == (ws / "out2" / name).read_bytes()


def test_cli_gen_scenarios_round_trips_through_reader(tmp_path):
    ws = _cli_workspace(tmp_path)
    runner = CliRunner()
    r = runner.invoke(cli.main, ["gen-scenarios", "--config", str(ws / "config.json"),
                                 "--method", "mvn", "--n", "25", "--seed", "3",
                                 "--out", str(ws / "out")])
    assert r.exit_code == 0, r.output
    scen = cli._read_scenario_csv(ws / "out" / "scenarios.csv")
    assert scen.n_scenarios == 25
    # column order follows the file; the synthesized base series comes last
    assert scen.columns == ("EQ_US", "EQ_UK", "GBP", "USD")
    assert scen.method == "mvn" and scen.seed == 3


# Every command, including one added later, reads its config through `_command`.
@pytest.mark.parametrize("text", ["{not json", None], ids=["not-json", "missing-file"])
@pytest.mark.parametrize("command", sorted(cli.main.commands))
def test_cli_malformed_config_exits_1(tmp_path, command, text):
    bad = tmp_path / "bad.json"
    if text is not None:
        bad.write_text(text)
    runner = CliRunner()
    r = runner.invoke(cli.main, [command, "--config", str(bad),
                                 "--out", str(tmp_path / "out")])
    assert r.exit_code == 1, r.output
    assert r.output.startswith("error: config file") and "bad.json" in r.output, r.output
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", sorted(cli.main.commands))
def test_cli_missing_config_key_exits_1(tmp_path, command):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"base": "USD"}))
    runner = CliRunner()
    r = runner.invoke(cli.main, [command, "--config", str(cfg),
                                 "--out", str(tmp_path / "out")])
    assert r.exit_code == 1, r.output
    assert r.output.startswith("error: config is missing required key"), r.output


@pytest.mark.parametrize("cell", ["nan", "inf"])
def test_cli_non_finite_panel_cell_exits_1(tmp_path, cell):
    ws = _cli_workspace(tmp_path)
    lines = (ws / "panel.csv").read_text().splitlines()
    lines[3] = lines[3].replace("0.001", cell, 1)        # file line 4
    (ws / "panel.csv").write_text("\n".join(lines) + "\n")
    r = CliRunner().invoke(cli.main, ["gen-scenarios", "--config", str(ws / "config.json"),
                                      "--method", "mvn", "--n", "20",
                                      "--out", str(ws / "out")])
    assert r.exit_code == 1, r.output
    assert "line 4" in r.output


SCENARIO_HEADER = "scenario_id,EQ_US,EQ_UK,GBP,USD\n"


@pytest.mark.parametrize("text", [
    "",                                                   # no header: ParseError
    SCENARIO_HEADER,                                      # no rows: EmptyScenarios
    SCENARIO_HEADER + "0,0.01,abc,0.0,0.0\n",             # NonNumericCell
    SCENARIO_HEADER + "0,0.01,0.02\n",                    # ragged row: ParseError
    SCENARIO_HEADER + "0,0.01,nan,0.0,0.0\n",             # ScenarioSet: InvalidScenarios
], ids=["empty", "header-only", "non-numeric", "ragged", "non-finite"])
def test_cli_bad_scenario_file_exits_1(tmp_path, text):
    ws = _cli_workspace(tmp_path)
    (ws / "scen.csv").write_text(text)
    cfg = json.loads((ws / "config.json").read_text())
    cfg["scenarios"] = "scen.csv"
    (ws / "config.json").write_text(json.dumps(cfg))
    r = CliRunner().invoke(cli.main, ["optimize", "--config", str(ws / "config.json"),
                                      "--out", str(ws / "opt")])
    assert r.exit_code == 1, r.output
    assert r.output.startswith("error:")


def _set(path, value):
    """An edit of an instance document: set the value at a key path."""
    def edit(doc):
        *parents, last = path
        for key in parents:
            doc = doc[key]
        doc[last] = value
    return edit


@pytest.mark.parametrize("edit,message", [
    (_set(("assets", 1, "currency"), "EUR"), "currency 'EUR' not in universe"),
    (_set(("forwards", 0, "pair"), ["EUR", "USD"]), "currency 'EUR' not in universe"),
    (_set(("forwards", 0, "pair"), ["GBP", "GBP"]), "two different currencies"),
    (_set(("params", "k_c"), -1), "k_c and k_g must be >= 0"),
    (_set(("params", "k_g"), -1), "k_c and k_g must be >= 0"),
], ids=["asset-currency", "forward-leg", "same-currency-forward", "k_c", "k_g"])
def test_cli_bad_instance_exits_1(tmp_path, edit, message):
    ws = _cli_workspace(tmp_path)
    doc = json.loads((ws / "instance.json").read_text())
    edit(doc)
    (ws / "instance.json").write_text(json.dumps(doc))
    r = CliRunner().invoke(cli.main, ["optimize", "--config", str(ws / "config.json"),
                                      "--out", str(ws / "opt")])
    assert r.exit_code == 1, r.output
    assert r.output.startswith("error:") and message in r.output, r.output


def _inputs(files=None, edit_instance=None, **config):
    """An edit of a workspace: write `files`, edit the instance document,
    set config keys."""
    def edit(ws, cfg):
        for name, text in (files or {}).items():
            (ws / name).write_text(text)
        if edit_instance:
            doc = json.loads((ws / "instance.json").read_text())
            edit_instance(doc)
            (ws / "instance.json").write_text(json.dumps(doc))
        cfg.update(config)
    return edit


# A first stage for the workspace's 2 assets, 1 forward and 2 currencies.
_FIRST_STAGE = {key: [0.0] if key.endswith("_fwd") else [0.0, 0.0] for key in model.STAGE_FIELDS}
_BACKTEST = {"solution": "sol.json", "oos_panel": "panel.csv"}


def _solution(**first_stage):
    return {"sol.json": json.dumps({"first_stage": first_stage})}


@pytest.mark.parametrize("args,edit,message", [
    (["frontier"], _inputs(mu_grid=["x"]), "config key 'mu_grid[0]' must be a number"),
    (["frontier"], _inputs(mu_grid=5), "config key 'mu_grid' must be a non-empty list"),
    (["stability"], _inputs(sizes=["a"]), "config key 'sizes[0]' must be a number"),
    (["stability"], _inputs(stability_seeds="x"),
     "config key 'stability_seeds' must be a non-empty list"),
    (["stability"], _inputs(sizes=[0]), "need N >= 1 scenarios, got 0"),
    (["gen-scenarios", "--n", "0"], _inputs(), "need N >= 1 scenarios, got 0"),
    (["optimize", "--n", "0"], _inputs(), "need N >= 1 scenarios, got 0"),
    (["optimize"], _inputs({"instance.json": "{oops"}),
     "instance.json: Expecting property name enclosed in double quotes: line 1 column 2"),
    (["optimize"], _inputs(edit_instance=lambda doc: doc.pop("params")),
     "instance.json is missing key 'params'"),
    (["optimize"], _inputs(edit_instance=_set(("assets", 0, "price"), "x")),
     "instance.json: could not convert string to float: 'x'"),
    (["optimize"], _inputs(edit_instance=_set(("assets", 0, "price"), float("nan"))),
     "p0_asset must be finite, got nan"),
    (["optimize"], _inputs(edit_instance=_set(("params", "big_b"), float("nan"))),
     "big_b must be finite, got nan"),
    (["optimize"], _inputs(edit_instance=_set(("assets", 1, "a0"), float("nan"))),
     "a0 must be finite, got nan"),
    (["optimize"], _inputs(edit_instance=_set(("currencies", 0, "c_max"), float("nan"))),
     "c_max must be finite, got nan"),
    (["backtest"], _inputs({"sol.json": "{oops"}, **_BACKTEST),
     "sol.json is not valid JSON: Expecting property name"),
    (["backtest"], _inputs(_solution(**{k: v for k, v in _FIRST_STAGE.items()
                                        if k != "s_asset"}), **_BACKTEST),
     "sol.json: no list of numbers in 's_asset'"),
    (["backtest"], _inputs(_solution(**dict.fromkeys(model.STAGE_FIELDS, [0.0])), **_BACKTEST),
     "sol.json: 'b_asset' must hold 2 finite numbers"),
    (["optimize"], _inputs({"scen.csv": SCENARIO_HEADER + "0,0.01,0.02,0.0,0.0\n",
                            "scen.json": "{oops"}, scenarios="scen.csv"),
     "scen.json is not valid JSON: Expecting property name"),
    (["frontier"], _inputs(mu_grid=[float("nan")]), "mu must be finite, got nan"),
    (["optimize", "--mu", "nan"], _inputs(), "mu must be finite, got nan"),
    (["stability"], _inputs(mu_grid=[float("nan")]), "mu must be finite, got nan"),
    (["gen-scenarios"], _inputs(asset_currency=5),
     "config key 'asset_currency' must map asset names to currency codes, got 5"),
    (["gen-scenarios"], _inputs(base=5), "config key 'base' must be a currency code, got 5"),
    (["gen-scenarios"], _inputs(asset_currency={"EQ_US": 3, "EQ_UK": "GBP"}),
     "config key 'asset_currency' must map asset names to currency codes"),
    (["backtest"], _inputs({**_solution(**_FIRST_STAGE),
                            "oos.csv": "period,EQ_US,EQ_UK,GBP,rate.USD,rate.GBP\n"},
                           solution="sol.json", oos_panel="oos.csv"),
     "the out-of-sample panel has no periods"),
], ids=["mu-grid-item", "mu-grid-not-list", "sizes-item", "seeds-not-list", "size-0",
        "gen-scenarios-n-0", "optimize-n-0", "instance-not-json", "instance-no-params",
        "instance-price", "instance-nan-price", "instance-nan-big-b", "instance-nan-a0",
        "instance-nan-c-max", "solution-not-json", "solution-no-field", "solution-short",
        "sidecar-not-json", "frontier-mu-nan", "optimize-mu-nan", "stability-mu-nan",
        "asset-currency-not-object", "base-not-string", "asset-currency-value",
        "oos-panel-no-periods"])
def test_cli_bad_input_exits_1(tmp_path, args, edit, message):
    ws = _cli_workspace(tmp_path)
    cfg = json.loads((ws / "config.json").read_text())
    edit(ws, cfg)
    (ws / "config.json").write_text(json.dumps(cfg))
    method = [] if args[0] == "backtest" else ["--method", "mvn"]
    r = CliRunner().invoke(cli.main, [*args, *method, "--config", str(ws / "config.json"),
                                      "--out", str(ws / "out")])
    assert r.exit_code == 1, r.output
    assert r.output.startswith("error:") and message in r.output, r.output


@pytest.mark.parametrize("key,value,message", [
    ("recourse_mode", "bogus", "unknown recourse mode 'bogus'"),
    ("population", 1, "need population >= 2"),
    ("crossover_rate", 1.5, "crossover rate must be in (0,1)"),
    ("elite_count", 0, "elite count must be in [1, population)"),
    ("population", "many", "config key 'population' must be a number, got 'many'"),
], ids=["recourse-mode", "population", "crossover-rate", "elite-count", "non-numeric"])
def test_cli_bad_ga_config_exits_1(tmp_path, key, value, message):
    ws = _cli_workspace(tmp_path)
    cfg = json.loads((ws / "config.json").read_text())
    cfg[key] = value
    (ws / "config.json").write_text(json.dumps(cfg))
    r = CliRunner().invoke(cli.main, ["optimize", "--config", str(ws / "config.json"),
                                      "--out", str(ws / "opt")])
    assert r.exit_code == 1, r.output
    assert r.output.startswith("error:") and message in r.output, r.output


def test_cli_optimize_and_backtest_chain(tmp_path):
    ws = _cli_workspace(tmp_path)
    runner = CliRunner()
    r = runner.invoke(cli.main, ["optimize", "--config", str(ws / "config.json"),
                                 "--method", "mvn", "--n", "30", "--seed", "1",
                                 "--mu", "0.0", "--out", str(ws / "opt")])
    assert r.exit_code == 0, r.output
    doc = json.loads((ws / "opt" / "solution.json").read_text())
    assert {"cvar", "violation", "first_stage", "residuals"} <= set(doc)
    assert (ws / "opt" / "convergence.csv").exists()
    assert (ws / "opt" / "manifest.json").exists()

    cfg = json.loads((ws / "config.json").read_text())
    cfg["solution"] = "opt/solution.json"
    cfg["oos_panel"] = "panel.csv"
    (ws / "config2.json").write_text(json.dumps(cfg))
    r2 = runner.invoke(cli.main, ["backtest", "--config", str(ws / "config2.json"),
                                  "--out", str(ws / "bt")])
    assert r2.exit_code == 0, r2.output
    meta = json.loads((ws / "bt" / "backtest.json").read_text())
    assert np.isfinite(meta["final_wealth"])
    lines = (ws / "bt" / "backtest.csv").read_text().strip().splitlines()
    assert len(lines) == 61   # header + one row per panel period


@pytest.mark.parametrize("source,stages", [
    ("rvc", {"load", "fit", "sample", "ga"}),
    ("mvn", {"load", "sample", "ga"}),
    ("file", {"load", "ga"}),
])
def test_cli_optimize_says_where_time_went(tmp_path, source, stages):
    ws = _cli_workspace(tmp_path)
    method = "mvn" if source == "file" else source
    if source == "file":
        r = CliRunner().invoke(cli.main, ["gen-scenarios", "--config", str(ws / "config.json"),
                                          "--method", "mvn", "--n", "30", "--out", str(ws)])
        assert r.exit_code == 0, r.output
        cfg = json.loads((ws / "config.json").read_text())
        (ws / "config.json").write_text(json.dumps({**cfg, "scenarios": "scenarios.csv"}))
    r = CliRunner().invoke(cli.main, ["optimize", "--config", str(ws / "config.json"),
                                      "--method", method, "--n", "30", "--seed", "1",
                                      "--out", str(ws / "opt")])
    assert r.exit_code == 0, r.output
    manifest = json.loads((ws / "opt" / "manifest.json").read_text())
    evals = manifest["ga_evaluations"]
    assert type(evals) is int and evals == 16 * (5 + 1)
    assert type(manifest["ga_live_evaluations"]) is int
    assert manifest["ga_live_evaluations"] == 0     # no recourse genes to switch on
    timing = json.loads(r.stderr.splitlines()[-1])
    assert set(timing) == {"seconds", "ga_evals_per_s"}
    assert set(timing["seconds"]) == stages
    assert all(type(s) is float and s > 0.0 for s in timing["seconds"].values())
    assert type(timing["ga_evals_per_s"]) is float
    assert timing["ga_evals_per_s"] == evals / timing["seconds"]["ga"] > 0.0


def test_cli_frontier_smoke(tmp_path):
    ws = _cli_workspace(tmp_path)
    runner = CliRunner()
    r = runner.invoke(cli.main, ["frontier", "--config", str(ws / "config.json"),
                                 "--method", "mvn", "--n", "25", "--seed", "2",
                                 "--out", str(ws / "front")])
    assert r.exit_code == 0, r.output
    lines = (ws / "front" / "frontier.csv").read_text().strip().splitlines()
    assert len(lines) == 3   # header + two targets
    assert lines[0].startswith("mu,achieved_return,cvar")
    assert lines[0].endswith(",status,reason")


def _csv_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_cli_sweeps_write_failure_reasons(tmp_path, monkeypatch):
    ws = _cli_workspace(tmp_path)
    monkeypatch.setattr(ga, "run", _raising(FitFailure("no fit")))
    runner = CliRunner()
    common = ["--config", str(ws / "config.json"), "--method", "mvn", "--seed", "1"]
    r = runner.invoke(cli.main, ["frontier", *common, "--n", "25", "--out", str(ws / "front")])
    assert r.exit_code == 0, r.output
    rows = _csv_rows(ws / "front" / "frontier.csv")
    assert [(row["status"], row["reason"]) for row in rows] == \
        [("infeasible", "FitFailure('no fit')")] * 2
    r = runner.invoke(cli.main, ["stability", *common, "--out", str(ws / "stab")])
    assert r.exit_code == 0, r.output
    rows = _csv_rows(ws / "stab" / "stability.csv")
    assert [row["failures"] for row in rows] == [
        "seed=1 mu=0.0: FitFailure('no fit'); seed=1 mu=0.002: FitFailure('no fit')"] * 2


def test_cli_fit_vine_smoke(tmp_path):
    ws = _cli_workspace(tmp_path)
    runner = CliRunner()
    r = runner.invoke(cli.main, ["fit-vine", "--config", str(ws / "config.json"),
                                 "--out", str(ws / "vine")])
    assert r.exit_code == 0, r.output
    cols = json.loads((ws / "vine" / "vine_columns.json").read_text())
    assert cols == ["EQ_US", "EQ_UK", "GBP"]
    from vinefolio import rvine
    spec = rvine.from_json((ws / "vine" / "vine.json").read_text())
    assert spec.dimension == 3
    # The reference fit of this panel: three independent pairs.
    assert spec.structure.ravel().tolist() == [3, 0, 0, 1, 2, 0, 2, 1, 1]
    for cop in spec.copulas.values():
        assert cop.family.value == "independence"
        assert (cop.theta, cop.theta2, cop.loglik, cop.n_obs) == (0.0, None, 0.0, 60)


def test_cli_fit_vine_says_where_time_went(tmp_path):
    ws = _cli_workspace(tmp_path)
    r = CliRunner().invoke(cli.main, ["fit-vine", "--config", str(ws / "config.json"),
                                      "--out", str(ws / "vine")])
    assert r.exit_code == 0, r.output
    timing = json.loads(r.stderr.splitlines()[-1])
    assert set(timing) == {"seconds"}
    assert set(timing["seconds"]) == {"load", "fit"}
    assert all(type(s) is float and s > 0.0 for s in timing["seconds"].values())


def test_cli_fit_vine_matches_direct_vine_fit(tmp_path):
    # A dependent panel, fitted as PIT of the live columns followed by
    # `rvine.select_and_fit`: the command writes exactly that vine.
    ws = _cli_workspace(tmp_path)
    rng = np.random.default_rng(4)
    common = rng.normal(0.0, 0.03, 60)
    rows = ["period,EQ_US,EQ_UK,GBP,rate.USD,rate.GBP"]
    for t in range(60):
        cells = (common[t] + rng.normal(0.0, 0.01), 0.8 * common[t] + rng.normal(0.0, 0.02),
                 0.5 * common[t] + rng.standard_t(4) * 0.02)
        rows.append(f"p{t}," + ",".join(repr(float(c)) for c in cells) + ",0.001,0.002")
    _write_panel(ws / "panel.csv", rows)
    r = CliRunner().invoke(cli.main, ["fit-vine", "--config", str(ws / "config.json"),
                                      "--out", str(ws / "vine")])
    assert r.exit_code == 0, r.output

    panel = adjust_returns(harness.load_panel(
        str(ws / "panel.csv"), {"EQ_US": "USD", "EQ_UK": "GBP"}, "USD"))
    columns = dict(zip(panel.column_names(), panel.column_matrix().T))
    live = {name: col for name, col in columns.items() if not effectively_constant(col)}
    uniforms, _ = pit_transform(live)
    spec = rvine.select_and_fit(uniforms, ALL_FAMILIES, column_order=list(live))
    assert {cop.family.value for cop in spec.copulas.values()} != {"independence"}
    assert (ws / "vine" / "vine.json").read_text() == rvine.to_json(spec) + "\n"
    assert json.loads((ws / "vine" / "vine_columns.json").read_text()) == list(live)


def test_cli_fit_vine_one_live_column_exits_1(tmp_path):
    ws = _cli_workspace(tmp_path)
    rng = np.random.default_rng(5)
    _write_panel(ws / "panel.csv", ["period,EQ_US,rate.USD"] + [
        f"p{t},{float(rng.normal(0.006, 0.04))!r},0.001" for t in range(30)])
    r = CliRunner().invoke(cli.main, ["fit-vine", "--config", str(ws / "config.json"),
                                      "--out", str(ws / "vine")])
    assert r.exit_code == 1, r.output
    assert "need >= 2 live columns" in r.output
