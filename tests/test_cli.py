import csv
import dataclasses
import io
import json
from collections import Counter
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from hpclease import (
    LyapunovParams,
    ScenarioConfig,
    StaticParams,
    cli,
    derive_quality_params,
    engine,
    generate_trace,
    oracle,
    run,
)
from hpclease.env import Trace, load_trace, save_trace
from hpclease.errors import ConfigurationError, InvariantViolationError
from hpclease.oracle import instance_from_trace, schedule_violation
from hpclease.policy import Action

from conftest import run_core

SCHEMA_DIR = Path(__file__).resolve().parent.parent / "docs" / "schema"

SMALL = ["--set", "k_concentrators=3", "--set", "horizon=300"]


def main(tmp_path, *argv):
    return cli.main([*argv, "-o", str(tmp_path)])


def test_parse_sweep_grid_and_seed_count():
    spec = cli.parse_args(["sweep-v", "--v", "1e6,3.2e7,1e8", "--seeds", "5"])
    assert spec.command == "sweep-v"
    assert spec.v_values == [1e6, 3.2e7, 1e8]
    assert cli._seeds(spec, ScenarioConfig(seed=40)) == [40, 41, 42, 43, 44]
    absent = cli.parse_args(["sweep-v"])
    assert cli._seeds(absent, ScenarioConfig(seed=40)) == [40, 41, 42, 43, 44]


def test_parse_explicit_seed_list():
    spec = cli.parse_args(["sweep-v", "--seeds", "101,102,103"])
    assert cli._seeds(spec, ScenarioConfig(seed=40)) == [101, 102, 103]


@pytest.mark.parametrize("command", ["sweep-v", "sweep-quality"])
def test_negative_seeds_are_a_config_error(command, tmp_path, capsys):
    assert main(tmp_path, command, "--seeds=-1,2", *SMALL) == 3
    assert "--seeds" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["sweep-v", "sweep-quality"])
def test_repeated_seeds_are_a_config_error(command, monkeypatch, tmp_path, capsys):
    def no_trace(*args):
        raise AssertionError("a trace was drawn")

    monkeypatch.setattr(cli, "generate_trace", no_trace)
    assert main(tmp_path, command, "--seeds", "3,4,3", *SMALL) == 3
    err = capsys.readouterr().err
    assert "--seeds repeats a seed" in err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize(
    "argv, message",
    [
        (["sweep-v", "--v", "5"], "a sweep needs at least two distinct axis values"),
        (["sweep-quality", "--budgets", "", "--seeds", "2"], "empty sweep"),
        (
            ["sweep-quality", "--preset", "reference", "--budgets", "0.1,0.3,0.1"],
            "--budgets: duplicate shares in the sweep [0.1, 0.3, 0.1]",
        ),
    ],
)
def test_degenerate_sweep_grid_fails_before_any_run(
    argv, message, monkeypatch, tmp_path, capsys
):
    def no_trace(*args):
        raise AssertionError("a trace was drawn")

    monkeypatch.setattr(cli, "generate_trace", no_trace)
    assert main(tmp_path, *argv) == 3
    assert message in capsys.readouterr().err


QUALITY_RUN = [
    "run", "--policy", "quality", "--n-units", "5", "--deadline", "20",
    "--quality-budget", "0",
]
# the field a bad argv below must name, by a token of the argv; else v_factor
NAMED_FIELDS = (
    ("1.5", "budget_share"),
    ("--beta-c", "beta_c"),
    ("arrival_law", "arrival_law"),
    ("20000", "deadline"),
    ("--period", "period"),
    ("--burst-len", "burst_len"),
)


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep-v", "--v", "2,-1", "--seeds", "2"],
        ["compare", "--v-factor", "-1"],
        ["sweep-quality", "--v-factor", "-1"],
        ["run", "--v-factor", "-1"],
        ["run", "--policy", "quality", "--budget-share", "1.5"],
        ["compare", "--budget-share", "1.5"],
        ["sweep-quality", "--budgets", "0,1.5"],
        [*QUALITY_RUN, "--set", "arrival_law=poisson"],
        [*QUALITY_RUN, "--deadline", "20000"],
        ["run", "--policy", "quality", "--budget-share", "0.1", "--beta-c", "2"],
        ["compare", "--budget-share", "0.1", "--beta-c", "2"],
        ["sweep-quality", "--beta-c", "2"],
        ["run", "--policy", "static", "--period", "0"],
        ["run", "--policy", "static", "--burst-len", "0"],
    ],
)
def test_bad_policy_params_fail_before_any_trace(argv, monkeypatch, tmp_path, capsys):
    # a sweep once drew a trace and ran a whole reference run first
    def no_trace(*args):
        raise AssertionError("a trace was drawn")

    monkeypatch.setattr(cli, "generate_trace", no_trace)
    assert main(tmp_path, *argv) == 3
    field = next(
        (f for token, f in NAMED_FIELDS if any(token in arg for arg in argv)), "v_factor"
    )
    assert field in capsys.readouterr().err


SCENARIO_DEFAULTS = {
    "config_path": None,
    "preset": None,
    "overrides": [],
    "seed": None,
    "out": None,
}


@pytest.mark.parametrize(
    "argv, defaults",
    [
        (
            ["run"],
            {
                "policy": "lyapunov", "v_factor": None, "period": None,
                "burst_len": None, "n_units": None, "deadline": None,
                "quality_budget": None, "budget_share": None, "beta_c": None,
            },
        ),
        (["compare"], {"v_factor": None, "budget_share": None, "beta_c": None}),
        (["sweep-v"], {"v_values": None, "seeds": None, "format": "csv"}),
        (
            ["sweep-quality"],
            {
                "budget_shares": None, "v_factor": None, "beta_c": None, "seeds": None,
                "with_oracle": False, "format": "csv",
            },
        ),
        (
            ["oracle", "--n-units", "7"],
            {
                "trace_path": None, "n_units": 7, "quality_budget": 0,
                "concentrator": 0, "first_slot": 1, "last_slot": None,
            },
        ),
        (["gen-trace"], {}),
    ],
    ids=["run", "compare", "sweep-v", "sweep-quality", "oracle", "gen-trace"],
)
def test_subcommand_defaults(argv, defaults):
    parsed = vars(cli.parse_args(argv))
    assert parsed.pop("handler") is getattr(cli, "_cmd_" + argv[0].replace("-", "_"))
    assert parsed == {"command": argv[0], **SCENARIO_DEFAULTS, **defaults}


def test_parse_missing_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        cli.parse_args([])
    assert exc.value.code == 2


def test_parse_unknown_flag_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        cli.parse_args(["run", "--does-not-exist"])
    assert exc.value.code == 2


def test_parse_bad_grid_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        cli.parse_args(["sweep-v", "--v", "1,two,3"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv", [["sweep-v", "--seeds", "1,x"], ["run", "--set", "horizon"]]
)
def test_parse_bad_seeds_or_override_is_usage_error(argv):
    with pytest.raises(SystemExit) as exc:
        cli.parse_args(argv)
    assert exc.value.code == 2


def test_help_exits_zero():
    with pytest.raises(SystemExit) as exc:
        cli.parse_args(["--help"])
    assert exc.value.code == 0


def test_overrides_supersede_config_file(tmp_path):
    cfg_file = tmp_path / "scenario.json"
    cfg_file.write_text(json.dumps({"k_concentrators": 60, "horizon": 500, "seed": 1}))
    spec = cli.parse_args(
        ["run", "--config", str(cfg_file), "--set", "k_concentrators=10"]
    )
    cfg = cli._scenario(spec)
    assert cfg.k_concentrators == 10
    assert cfg.horizon == 500


def test_seed_flag_supersedes_config_and_set(tmp_path):
    cfg_file = tmp_path / "scenario.json"
    cfg_file.write_text(json.dumps({"seed": 1}))
    spec = cli.parse_args(
        ["run", "--config", str(cfg_file), "--set", "seed=2", "--seed", "3"]
    )
    assert cli._scenario(spec).seed == 3


def test_preset_matches_published_config_schema():
    schema = json.loads((SCHEMA_DIR / "scenario_config.schema.json").read_text())
    jsonschema.Draft202012Validator.check_schema(schema)
    jsonschema.validate(dataclasses.asdict(cli.PRESETS["reference"]), schema)
    jsonschema.validate({"horizon": 100}, schema)
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate({"horizon": 100, "bogus_key": 1}, schema)


def test_run_writes_summary_and_series(tmp_path):
    assert main(tmp_path, "run", *SMALL) == 0
    summary = json.loads((tmp_path / "run_summary.json").read_text())
    assert summary["policy"] == "lyapunov[v=1]"
    assert summary["k_concentrators"] == 3
    assert summary["horizon"] == 300
    rows = list(csv.DictReader(io.StringIO((tmp_path / "run_series.csv").read_text())))
    assert len(rows) == 300
    # no stray temp files from the atomic writes
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "run_series.csv",
        "run_summary.json",
    ]


def test_run_stdout_mode(capsys):
    rc = cli.main(["run", *SMALL, "-o", "-"])
    assert rc == 0
    captured = capsys.readouterr()
    summary = json.loads(captured.out)
    assert summary["policy_kind"] == "lyapunov"
    assert "wrote" not in captured.out


def test_run_quality_policy_by_budget_share(tmp_path):
    # the reference run reads --v-factor, the derived workload --beta-c
    rc = main(
        tmp_path, "run", *SMALL, "--policy", "quality", "--budget-share", "0.2",
        "--v-factor", "1", "--beta-c", "1",
    )
    assert rc == 0
    summary = json.loads((tmp_path / "run_summary.json").read_text())
    assert summary["policy_kind"] == "quality"
    assert summary["units_sent_reduced"] > 0


def test_run_quality_policy_requires_workload_flags(tmp_path, capsys):
    rc = main(tmp_path, "run", *SMALL, "--policy", "quality")
    assert rc == 3
    assert "quality policy needs" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags, named",
    [
        (["--quality-budget", "3", "--budget-share", "0.2"], "--quality-budget"),
        (["--n-units", "50", "--budget-share", "0.1"], "--n-units"),
        (
            ["--n-units", "50", "--deadline", "99", "--quality-budget", "3",
             "--budget-share", "0.1"],
            "--n-units, --deadline, --quality-budget",
        ),
    ],
    ids=["quality-budget", "n-units", "all-three"],
)
def test_run_quality_flags_conflict_with_budget_share(flags, named, tmp_path, capsys):
    rc = main(
        tmp_path, "run", "--set", "horizon=100", "--set", "k_concentrators=3",
        "--policy", "quality", *flags,
    )
    assert rc == 3
    assert f"--budget-share derives the quality workload and conflicts with {named}" in (
        capsys.readouterr().err
    )
    assert not (tmp_path / "run_summary.json").exists()


@pytest.mark.parametrize(
    "flags, named",
    [
        (["--policy", "lyapunov", "--n-units", "50"], "--n-units"),
        (["--policy", "static", "--budget-share", "0.1"], "--budget-share"),
        (
            ["--policy", "lyapunov", "--deadline", "9", "--quality-budget", "3"],
            "--deadline, --quality-budget",
        ),
        (["--policy", "lyapunov", "--beta-c", "0.5"], "--beta-c"),
        (["--policy", "lyapunov", "--period", "7"], "--period"),
        (["--policy", "static", "--v-factor", "50", "--beta-c", "0.1"],
         "--v-factor, --beta-c"),
        ([*QUALITY_RUN[1:], "--v-factor", "50"], "--v-factor"),
        (["--policy", "quality", "--budget-share", "0.1", "--burst-len", "9"],
         "--burst-len"),
    ],
    ids=[
        "lyapunov-n-units", "static-budget-share", "lyapunov-two-quality-flags",
        "lyapunov-beta-c", "lyapunov-period", "static-v-factor-beta-c",
        "quality-v-factor-without-budget-share", "quality-burst-len",
    ],
)
def test_run_rejects_flags_its_policy_does_not_read(flags, named, tmp_path, capsys):
    # each of these once ran and silently ignored the flag
    rc = main(tmp_path, "run", *SMALL, *flags)
    assert rc == 3
    assert f"--policy {flags[1]} does not read {named}" in capsys.readouterr().err
    assert not (tmp_path / "run_summary.json").exists()


def test_compare_rejects_beta_c_without_budget_share(tmp_path, capsys):
    # it once ran and ignored --beta-c, which only the quality row reads
    assert main(tmp_path, "compare", *SMALL, "--beta-c", "0.2") == 3
    assert "compare reads --beta-c only with --budget-share" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_compare_solves_each_oracle_workload_once(monkeypatch, tmp_path):
    # the quality row and the oracle row share their (n_units, budget)
    solves = Counter()
    solve = engine.oracle_reference

    def counting_solve(trace, n_units, quality_budget):
        solves[n_units, quality_budget] += 1
        return solve(trace, n_units, quality_budget)

    monkeypatch.setattr(engine, "oracle_reference", counting_solve)
    rc = main(
        tmp_path, "compare", "--set", "horizon=400", "--set", "k_concentrators=4",
        "--budget-share", "0.1",
    )
    assert rc == 0
    rows = list(csv.DictReader(io.StringIO((tmp_path / "comparison.csv").read_text())))
    assert rows[0]["workload_complete"] == "true"
    oracle_budget = int(rows[-1]["policy"].split("m=")[1].rstrip("]"))
    # the drained lyapunov row's full workload, and the quality row's: one
    # fleet solve each
    assert solves[399, 0] == 1
    assert oracle_budget in {budget for _, budget in solves}
    assert sorted(solves.values()) == [1, 1]


def test_compare_table_with_oracle_row(tmp_path):
    rc = main(tmp_path, "compare", *SMALL, "--budget-share", "0.1")
    assert rc == 0
    lines = (tmp_path / "comparison.csv").read_text().strip().split("\n")
    rows = list(csv.DictReader(io.StringIO("\n".join(lines))))
    policies = [r["policy"] for r in rows]
    assert policies[0] == "lyapunov[v=1]"
    assert policies[1] == "static[1000/200]"
    assert policies[2] == "static[1000/150]"
    assert policies[3].startswith("quality[m=")
    # oracle row inherits the quality run's budget so it stays a lower
    # bound for the budgeted row too, not just the full-quality ones
    assert policies[4].startswith("oracle[m=")
    quality_budget = policies[3].split("m=")[1].rstrip("]")
    assert policies[4] == f"oracle[m={quality_budget}]"
    oracle_cost = int(rows[4]["cost_microcents"])
    for r in rows[:4]:
        if r["workload_complete"] == "true":
            assert oracle_cost <= int(r["cost_microcents"])
            assert r["oracle_cost_dollars"] != ""
        else:
            assert r["oracle_cost_dollars"] == ""


def test_sweep_v_csv(tmp_path):
    rc = main(
        tmp_path, "sweep-v", *SMALL, "--v", "1,100,10000", "--seeds", "2",
    )
    assert rc == 0
    rows = list(
        csv.DictReader(io.StringIO((tmp_path / "sweep_v.csv").read_text()))
    )
    assert [float(r["axis_value"]) for r in rows] == [1.0, 100.0, 10000.0]
    costs = [float(r["cost_mean"]) for r in rows]
    assert costs[0] >= costs[1] >= costs[2]


def test_sweep_v_rejects_duplicate_grid(tmp_path, capsys):
    rc = main(tmp_path, "sweep-v", *SMALL, "--v", "1,1")
    assert rc == 3


def test_sweep_quality_refuses_distinct_shares_that_give_one_budget(tmp_path, capsys):
    # 0.1 and 0.1001 of the 299 units both round down to 29 reduced units
    argv = ["sweep-quality", *SMALL, "--budgets", "0.1,0.1001", "--seeds", "1"]
    assert main(tmp_path, *argv) == 3
    err = capsys.readouterr().err
    assert "budget shares collide at 29 reduced units of n_units 299" in err


def test_sweep_quality_json_with_oracle(tmp_path):
    rc = main(
        tmp_path,
        "sweep-quality",
        *SMALL,
        "--budgets", "0,0.3",
        "--seeds", "2",
        "--with-oracle",
        "--format", "json",
    )
    assert rc == 0
    doc = json.loads((tmp_path / "sweep_quality.json").read_text())
    schema = json.loads((SCHEMA_DIR / "sweep_result.schema.json").read_text())
    jsonschema.validate(doc, schema)
    assert doc["axis"] == "quality_budget"
    assert len(doc["points"]) == 2
    for p in doc["points"]:
        assert p["oracle_cost_dollars"] is not None
        assert p["oracle_cost_dollars"] <= p["cost_mean_dollars"]
    # more reduced-quality freedom costs less
    assert doc["points"][1]["cost_mean_dollars"] <= doc["points"][0]["cost_mean_dollars"]


@pytest.mark.parametrize("oracle", [[], ["--with-oracle"]], ids=["plain", "oracle"])
def test_sweep_quality_point_sits_at_the_mean_budget_of_its_share(oracle, tmp_path):
    # the seeds derive different budgets from the one share; the sweep once
    # drew and ran every trace, then exited 3 ("the same nonzero seed count")
    scenario = ["--set", "k_concentrators=1", "--set", "horizon=5"]
    argv = [*scenario, "--v-factor", "10", "--seeds", "3", "--budgets", "0.5"]
    assert main(tmp_path, "sweep-quality", *argv, *oracle) == 0
    rows = list(csv.reader(io.StringIO((tmp_path / "sweep_quality.csv").read_text())))
    cfg = ScenarioConfig(k_concentrators=1, horizon=5, seed=101)
    budgets = []
    for seed in (101, 102, 103):
        delay = run(cfg, LyapunovParams(10.0), generate_trace(cfg, seed)).littles_delay
        budgets.append(derive_quality_params(cfg, delay, 0.5).quality_budget)
    assert len(set(budgets)) > 1
    assert len(rows) == 2 and rows[1][0] == f"{sum(budgets) / 3:.10g}" == "1.666666667"
    assert rows[0][-1] == ("oracle_cost" if oracle else "delay_mean")


def test_sweep_quality_oracle_needs_unit_world(tmp_path, capsys):
    rc = main(
        tmp_path,
        "sweep-quality",
        *SMALL,
        "--set", "arrival_law=\"poisson\"",
        "--budgets", "0,0.3",
        "--seeds", "1",
        "--with-oracle",
    )
    assert rc == 3


def test_oracle_subcommand(tmp_path):
    rc = main(tmp_path, "oracle", *SMALL, "--n-units", "50", "--quality-budget", "10")
    assert rc == 0
    doc = json.loads((tmp_path / "oracle.json").read_text())
    assert doc["n_units"] == 50
    assert doc["sends"] == 50
    assert doc["reduced_count"] <= 10
    assert len(doc["action_codes"]) == 299  # slots 1..299
    assert doc["cost_microcents"] >= 0


def test_oracle_solves_a_wide_budget_instance(tmp_path):
    # 2999 slots, 1500 units, 1000 of them reduced: an instance whose
    # (slot, slack, budget) table would hold 4.5e9 entries
    argv = ["--set", "horizon=3000", "--set", "k_concentrators=1"]
    rc = main(tmp_path, "oracle", *argv, "--n-units", "1500", "--quality-budget", "1000")
    assert rc == 0
    doc = json.loads((tmp_path / "oracle.json").read_text())
    cfg = ScenarioConfig(horizon=3000, k_concentrators=1, seed=101)  # reference preset
    # the written schedule keeps every rule and recomputes to its cost
    instance = instance_from_trace(generate_trace(cfg, cfg.seed), slice(0, 1), 1500, 1000)
    assert schedule_violation(
        instance.levels, instance.price_full_microcents,
        instance.price_reduced_microcents, 1500, 1000,
        np.array([doc["action_codes"]], dtype=np.uint8),
        np.array([doc["cost_microcents"]]), np.array([doc["reduced_count"]]),
    ) is None
    assert doc["sends"] == 1500


def test_oracle_infeasible_exits_4(tmp_path, capsys):
    rc = main(tmp_path, "oracle", *SMALL, "--n-units", "10000")
    assert rc == 4
    assert "infeasible" in capsys.readouterr().err


def test_oracle_solve_failure_names_its_instance(monkeypatch, tmp_path, capsys):
    argv = [
        "oracle", *SMALL, "--seed", "9", "--concentrator", "2", "--first-slot", "5",
        "--last-slot", "120", "--n-units", "40", "--quality-budget", "7",
    ]
    assert main(tmp_path, *argv) == 0
    optimum = json.loads((tmp_path / "oracle.json").read_text())["cost_microcents"]
    solve = oracle.solve_rows

    def misstated(*args):
        rows = solve(*args)
        rows.cost[0] += 1
        return rows

    # the block core states the one row's bound too high; solve_dp's one
    # message format, as engine.oracle_reference's test expects it
    monkeypatch.setattr(oracle, "solve_rows", misstated)
    assert main(tmp_path, *argv) == 5
    assert (
        "oracle seed 9, concentrator 2, slots 5-120, n_units 40, budget 7: "
        f"stored cost {optimum + 1} != recomputed {optimum}"
    ) in capsys.readouterr().err


def test_infinite_lyapunov_epsilon_exits_3(tmp_path, capsys):
    # JSON reads 1e999 as inf
    assert main(tmp_path, "run", *SMALL, "--set", "epsilon=1e999") == 3
    assert "epsilon must be finite" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags, field",
    [(["--set", "epsilon=1e308"], "epsilon"), (["--v-factor", "1e308"], "v_factor")],
    ids=["epsilon", "v_factor"],
)
def test_overflowing_threshold_weights_exit_3(flags, field, tmp_path, capsys):
    # each once overflowed a float64 (the virtual queue Z, the purchase
    # threshold) with only a RuntimeWarning, and ran on
    scenario = ["--set", "k_concentrators=2", "--set", "horizon=50", "--seed", "1"]
    assert main(tmp_path, "run", *scenario, *flags) == 3
    assert field in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_gen_trace_then_oracle_round_trip(tmp_path):
    rc = main(tmp_path, "gen-trace", *SMALL, "--seed", "42")
    assert rc == 0
    trace_file = tmp_path / "trace_42.json"
    trace = load_trace(trace_file.read_bytes())
    assert trace.seed == 42
    assert trace.k == 3

    rc = main(
        tmp_path, "oracle", "--trace", str(trace_file), "--n-units", "20",
        "--first-slot", "1", "--last-slot", "100",
    )
    assert rc == 0
    doc = json.loads((tmp_path / "oracle.json").read_text())
    assert len(doc["action_codes"]) == 100


@pytest.mark.parametrize(
    "flags",
    [
        ["--seed", "7"],
        ["--set", "horizon=999"],
        ["--config", "scenario.json"],
        ["--preset", "reference"],
        ["--seed", "7", "--set", "horizon=999"],
    ],
    ids=["seed", "set", "config", "preset", "seed-and-set"],
)
def test_oracle_trace_refuses_scenario_flags(flags, monkeypatch, tmp_path, capsys):
    # the trace file fixes the scenario: a scenario flag beside it would be
    # ignored, so it exits 3 naming the flag, before the file is read
    def no_read(data):
        raise AssertionError("the trace file was read")

    monkeypatch.setattr(cli, "load_trace", no_read)
    trace_file = tmp_path / "trace_101.json"
    trace_file.write_text("{}")
    argv = ["oracle", "--trace", str(trace_file), "--n-units", "40"]
    assert main(tmp_path, *argv, *flags) == 3
    err = capsys.readouterr().err
    for flag in flags[::2]:
        assert flag in err


def test_zero_slot_trace_file_exits_3(tmp_path, capsys):
    # a trace bounds its prices by 2**53 // horizon, which must not divide by 0
    prices = ("price_packet", "price_full", "price_reduced")
    empty = {name: np.zeros(0, dtype=np.int64) for name in prices}
    trace = Trace(
        seed=0,
        config_digest="0" * 16,
        levels=np.zeros((1, 0), dtype=np.uint8),
        arrivals=np.zeros((1, 0), dtype=np.int32),
        **empty,
    )
    trace_file = tmp_path / "trace_0.json"
    trace_file.write_bytes(save_trace(trace))
    assert main(tmp_path, "oracle", "--trace", str(trace_file), "--n-units", "1") == 3
    assert "outside trace horizon" in capsys.readouterr().err


def test_bad_config_file_exits_3(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(tmp_path, "run", "--config", str(bad)) == 3
    bad.write_text(json.dumps({"unknown_field": 3}))
    assert main(tmp_path, "run", "--config", str(bad)) == 3
    assert main(tmp_path, "run", "--config", str(tmp_path / "absent.json")) == 3
    bad.write_text(json.dumps([{"horizon": 50}]))
    assert main(tmp_path, "run", "--config", str(bad)) == 3
    assert "must be a JSON object" in capsys.readouterr().err


# every subcommand that reads a scenario; oracle reads one without --trace
SCENARIO_COMMANDS = [
    ["run"], ["compare"], ["sweep-v"], ["sweep-quality"],
    ["oracle", "--n-units", "1"], ["gen-trace"],
]


@pytest.mark.parametrize("argv", SCENARIO_COMMANDS, ids=lambda argv: argv[0])
def test_config_with_preset_exits_3(argv, monkeypatch, tmp_path, capsys):
    # gen-trace once wrote the file's trace and ignored the preset
    def no_trace(*args):
        raise AssertionError("a trace was drawn")

    monkeypatch.setattr(cli, "generate_trace", no_trace)
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"k_concentrators": 3, "horizon": 300}))
    out = tmp_path / "out"
    argv = [*argv, "--config", str(config), "--preset", "reference", "-o", str(out)]
    assert cli.main(argv) == 3
    err = capsys.readouterr().err
    assert "--config" in err and "--preset" in err
    assert not out.exists()


def test_missing_trace_file_exits_3(tmp_path, capsys):
    absent = tmp_path / "absent.json"
    assert main(tmp_path, "oracle", "--trace", str(absent), "--n-units", "1") == 3
    assert f"cannot read {absent}" in capsys.readouterr().err


def test_bad_override_value_exits_3(tmp_path, capsys):
    assert main(tmp_path, "run", *SMALL, "--set", "horizon=0") == 3
    assert main(tmp_path, "run", *SMALL, "--set", "horizon=true") == 3


def test_invariant_violation_maps_to_exit_5(monkeypatch, tmp_path):
    def boom(spec):
        raise InvariantViolationError("synthetic")

    monkeypatch.setattr(cli, "_cmd_run", boom)
    assert main(tmp_path, "run") == 5


def test_out_dir_env_var(monkeypatch, tmp_path):
    monkeypatch.setenv(cli.OUT_DIR_ENV, str(tmp_path))
    rc = cli.main(["gen-trace", *SMALL, "--seed", "8"])
    assert rc == 0
    assert (tmp_path / "trace_8.json").exists()


def test_diagnostics_on_stderr_not_stdout(tmp_path, capsys):
    main(tmp_path, "gen-trace", *SMALL)
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "wrote" in captured.err


@pytest.mark.parametrize("law", ["deterministic", "poisson"])
def test_oversized_unit_is_a_config_error(law, tmp_path, capsys):
    # served packets per slot are int16: a 40,000-packet unit once wrapped
    # around and surfaced as a false conservation violation (exit 5)
    with pytest.raises(ConfigurationError, match="unit_size_packets"):
        ScenarioConfig(
            k_concentrators=2, horizon=20, mean_arrival=40000, arrival_law=law
        )
    rc = main(
        tmp_path, "run", "--set", "k_concentrators=2", "--set", "horizon=20",
        "--set", "mean_arrival=40000", "--set", f"arrival_law={law}",
    )
    assert rc == 3
    assert "unit_size_packets" in capsys.readouterr().err


def test_int32_overflowing_arrivals_are_a_config_error(tmp_path, capsys):
    # once an uncaught OverflowError while filling the int32 arrival array
    rc = main(
        tmp_path, "run", *SMALL, "--set", "mean_arrival=3000000000",
        "--set", "unit_size_packets=5", "--set", "arrival_bound=3000000000",
    )
    assert rc == 3
    assert "mean_arrival" in capsys.readouterr().err
    with pytest.raises(ConfigurationError, match="arrival_bound"):
        ScenarioConfig(mean_arrival=5, arrival_bound=2**31)
    # the derived bound (4x the mean) is capped, not rejected
    cfg = ScenarioConfig(mean_arrival=2**30, unit_size_packets=5)
    assert cfg.arrival_bound == 2**31 - 1
    schema = json.loads((SCHEMA_DIR / "scenario_config.schema.json").read_text())
    for field, too_big in [
        ("unit_size_packets", 2**15),
        ("mean_arrival", 2**31),
        ("arrival_bound", 2**31),
    ]:
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate({field: too_big}, schema)


def test_overrides_rederive_defaults():
    reference = cli.PRESETS["reference"]
    cfg = reference.with_overrides(mean_arrival=10)
    assert cfg == ScenarioConfig(seed=101, mean_arrival=10)
    assert (cfg.unit_size_packets, cfg.arrival_bound, cfg.epsilon) == (10, 40, 10.0)
    # a derived field given explicitly wins, and stays put afterwards
    cfg = reference.with_overrides(mean_arrival=10, unit_size_packets=4)
    assert (cfg.unit_size_packets, cfg.arrival_bound) == (4, 40)
    assert cfg.with_overrides(mean_arrival=7).unit_size_packets == 4
    assert reference.with_overrides(horizon=120) == ScenarioConfig(seed=101, horizon=120)


def test_quality_run_after_mean_arrival_override(capsys):
    argv = [
        "run", "--policy", "quality", "--budget-share", "0.2",
        "--set", "mean_arrival=10", "--set", "horizon=200", "-o", "-",
    ]
    assert cli._scenario(cli.parse_args(argv)).unit_size_packets == 10
    assert cli.main(argv) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["workload_complete"] is True



@pytest.mark.parametrize("field", ["horizon", "mean_arrival"])
def test_non_numeric_override_is_a_config_error(field, tmp_path, capsys):
    # a non-numeric string or a null once reached __post_init__/validate and
    # died with a TypeError or ValueError traceback
    for value in ("abc", "null"):
        assert main(tmp_path, "gen-trace", *SMALL, "--set", f"{field}={value}") == 3
        assert f"scenario field {field}" in capsys.readouterr().err
    with pytest.raises(ConfigurationError, match=field):
        ScenarioConfig.from_dict({field: "5"})
    assert main(tmp_path, "gen-trace", *SMALL, "--set", "arrival_law=poisson") == 0


@pytest.mark.parametrize(
    "argv",
    [
        # the Python-int cost accumulator once raised OverflowError here
        ["run", "--policy", "static", "--period", "10", "--burst-len", "10",
         "--set", "k_concentrators=3", "--set", "horizon=50",
         "--set", "price_low_cents=1e11", "--set", "price_high_cents=1.5e11"],
        # unit prices once wrapped around in int64 and were quoted negative
        ["gen-trace", "--set", "price_low_cents=1e12",
         "--set", "price_high_cents=2e12"],
        # an infinite price once died with an OverflowError traceback
        ["gen-trace", "--set", "price_high_cents=Infinity"],
        # so did a finite price whose micro-cents overflow a float
        ["gen-trace", "--set", "price_high_cents=1e303"],
    ],
)
def test_inexact_cost_range_is_a_config_error(argv, tmp_path, capsys):
    assert main(tmp_path, *argv) == 3
    assert "price_high_cents" in capsys.readouterr().err


def test_costs_exact_just_under_the_price_bound():
    # 3 x 50 x 5 x 6e12 micro-cents is about half of 2**53
    cfg = ScenarioConfig(
        k_concentrators=3, horizon=50, price_low_cents=3e6, price_high_cents=6e6
    )
    params = StaticParams(period=10, burst_len=10)
    metrics = run(cfg, params)
    trace = generate_trace(cfg, cfg.seed)
    paid = run_core(cfg, params, trace).codes == Action.BUY_FULL
    exact = sum(int(p) for row in paid for p in trace.price_full[row])
    assert metrics.cost_total_microcents == exact > 2**50
    assert int(metrics.cost_per_concentrator.sum()) == exact
    with pytest.raises(ConfigurationError, match="price_high_cents"):
        dataclasses.replace(cfg, price_high_cents=7e7)


@pytest.mark.parametrize(
    "overrides, fields",
    [
        # once "per-packet price must be positive"
        (["price_low_cents=1e-7", "price_high_cents=2e-7"], ["price_low_cents"]),
        # once "empty per-packet price interval"
        (
            ["price_low_cents=6e-7", "price_high_cents=7e-7"],
            ["price_low_cents", "price_high_cents"],
        ),
        # both once "degenerate unit size ..."
        (["reduced_fraction=0.999999"], ["unit_size_packets", "reduced_fraction"]),
        (["mean_arrival=0"], ["unit_size_packets", "reduced_fraction"]),
        # JSON reads 1e999 as inf; once a run with NaN virtual queues
        (["epsilon=1e999"], ["epsilon"]),
        # each once named no field
        (["k_concentrators=0"], ["k_concentrators"]),
        (["mean_arrival=-1"], ["mean_arrival"]),
        (["unit_size_packets=0"], ["unit_size_packets"]),
    ],
)
def test_config_error_names_the_field(overrides, fields, tmp_path, capsys):
    sets = [arg for override in overrides for arg in ("--set", override)]
    assert main(tmp_path, "gen-trace", *SMALL, *sets) == 3
    err = capsys.readouterr().err
    assert all(field in err for field in fields), err


# The threshold policy keeps each backlog in float64, exact up to 2**53
# packets, so a scenario bounds what a concentrator can receive over its
# horizon: horizon * mean_arrival (deterministic) or horizon * arrival_bound
# (poisson). Arrival counts are int32, so only a horizon above 2**22 can
# reach the bound. These scenarios are built, never run.
HUGE = dict(
    k_concentrators=1, horizon=2**23, unit_size_packets=2,
    price_low_cents=1e-6, price_high_cents=2e-6,
)


@pytest.mark.parametrize(
    "accepted, refused, field",
    [
        (dict(mean_arrival=2**30), dict(mean_arrival=2**30 + 1), "mean_arrival"),
        (dict(mean_arrival=2**30), dict(mean_arrival=2**30, horizon=2**23 + 1), "mean_arrival"),
        (
            dict(arrival_law="poisson", arrival_bound=2**30),
            dict(arrival_law="poisson", arrival_bound=2**30 + 1),
            "arrival_bound",
        ),
    ],
    ids=["deterministic-mean", "deterministic-horizon", "poisson-bound"],
)
def test_backlog_bound_is_a_config_error(
    accepted, refused, field, monkeypatch, tmp_path, capsys
):
    largest = ScenarioConfig(**{**HUGE, **accepted})
    assert largest.horizon * getattr(largest, field) == 2**53
    # the rule reads one field per law
    if field == "mean_arrival":
        ScenarioConfig(**{**HUGE, **accepted, "arrival_bound": 2**31 - 1})
    with pytest.raises(ConfigurationError, match=rf"horizon \* {field} must be at most"):
        ScenarioConfig(**{**HUGE, **refused})

    def no_trace(*args):
        raise AssertionError("a trace was drawn")

    monkeypatch.setattr(cli, "generate_trace", no_trace)
    flags = [f"--set={name}={json.dumps(v)}" for name, v in {**HUGE, **refused}.items()]
    assert main(tmp_path, "gen-trace", *flags) == 3
    err = capsys.readouterr().err
    assert "horizon" in err and field in err


@pytest.mark.parametrize(
    "fields, message, derived",
    [
        (dict(mean_arrival=1), "gives a reduced unit of 1 packets", "unit_size_packets"),
        (dict(mean_arrival=1, unit_size_packets=1), "gives a reduced unit of 1", None),
        (
            dict(HUGE, arrival_law="poisson", mean_arrival=2**28 + 1),
            r"horizon \* arrival_bound must be at most",
            "arrival_bound",
        ),
        (
            dict(HUGE, arrival_law="poisson", mean_arrival=1, arrival_bound=2**30 + 1),
            r"horizon \* arrival_bound must be at most",
            None,
        ),
    ],
    ids=["derived-unit", "explicit-unit", "derived-bound", "explicit-bound"],
)
def test_refusal_names_where_a_derived_field_came_from(
    fields, message, derived, tmp_path, capsys
):
    # a field the user never set is named with the mean_arrival it came from
    with pytest.raises(ConfigurationError, match=message) as refused:
        ScenarioConfig(**fields)
    refusal = str(refused.value)
    if derived:
        mean = fields["mean_arrival"]
        assert f"{derived} was derived from mean_arrival {mean}: set {derived}" in refusal
    else:
        assert "derived" not in refusal
    flags = [f"--set={name}={json.dumps(v)}" for name, v in fields.items()]
    assert main(tmp_path, "gen-trace", *flags) == 3
    assert refusal in capsys.readouterr().err


def test_fleet_cell_bound_is_a_config_error():
    # checked when the config is built: an oversize run would need gigabytes
    edge = ScenarioConfig(k_concentrators=2**12, horizon=2**12)
    for too_big in (
        lambda: dataclasses.replace(edge, horizon=2**12 + 1),
        lambda: cli.PRESETS["reference"].with_overrides(horizon=10_000_000),
    ):
        with pytest.raises(ConfigurationError, match=r"k_concentrators \* horizon"):
            too_big()
    # the largest benchmark fleet and every preset still build
    ScenarioConfig(k_concentrators=1000, horizon=2000, arrival_law="poisson")
    for preset in cli.PRESETS.values():
        dataclasses.replace(preset)
