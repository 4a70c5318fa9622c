import csv
import dataclasses
import hashlib
import io
import json
import math
from pathlib import Path

import jsonschema
import pytest

from hpclease import ScenarioConfig, cli, generate_trace, run
from hpclease.errors import ConfigurationError
from hpclease.policy import LyapunovParams, StaticParams
from hpclease.report import (
    AXIS_QUALITY_BUDGET,
    AXIS_V_FACTOR,
    SweepPoint,
    SweepResult,
    comparison_table_csv,
    emit,
    quality_sweep_summary,
    run_series_csv,
    run_summary,
    v_sweep_summary,
)

from test_cli_golden import SMALL

SCHEMA_DIR = Path(__file__).resolve().parent.parent / "docs" / "schema"


def point(axis_value, cost=100.0, std=0.0, queue=0.0, delay=1.0, oracle=None):
    return SweepPoint(
        axis_value=axis_value,
        cost_mean_microcents=cost,
        cost_std_microcents=std,
        queue_mean=queue,
        delay_mean=delay,
        oracle_cost_microcents=oracle,
    )


def small_runs(seeds=(7, 8, 9), v_values=(1.0, 50.0)):
    cfg = ScenarioConfig(k_concentrators=2, horizon=150, seed=0)
    out = {}
    for v in v_values:
        params = LyapunovParams(v_factor=v)
        out[v] = [
            run(cfg.with_overrides(seed=s), params, generate_trace(cfg, s))
            for s in seeds
        ]
    return out


def test_sweep_result_validation():
    with pytest.raises(ConfigurationError):
        SweepResult(axis="bogus", seed_count=1, points=())
    with pytest.raises(ConfigurationError):
        SweepResult(axis=AXIS_V_FACTOR, seed_count=0, points=())
    with pytest.raises(ConfigurationError):
        SweepResult(
            axis=AXIS_V_FACTOR, seed_count=1, points=(point(2.0), point(1.0))
        )


def test_aggregation_matches_two_pass_reference():
    runs_by_v = small_runs()
    result = v_sweep_summary(runs_by_v)
    for p in result.points:
        costs = [m.cost_total_microcents for m in runs_by_v[p.axis_value]]
        mean = sum(costs) / len(costs)
        var = sum((c - mean) ** 2 for c in costs) / (len(costs) - 1)
        assert abs(p.cost_mean_microcents - mean) <= 1e-9 * max(1.0, abs(mean))
        assert abs(p.cost_std_microcents - math.sqrt(var)) <= 1e-9 * max(
            1.0, math.sqrt(var)
        )
        queue = sum(m.final_queue_mean for m in runs_by_v[p.axis_value]) / len(costs)
        assert abs(p.queue_mean - queue) <= 1e-9 * max(1.0, queue)


def test_v_sweep_finds_knee():
    runs_by_v = small_runs(v_values=(1.0, 1e6))
    result = v_sweep_summary(runs_by_v)
    assert result.axis == AXIS_V_FACTOR
    assert result.seed_count == 3
    # V=1 drains (always-buy), the huge V never buys and leaves backlog
    assert result.points[0].queue_mean == 0.0
    assert result.points[1].queue_mean > 0.0
    assert result.v_star == 1.0


def test_v_sweep_reports_undrained_grid_as_no_knee():
    runs_by_v = small_runs(v_values=(1e5, 1e6))
    result = v_sweep_summary(runs_by_v)
    assert result.v_star is None  # reported, not an error


def test_v_sweep_rejects_bad_input():
    runs_by_v = small_runs(v_values=(1.0, 50.0))
    with pytest.raises(ConfigurationError):
        v_sweep_summary({1.0: runs_by_v[1.0]})
    lopsided = {1.0: runs_by_v[1.0], 50.0: runs_by_v[50.0][:1]}
    with pytest.raises(ConfigurationError):
        v_sweep_summary(lopsided)


def test_v_sweep_single_seed_two_points_ordering():
    runs_by_v = small_runs(seeds=(7,), v_values=(1.0, 200.0))
    result = v_sweep_summary(runs_by_v)
    assert len(result.points) == 2
    assert result.points[0].axis_value == 1.0
    assert result.points[1].axis_value == 200.0
    assert result.points[0].cost_mean_microcents >= result.points[1].cost_mean_microcents


def test_quality_sweep_requires_oracle_cost_for_every_budget():
    cfg = ScenarioConfig(k_concentrators=2, horizon=150, seed=0)
    from hpclease.policy import QualityParams

    runs = {
        0: [run(cfg, QualityParams(149, 149, 0))],
        30: [run(cfg, QualityParams(149, 149, 30))],
    }
    with pytest.raises(ConfigurationError, match="empty sweep"):
        quality_sweep_summary({})
    result = quality_sweep_summary(runs)
    assert result.axis == AXIS_QUALITY_BUDGET
    assert [p.axis_value for p in result.points] == [0.0, 30.0]
    with pytest.raises(ConfigurationError):
        quality_sweep_summary(runs, {0: [123]})
    paired = quality_sweep_summary(runs, {0: [100], 30: [90]})
    assert paired.points[0].oracle_cost_microcents == 100.0


def test_emit_csv_round_trips():
    # whole micro-cents survive the 8-decimal dollar formatting exactly
    result = SweepResult(
        axis=AXIS_V_FACTOR,
        seed_count=2,
        points=(point(1.0, cost=12_345_678.0), point(10.0, cost=1_234.0)),
        v_star=1.0,
    )
    text = emit(result, "csv").decode("ascii")
    rows = list(csv.DictReader(io.StringIO(text)))
    assert len(rows) == 2
    assert float(rows[0]["axis_value"]) == 1.0
    assert float(rows[0]["cost_mean"]) == 12_345_678.0 / 1e8
    assert float(rows[1]["cost_mean"]) == 1_234.0 / 1e8
    assert rows[0].keys() == {
        "axis_value", "cost_mean", "cost_std", "queue_mean", "delay_mean",
    }


def test_emit_includes_oracle_column_when_present():
    result = SweepResult(
        axis=AXIS_QUALITY_BUDGET,
        seed_count=1,
        points=(point(0.0, oracle=50.0), point(10.0, oracle=None)),
    )
    text = emit(result, "csv").decode("ascii")
    header, row0, row1 = text.strip().split("\n")
    assert header.endswith(",oracle_cost")
    assert row0.endswith(",0.00000050")
    assert row1.endswith(",")  # blank cell for the missing baseline


def test_emit_empty_sweep_is_header_only():
    result = SweepResult(axis=AXIS_V_FACTOR, seed_count=1, points=())
    assert emit(result, "csv") == b"axis_value,cost_mean,cost_std,queue_mean,delay_mean\n"


def test_emit_is_deterministic():
    result = SweepResult(
        axis=AXIS_V_FACTOR, seed_count=3, points=(point(1.0), point(2.0)), v_star=2.0
    )
    for fmt in ("csv", "json", "dat"):
        assert emit(result, fmt) == emit(result, fmt)


def test_emit_dat_has_comment_header():
    result = SweepResult(axis=AXIS_V_FACTOR, seed_count=1, points=(point(1.0),))
    lines = emit(result, "dat").decode("ascii").splitlines()
    assert lines[0].startswith("# axis: v_factor")
    assert lines[1].startswith("# axis_value")
    assert not lines[2].startswith("#")


def test_emit_unknown_format_rejected():
    result = SweepResult(axis=AXIS_V_FACTOR, seed_count=1, points=())
    with pytest.raises(ConfigurationError):
        emit(result, "xml")


def test_emitted_json_validates_against_published_schema():
    schema = json.loads((SCHEMA_DIR / "sweep_result.schema.json").read_text())
    jsonschema.Draft202012Validator.check_schema(schema)
    result = SweepResult(
        axis=AXIS_V_FACTOR,
        seed_count=2,
        points=(point(1.0), point(2.0, queue=3.5, oracle=77.0)),
        v_star=1.0,
    )
    doc = json.loads(emit(result, "json"))
    jsonschema.validate(doc, schema)

    empty = json.loads(emit(SweepResult(AXIS_V_FACTOR, 1, ()), "json"))
    jsonschema.validate(empty, schema)


# the sha256 of each sweep's dat and json file at the CLI goldens' small
# scenario, whose csv files test_cli_golden.py pins
SWEEP_FORMAT_GOLDEN = {
    "sweep_v.dat": (
        ["sweep-v", "--seeds", "2", "--format", "dat"],
        "6430fde73959fc12609f6105889343b4da07c6d4105ac65d6b0e6719d2c74360",
    ),
    "sweep_v.json": (
        ["sweep-v", "--seeds", "2", "--format", "json"],
        "bcde18c0ee80f46921f11b2b429631498c0186a3ce06413ad1a7d864c21523ec",
    ),
    "sweep_quality.dat": (
        ["sweep-quality", "--with-oracle", "--seeds", "2", "--format", "dat"],
        "bb9824983a3f773b92dafa16a5b2ea2492189a72a470df66d4f49cf476203728",
    ),
    "sweep_quality.json": (
        ["sweep-quality", "--with-oracle", "--seeds", "2", "--format", "json"],
        "832502b0311c349ec6d224d09c8b9128ba0c0707c575801c90b0014571c1bbf5",
    ),
}


@pytest.mark.parametrize("name", sorted(SWEEP_FORMAT_GOLDEN))
def test_sweep_dat_and_json_digests(name, tmp_path):
    argv, digest = SWEEP_FORMAT_GOLDEN[name]
    assert cli.main([*argv, *SMALL, "-o", str(tmp_path)]) == 0
    assert [p.name for p in tmp_path.iterdir()] == [name]
    assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest


def test_run_summary_and_series(small_cfg):
    metrics = run(small_cfg, LyapunovParams(v_factor=1.0))
    summary = run_summary(metrics)
    assert summary["policy"] == "lyapunov[v=1]"
    assert summary["cost_microcents"] == metrics.cost_total_microcents
    assert summary["cost_dollars"] == round(metrics.cost_total_microcents / 1e8, 8)
    assert summary["workload_complete"] is True
    json.dumps(summary)  # stays serializable

    series = run_series_csv(metrics).decode("ascii")
    rows = list(csv.DictReader(io.StringIO(series)))
    assert len(rows) == small_cfg.horizon
    assert int(rows[0]["slot"]) == 0
    total = float(rows[-1]["cost_dollars"])
    assert total == pytest.approx(metrics.cost_total_microcents / 1e8, abs=1e-8)


def test_comparison_table_layout(small_cfg):
    from hpclease import compare_with_oracle

    trace = generate_trace(small_cfg, small_cfg.seed)
    lyap = run(small_cfg, LyapunovParams(v_factor=1.0), trace)
    static = run(small_cfg, StaticParams(50, 10), trace)
    offline, _ = compare_with_oracle(small_cfg, trace, [lyap, static])
    rows = list(zip([lyap, static], offline))
    table = comparison_table_csv(rows, oracle_row=("oracle[m=0]", 4200)).decode()
    lines = table.strip().split("\n")
    assert lines[0].split(",")[0] == "policy"
    assert len(lines) == 4
    static_cells = lines[2].split(",")
    assert static_cells[0] == "static[50/10]"
    assert static_cells[5] == "false"
    assert static_cells[6] == ""  # not comparable: no oracle cost
    oracle_cells = lines[3].split(",")
    assert oracle_cells[0] == "oracle[m=0]"
    assert oracle_cells[2] == "4200"


def test_comparison_ratio_cells(small_cfg):
    base = run(small_cfg, LyapunovParams(v_factor=1.0), generate_trace(small_cfg, 7))
    rows = [
        (dataclasses.replace(base, cost_total_microcents=online), offline)
        for online, offline in [(10, 8), (0, 0), (5, 0)]
    ]
    lines = comparison_table_csv(rows).decode().strip().split("\n")[1:]
    assert [line.split(",")[7] for line in lines] == ["1.250000", "1.000000", "inf"]
