"""The one type rule: every int or float field of ScenarioConfig, the three
parameter blocks and OfflineInstance takes its annotated type when built."""

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from hpclease import (
    LyapunovParams,
    QualityParams,
    ScenarioConfig,
    StaticParams,
    compare_with_oracle,
    generate_trace,
    run,
    solve_dp,
)
from hpclease.errors import ConfigurationError

from conftest import one_row_instance

SCHEMA = Path(__file__).resolve().parent.parent / "docs" / "schema"


# levels and prices of one row of four slots without free spectrum
ROW = ([0] * 4, [10] * 4, [4] * 4)


def quality(**fields):
    return QualityParams(**{"n_units": 10, "deadline": 40, "quality_budget": 1, **fields})


# each once built and then died in a run or the oracle with a TypeError,
# IndexError or UFuncTypeError, ran silently truncated or fractional, or
# ended in a false invariant violation
@pytest.mark.parametrize(
    "build, field",
    [
        (lambda: ScenarioConfig(k_concentrators=3, horizon=100.5), "horizon"),
        (lambda: ScenarioConfig(k_concentrators=True), "k_concentrators"),
        (lambda: ScenarioConfig(k_concentrators=3, horizon=50, seed=1.5), "seed"),
        (lambda: ScenarioConfig(mean_arrival=5.5), "mean_arrival"),
        (lambda: ScenarioConfig(epsilon="3"), "epsilon"),
        (lambda: ScenarioConfig(horizon=None), "horizon"),
        (lambda: ScenarioConfig(horizon=float("inf")), "horizon"),
        (lambda: ScenarioConfig(epsilon=10**400), "epsilon"),
        (lambda: quality(quality_budget=1.5), "quality_budget"),
        (lambda: quality(n_units=10.5), "n_units"),
        (lambda: quality(beta_c=None), "beta_c"),
        (lambda: StaticParams(period=2.5, burst_len=1), "period"),
        (lambda: LyapunovParams(True), "v_factor"),
        (lambda: LyapunovParams(np.bool_(True)), "v_factor"),
        (lambda: one_row_instance(*ROW, n_units=2.5), "n_units"),
        (lambda: one_row_instance(*ROW, n_units=2, quality_budget=1.5), "quality_budget"),
        (lambda: dataclasses.replace(one_row_instance(*ROW, 2), first_slot=0.5), "first_slot"),
    ],
)
def test_wrongly_typed_value_fails_when_built(build, field):
    with pytest.raises(ConfigurationError, match=rf"\bfield {field} must be"):
        build()


def test_scenario_type_errors_keep_their_wording():
    with pytest.raises(ConfigurationError, match="scenario field horizon must be an int"):
        ScenarioConfig(horizon=100.5)
    with pytest.raises(ConfigurationError, match="scenario field seed must be a number"):
        ScenarioConfig.from_dict({"seed": "1"})
    base = ScenarioConfig(k_concentrators=3, horizon=50)
    for copy in (
        lambda: base.with_overrides(horizon=50.5),
        lambda: dataclasses.replace(base, horizon=50.5),
    ):
        with pytest.raises(ConfigurationError, match="scenario field horizon"):
            copy()


def test_integral_values_build_and_read_back_as_int():
    cfg = ScenarioConfig(
        k_concentrators=np.int64(3), horizon=100.0, mean_arrival=np.int32(5),
        unit_size_packets=5.0, seed=np.uint8(7), epsilon=np.int64(2),
    )
    for name in ("k_concentrators", "horizon", "mean_arrival", "unit_size_packets"):
        assert type(getattr(cfg, name)) is int
    assert type(cfg.seed) is int and cfg.horizon == 100 and cfg.seed == 7
    assert type(cfg.epsilon) is float and cfg.epsilon == 2.0
    assert cfg == ScenarioConfig(k_concentrators=3, horizon=100, seed=7, epsilon=2.0)
    assert cfg.env_digest() == ScenarioConfig(k_concentrators=3, horizon=100).env_digest()
    typed = quality(n_units=np.int64(10), deadline=40.0, quality_budget=np.int16(1))
    fields = typed.n_units, typed.deadline, typed.quality_budget
    assert {type(v) for v in fields} == {int}
    static = StaticParams(period=np.int64(10), burst_len=2.0)
    assert (type(static.period), type(static.burst_len), static.label) == (
        int, int, "static[10/2]"
    )
    assert type(LyapunovParams(np.int64(50)).v_factor) is float
    assert type(one_row_instance(*ROW, n_units=np.int64(2)).n_units) is int
    # the integral values run, and the oracle takes its integral instance
    metrics = run(cfg, quality(n_units=np.int64(20), deadline=90.0))
    assert metrics.k == 3 and metrics.horizon == 100
    typed = dataclasses.replace(one_row_instance(*ROW, 3.0, np.int64(1)), first_slot=np.uint8(0))
    assert {type(typed.n_units), type(typed.quality_budget), type(typed.first_slot)} == {int}
    assert solve_dp(typed).reduced_count.tolist() == [1]


def test_schema_types_match_the_field_annotations():
    schema = json.loads((SCHEMA / "scenario_config.schema.json").read_text())
    fields = {
        f.name: f.type.removesuffix(" | None") for f in dataclasses.fields(ScenarioConfig)
    }
    assert set(schema["properties"]) == set(fields)
    for name, kind in fields.items():
        prop = schema["properties"][name]
        if "enum" in prop:
            assert kind == "str" and all(isinstance(v, str) for v in prop["enum"]), name
        else:
            assert {"integer": "int", "number": "float"}[prop["type"]] == kind, name


def test_run_refuses_a_trace_drawn_for_another_scenario():
    # a quality run of a deterministic config on a same-size Poisson trace
    # once ended in "unit transmission not backed by a full unit of backlog"
    cfg = ScenarioConfig(k_concentrators=3, horizon=60, seed=4)
    poisson = generate_trace(cfg.with_overrides(arrival_law="poisson"), cfg.seed)
    params = QualityParams(n_units=59, deadline=59, quality_budget=3)
    with pytest.raises(ConfigurationError, match="drawn for another scenario"):
        run(cfg, params, poisson)
    with pytest.raises(ConfigurationError, match="drawn for another scenario"):
        compare_with_oracle(cfg, poisson, [run(cfg, params)])
    # epsilon is outside the digest, so epsilon-only variants share a trace
    trace = generate_trace(cfg, cfg.seed)
    run(cfg.with_overrides(epsilon=2.5), LyapunovParams(), trace)


def test_comparison_refuses_a_run_from_another_trace():
    # a seed-7 run compared against the seed-8 trace once raised "online
    # cost ... beats the offline optimum"
    cfg = ScenarioConfig(k_concentrators=3, horizon=60, seed=7)
    seed7 = run(cfg, LyapunovParams(v_factor=1.0))
    assert seed7.workload_complete
    with pytest.raises(ConfigurationError, match="ran on seed 7"):
        compare_with_oracle(cfg, generate_trace(cfg, 8), [seed7])
    # a run of the same seed and size on another scenario's trace once
    # raised "online cost 3024030 of concentrator 0 beats the offline optimum"
    cheap = cfg.with_overrides(price_low_cents=0.01, price_high_cents=0.02)
    cheap7 = run(cheap, LyapunovParams(v_factor=1.0))
    with pytest.raises(ConfigurationError, match="ran on seed 7"):
        compare_with_oracle(cfg, generate_trace(cfg, 7), [cheap7])
    offline, _ = compare_with_oracle(cfg, generate_trace(cfg, 7), [seed7])
    assert offline[0] is not None
