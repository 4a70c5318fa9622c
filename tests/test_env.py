import base64
import dataclasses
import json

import numpy as np
import pytest

from hpclease import (
    LyapunovParams,
    ScenarioConfig,
    generate_trace,
    load_trace,
    run,
    save_trace,
)
from hpclease.env import SpectrumLevel, reduced_unit_packets, to_microcents
from hpclease.errors import ConfigurationError, TraceFormatError

from reference import ArrivalBatch


def test_unit_prices_half_fraction():
    # half of an odd 7-packet unit rounds up to a 4-packet reduced unit
    cfg = ScenarioConfig(k_concentrators=1, horizon=50, unit_size_packets=7)
    trace = generate_trace(cfg, 3)
    assert np.array_equal(trace.price_full, trace.price_packet * 7)
    assert np.array_equal(trace.price_reduced, trace.price_packet * 4)


def test_unit_prices_degenerate_single_packet_unit():
    # a reduced one-packet unit is no cheaper than the full one
    with pytest.raises(ConfigurationError, match="unit_size_packets 1"):
        ScenarioConfig(k_concentrators=1, horizon=50, mean_arrival=1)


def test_unit_prices_small_fraction():
    # ceil(0.3 * 10) is 3 packets, though the float product is 2.9999999999999996
    cfg = ScenarioConfig(
        k_concentrators=1, horizon=50, mean_arrival=10, reduced_fraction=0.3
    )
    trace = generate_trace(cfg, 3)
    assert np.array_equal(trace.price_full, trace.price_packet * 10)
    assert np.array_equal(trace.price_reduced, trace.price_packet * 3)


def test_unit_prices_rejects_bad_inputs():
    cfg = ScenarioConfig(k_concentrators=1, horizon=50)
    for bad in (
        {"price_low_cents": 0.0},
        {"unit_size_packets": 0},
        {"reduced_fraction": 0.0},
        {"reduced_fraction": 1.0},
    ):
        with pytest.raises(ConfigurationError):
            dataclasses.replace(cfg, **bad)


def test_reduced_unit_packets_is_exact_ceiling():
    assert reduced_unit_packets(5, 0.5) == 3
    assert reduced_unit_packets(10, 0.3) == 3
    assert reduced_unit_packets(4, 0.5) == 2  # exact product stays exact
    assert reduced_unit_packets(3, 1 / 3) == 1


def test_price_sample_ordering_enforced():
    # building a trace checks every slot for 0 < reduced < full
    cfg = ScenarioConfig(k_concentrators=2, horizon=6)
    base = generate_trace(cfg, 0)
    ones = np.ones(6, dtype=np.int64)
    good = dataclasses.replace(base, price_full=2 * ones, price_reduced=ones)
    run(cfg, LyapunovParams(v_factor=1.0), good)
    for full, reduced in ((1, 1), (2, 0)):
        with pytest.raises(ConfigurationError, match="slot 3 prices"):
            dataclasses.replace(
                good,
                price_full=np.where(np.arange(6) == 3, full, good.price_full),
                price_reduced=np.where(np.arange(6) == 3, reduced, good.price_reduced),
            )


def test_arrival_batch_rejects_negative():
    ArrivalBatch(slot=0, packets=0)
    with pytest.raises(ConfigurationError):
        ArrivalBatch(slot=-1, packets=3)
    with pytest.raises(ConfigurationError):
        ArrivalBatch(slot=3, packets=-1)


def test_trace_dimensions_default_scenario():
    cfg = ScenarioConfig(seed=3)
    trace = generate_trace(cfg, cfg.seed)
    assert trace.levels.shape == (60, 10000)
    assert trace.arrivals.shape == (60, 10000)
    assert trace.price_packet.shape == (10000,)
    assert trace.price_full.shape == (10000,)


def test_trace_same_seed_same_trace():
    cfg = ScenarioConfig(k_concentrators=3, horizon=500, seed=11)
    same = save_trace(generate_trace(cfg, 11))
    assert save_trace(generate_trace(cfg, 11)) == same
    assert save_trace(generate_trace(cfg, 12)) != same


def test_trace_zero_horizon_rejected():
    with pytest.raises(ConfigurationError):
        generate_trace(ScenarioConfig(horizon=0), 0)


def test_trace_empty_price_interval_rejected():
    with pytest.raises(ConfigurationError):
        ScenarioConfig(price_low_cents=0.5, price_high_cents=0.5)


def test_trace_prices_within_bounds_and_consistent():
    cfg = ScenarioConfig(k_concentrators=2, horizon=3000, seed=5)
    trace = generate_trace(cfg, 5)
    lo, hi = to_microcents(0.1), to_microcents(1.0)
    assert trace.price_packet.min() >= lo
    assert trace.price_packet.max() <= hi
    assert np.array_equal(trace.price_full, trace.price_packet * 5)
    assert np.array_equal(trace.price_reduced, trace.price_packet * 3)
    assert np.all(trace.price_full > trace.price_reduced)


def test_level_distribution_near_uniform():
    # 60 * 2000 = 120,000 draws; each level within 1% absolute of 1/3
    cfg = ScenarioConfig(k_concentrators=60, horizon=2000, seed=17)
    trace = generate_trace(cfg, 17)
    counts = np.bincount(trace.levels.ravel(), minlength=3)
    freqs = counts / trace.levels.size
    assert freqs.shape == (3,)
    assert np.all(np.abs(freqs - 1 / 3) < 0.01)


def test_price_mean_near_interval_midpoint():
    cfg = ScenarioConfig(k_concentrators=1, horizon=100_000, seed=23)
    trace = generate_trace(cfg, 23)
    mid = (to_microcents(0.1) + to_microcents(1.0)) / 2
    assert abs(trace.price_packet.mean() - mid) / mid < 0.01


def test_poisson_arrival_mean_near_configured():
    cfg = ScenarioConfig(
        k_concentrators=10, horizon=10_000, arrival_law="poisson", seed=29
    )
    trace = generate_trace(cfg, 29)
    mean = trace.arrivals.mean()
    assert abs(mean - 5) / 5 < 0.02
    assert trace.arrivals.max() <= cfg.arrival_bound


def test_deterministic_arrivals_are_constant():
    cfg = ScenarioConfig(k_concentrators=2, horizon=100, seed=1)
    trace = generate_trace(cfg, 1)
    assert np.all(trace.arrivals == 5)


def test_save_load_round_trip(small_cfg):
    trace = generate_trace(small_cfg, small_cfg.seed)
    again = load_trace(save_trace(trace))
    assert save_trace(again) == save_trace(trace)
    assert again.seed == trace.seed
    assert again.config_digest == trace.config_digest


def test_load_rejects_damaged_payloads(small_cfg):
    payload = save_trace(generate_trace(small_cfg, 7))
    with pytest.raises(TraceFormatError):
        load_trace(b"")
    with pytest.raises(TraceFormatError):
        load_trace(payload[: len(payload) // 2])
    with pytest.raises(TraceFormatError):
        load_trace(b'{"format": "something-else", "version": 1}')
    with pytest.raises(TraceFormatError):
        load_trace(b"not json at all")


def _corrupt_levels(envelope):
    envelope["arrays"]["levels"]["b64"] = "!not base64!"


@pytest.mark.parametrize(
    "damage, match",
    [
        (lambda envelope: envelope.update(version=2), "unsupported trace version 2"),
        (lambda envelope: envelope["arrays"].pop("arrivals"), "truncated or corrupt"),
        (_corrupt_levels, "'levels' is corrupt"),
        (lambda envelope: envelope.update(k=5), "disagree with header"),
        (lambda envelope: envelope.update(horizon=7), "disagree with header"),
    ],
    ids=["version-2", "missing-array", "corrupt-base64", "header-k", "header-horizon"],
)
def test_load_rejects_a_damaged_envelope(small_cfg, damage, match):
    envelope = json.loads(save_trace(generate_trace(small_cfg, 7)))
    damage(envelope)
    with pytest.raises(TraceFormatError, match=match):
        load_trace(json.dumps(envelope).encode("utf-8"))


@pytest.mark.parametrize(
    "levels",
    [lambda shape: np.full(shape, "1", dtype="<U1"), lambda shape: np.full(shape, 1.5)],
    ids=["str", "float64"],
)
def test_load_rejects_arrays_of_another_dtype(small_cfg, levels):
    trace = generate_trace(small_cfg, 7)
    # a Trace cannot hold such levels, so the bad array goes into the file
    envelope = json.loads(save_trace(trace))
    bad = levels(trace.levels.shape)
    envelope["arrays"]["levels"] = {
        "dtype": str(bad.dtype),
        "shape": list(bad.shape),
        "b64": base64.b64encode(bad.tobytes()).decode("ascii"),
    }
    with pytest.raises(TraceFormatError, match="'levels'"):
        load_trace(json.dumps(envelope).encode("utf-8"))


def _with_cell(arr: np.ndarray, value: int) -> np.ndarray:
    out = arr.copy()
    out[0, 4] = value
    return out


@pytest.mark.parametrize(
    "field, bad, match",
    [
        ("arrivals", lambda t: _with_cell(t.arrivals, -7), "negative arrival counts"),
        ("levels", lambda t: _with_cell(t.levels, 3), "invalid spectrum level codes"),
        ("levels", lambda t: t.levels.astype(np.int64), "'levels' is not uint8"),
    ],
    ids=["negative-arrival", "level-code-3", "int64-levels"],
)
def test_hand_built_trace_is_checked_when_built(small_cfg, field, bad, match):
    # each once ran, crashed with IndexError or was accepted, before any check
    trace = generate_trace(small_cfg, 7)
    with pytest.raises(TraceFormatError, match=match):
        dataclasses.replace(trace, **{field: bad(trace)})
    # a built trace cannot be edited into an invalid one
    with pytest.raises(ValueError, match="read-only"):
        trace.price_full[0] = 0
    with pytest.raises(dataclasses.FrozenInstanceError):
        trace.price_full = np.zeros_like(trace.price_full)


def test_spectrum_level_codes_are_stable():
    assert int(SpectrumLevel.NONE) == 0
    assert int(SpectrumLevel.REDUCED) == 1
    assert int(SpectrumLevel.FULL) == 2
