import dataclasses
import hashlib
from typing import NamedTuple

import numpy as np
import pytest

from hpclease import ScenarioConfig, generate_trace
from hpclease.engine import make_policy
from hpclease.env import MICROCENTS_PER_CENT
from hpclease.oracle import OfflineInstance


def cents(x: float) -> int:
    return round(x * MICROCENTS_PER_CENT)


def make_instance(levels, full_cents, reduced_cents, n_units, quality_budget=0):
    """Build a small offline instance from price lists given in cents."""
    return OfflineInstance(
        levels=np.asarray(levels, dtype=np.uint8),
        price_full_microcents=np.asarray([cents(c) for c in full_cents]),
        price_reduced_microcents=np.asarray([cents(c) for c in reduced_cents]),
        n_units=n_units,
        quality_budget=quality_budget,
    )


@pytest.fixture
def small_cfg():
    # 4 concentrators, 200 slots: big enough for behavior, fast enough
    # to run dozens of times per test module
    return ScenarioConfig(k_concentrators=4, horizon=200, seed=7)


class Core(NamedTuple):
    policy: object      # after the run; a LyapunovPolicy holds z and epsilon
    codes: np.ndarray   # (K, T) uint8 Action codes
    serves: np.ndarray  # (K, T) int16 packets served
    q: np.ndarray       # (K,) int64 backlog after the last slot


def run_core(config, params, trace=None) -> Core:
    """One run served as the engine serves it, for the per-cell and
    per-policy state that RunMetrics does not keep."""
    if trace is None:
        trace = generate_trace(config, config.seed)
    policy = make_policy(params, config, trace)
    return Core(policy, *policy.serve(trace))


def metrics_digest(metrics):
    """sha256 over every RunMetrics field: arrays by dtype, shape and bytes,
    everything else by repr."""
    h = hashlib.sha256()
    for f in dataclasses.fields(metrics):
        value = getattr(metrics, f.name)
        h.update(f.name.encode())
        if isinstance(value, np.ndarray):
            h.update(f"{value.dtype}{value.shape}".encode())
            h.update(np.ascontiguousarray(value).tobytes())
        else:
            h.update(repr(value).encode())
    return h.hexdigest()
