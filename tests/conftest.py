import dataclasses
import hashlib
from typing import NamedTuple

import numpy as np
import pytest

from hpclease import ScenarioConfig, Trace, generate_trace
from hpclease.engine import make_policy
from hpclease.env import to_microcents
from hpclease.oracle import OfflineInstance
from hpclease.policy import LyapunovPolicy, threshold_actions


def cents(prices) -> list[int]:
    """A list of prices in cents, in micro-cents."""
    return [to_microcents(c) for c in prices]


def one_row_instance(levels, full, reduced, n_units, quality_budget=0):
    """The offline instance of one hand-built row over its whole window
    [0, T-1]: ``levels`` is a row of T level codes, ``full`` and ``reduced``
    its unit prices in micro-cents. It views a one-row Trace of seed 0 with
    no arrivals (its packet price is the full unit's), built from copies,
    which checks the codes and prices as it checks any trace's."""
    levels = np.array(levels, dtype=np.uint8)[None]
    full = np.array(full, dtype=np.int64)
    trace = Trace(
        0, "", levels, np.zeros(levels.shape, dtype=np.int32), full, full,
        np.array(reduced, dtype=np.int64),
    )
    return OfflineInstance(trace, slice(0, 1), n_units, quality_budget, first_slot=0)


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
    per-policy state that RunMetrics does not keep: a threshold run as a
    batch of one (serve_rows, then its codes recovered by threshold_actions)."""
    if trace is None:
        trace = generate_trace(config, config.seed)
    policy = make_policy(params, config, trace)
    if isinstance(policy, LyapunovPolicy):
        serves, q = policy.serve_rows(trace)
        return Core(policy, threshold_actions(config, serves, trace.levels), serves, q)
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
