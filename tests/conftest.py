import dataclasses
import hashlib
import itertools
from typing import NamedTuple

import numpy as np
import pytest

from hpclease import ScenarioConfig, Trace, generate_trace
from hpclease.engine import make_policy
from hpclease.env import to_microcents
from hpclease.oracle import OfflineInstance
from hpclease.policy import LyapunovPolicy
from reference import threshold_actions


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


def serve_recorded(policy: LyapunovPolicy, trace):
    """``policy.serve_rows(trace)``, with each slot's packets served
    recorded as the loop steps it, in the column that counts its calls
    (the loop steps the slots in order): the (R * K, T) int16 packets
    served, which the loop itself only sums, and the loop's sums."""
    serves = np.empty((policy.runs * trace.k, trace.horizon), dtype=np.int16)
    slots = itertools.count()

    def recording(threshold, q, served):
        type(policy).decide_slot(policy, threshold, q, served)
        serves[:, next(slots)] = served

    policy.decide_slot = recording
    try:
        return serves, policy.serve_rows(trace)
    finally:
        del policy.decide_slot


def run_core(config, params, trace=None) -> Core:
    """One run served as the engine serves it, for the per-cell and
    per-policy state that RunMetrics does not keep: a threshold run as a
    batch of one (serve_rows, its packets served recorded slot by slot and
    its codes recovered by reference.threshold_actions)."""
    if trace is None:
        trace = generate_trace(config, config.seed)
    policy = make_policy(params, config, trace)
    if isinstance(policy, LyapunovPolicy):
        serves, (q, *_) = serve_recorded(policy, trace)
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
