import dataclasses
import json
import math
import tracemalloc
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hpclease import ScenarioConfig, generate_trace
from hpclease.cli import PRESETS
from hpclease.config import MAX_CELLS, MAX_WEIGHT
from hpclease.env import (
    EXACT_MICROCENTS,
    MICROCENTS_PER_CENT,
    SpectrumLevel,
    Trace,
    to_microcents,
)
from hpclease.errors import ConfigurationError, InfeasibleError
from hpclease.policy import (
    IS_REDUCED,
    QUALITY_TABLE,
    Action,
    LyapunovParams,
    LyapunovPolicy,
    QualityParams,
    QualityPolicy,
    StaticBurstPolicy,
    StaticParams,
    slot_thresholds,
)

from conftest import run_core, serve_recorded
from reference import (
    ConcentratorState,
    PapMirror,
    advance_virtual,
    lyapunov_decide,
    lyapunov_step,
    packet_grant,
    quality_decide,
    serve_grant_slots,
    static_decide,
    threshold_actions,
)

NONE, REDUCED, FULL = SpectrumLevel.NONE, SpectrumLevel.REDUCED, SpectrumLevel.FULL


def price(full_cents, reduced_cents):
    """One slot's (full, reduced) unit prices in micro-cents."""
    return to_microcents(full_cents), to_microcents(reduced_cents)


def unit5(free_reduced=2, **fields):
    """A scenario with 5-packet units and ``free_reduced`` (0 or 2) free
    packets per slot on reduced spectrum."""
    return ScenarioConfig(reduced_fraction={0: 0.1, 2: 0.5}[free_reduced], **fields)


def price_trace(full, reduced=None, k=1):
    """A trace of k concentrators with these per-slot unit prices in
    micro-cents (reduced ones at half by default), no free spectrum and no
    arrivals: a policy's constructor reads only its prices and shape."""
    full = np.asarray(full, dtype=np.int64)
    reduced = full // 2 if reduced is None else np.asarray(reduced, dtype=np.int64)
    levels = np.zeros((k, full.size), dtype=np.uint8)
    return Trace(0, "", levels, levels.astype(np.int32), full, full, reduced)


def thresholds(v_factor, full_microcents):
    """The Lyapunov policy's per-slot purchase thresholds for these prices:
    the one column of a one-run policy's (T, R) thresholds."""
    trace = price_trace(full_microcents)
    return LyapunovPolicy(LyapunovParams(v_factor), unit5(), trace).threshold[:, 0]


def quality_policy(params, prices):
    """A deadline scheduler over (full, reduced) micro-cent pairs, one per slot."""
    full, reduced = np.array(prices, dtype=np.int64).reshape(-1, 2).T
    return QualityPolicy(params, unit5(), price_trace(full, reduced))


def test_threshold_examples():
    assert thresholds(3.2e7, [to_microcents(0.5)]).tolist() == [8.0e6]
    assert thresholds(0.0, [to_microcents(0.42)]).tolist() == [0.0]
    prices = [to_microcents(c) for c in (0.3, 0.9, 0.11)]
    for v in (1.0, 17.0, 250.0):
        assert np.array_equal(thresholds(2 * v, prices), 2 * thresholds(v, prices))


def test_threshold_rejects_bad_inputs():
    with pytest.raises(ConfigurationError):
        thresholds(-1.0, [to_microcents(0.5)])
    # a zero price never reaches a threshold: no trace can hold one
    cfg = ScenarioConfig(k_concentrators=1, horizon=4)
    zero = np.zeros(4, dtype=np.int64)
    with pytest.raises(ConfigurationError, match="slot 0 prices"):
        dataclasses.replace(generate_trace(cfg, 0), price_full=zero, price_reduced=zero)


def test_lyapunov_decide_buys_above_threshold():
    d = lyapunov_decide(8.1e6, 8.0e6, NONE, q_len=10, capacity=5, reduced_capacity=2)
    assert d == Action.BUY_FULL


def test_lyapunov_decide_idle_when_empty():
    d = lyapunov_decide(0.0, 8.0e6, NONE, q_len=0, capacity=5, reduced_capacity=2)
    assert d == Action.IDLE


def test_lyapunov_decide_prefers_free_spectrum():
    d = lyapunov_decide(9.9e9, 1.0, FULL, q_len=10, capacity=5, reduced_capacity=2)
    assert d == Action.FREE_FULL


def test_lyapunov_decide_tie_does_not_buy():
    d = lyapunov_decide(8.0e6, 8.0e6, NONE, q_len=10, capacity=5, reduced_capacity=2)
    assert d == Action.IDLE


def test_lyapunov_decide_partial_free_capacity():
    # below threshold with reduced spectrum: move what the level gives
    d = lyapunov_decide(3.0, 100.0, REDUCED, q_len=10, capacity=5, reduced_capacity=2)
    assert d == Action.FREE_FULL
    # a short queue is fully covered by the reduced level
    d = lyapunov_decide(3.0, 0.0, REDUCED, q_len=2, capacity=5, reduced_capacity=2)
    assert d == Action.FREE_FULL


@given(
    st.floats(min_value=0, max_value=1e9),
    st.integers(min_value=6_250, max_value=62_500),
    st.integers(min_value=0, max_value=4),
)
@settings(max_examples=300, deadline=None)
def test_lyapunov_scaling_invariance(y, c16, exp):
    # V -> alpha*V and c -> c/alpha with alpha a power of two is exact; c is
    # a multiple of 16 micro-cents, so c/alpha is a whole price too
    alpha = 2**exp
    c = 16 * c16
    base = lyapunov_decide(
        y, thresholds(64.0, [c])[0], NONE, q_len=7, capacity=5, reduced_capacity=2
    )
    scaled = lyapunov_decide(
        y,
        thresholds(64.0 * alpha, [c // alpha])[0],
        NONE,
        q_len=7,
        capacity=5,
        reduced_capacity=2,
    )
    assert base == scaled


@given(
    st.floats(min_value=0, max_value=1e8),
    st.integers(min_value=100_000, max_value=1_000_000),
    st.floats(min_value=0, max_value=1e4),
    st.floats(min_value=0, max_value=1e4),
)
@settings(max_examples=300, deadline=None)
def test_lyapunov_purchases_nonincreasing_in_v(y, c, v1, dv):
    # anything bought at the larger V is also bought at the smaller V
    v2 = v1 + dv
    args = dict(level=NONE, q_len=9, capacity=5, reduced_capacity=2)
    high = lyapunov_decide(y, thresholds(v2, [c])[0], **args)
    low = lyapunov_decide(y, thresholds(v1, [c])[0], **args)
    if high == Action.BUY_FULL:
        assert low == Action.BUY_FULL


def test_static_decide_scheme_boundaries():
    s1 = StaticParams(period=1000, burst_len=200)
    s2 = StaticParams(period=1000, burst_len=150)
    assert static_decide(1001, s1) is True
    assert static_decide(1200, s1) is True
    assert static_decide(1201, s1) is False
    assert static_decide(1150, s2) is True
    assert static_decide(1151, s2) is False
    assert static_decide(0, s1) is False
    assert static_decide(1, s1) is True
    assert static_decide(200, s1) is True
    assert static_decide(201, s1) is False


def test_static_params_validation():
    with pytest.raises(ConfigurationError):
        StaticParams(period=1000, burst_len=0)
    with pytest.raises(ConfigurationError):
        StaticParams(period=100, burst_len=200)


def test_static_burst_length_is_exact():
    s1 = StaticParams(period=1000, burst_len=200)
    per_period = sum(static_decide(t, s1) for t in range(1, 1001))
    assert per_period == 200
    next_period = sum(static_decide(t, s1) for t in range(1001, 2001))
    assert next_period == 200


def test_pap_running_mean():
    mirror = PapMirror(beta_c=0.5)
    mirror.observe(*price(0.4, 0.2))
    mirror.observe(*price(0.6, 0.3))
    assert mirror.pap_full_microcents == pytest.approx(0.25 * MICROCENTS_PER_CENT)
    assert mirror.pap_reduced_microcents == pytest.approx(0.125 * MICROCENTS_PER_CENT)
    # the policy's third slot compares with that mean; prices equal to it qualify
    policy = quality_policy(
        quality_params(beta=0.5), [price(0.4, 0.2), price(0.6, 0.3), price(0.25, 0.125)]
    )
    assert policy.attractive_full.tolist() == [False, False, True]
    assert policy.attractive_reduced.tolist() == [False, False, True]


def test_pap_single_observation():
    mirror = PapMirror(beta_c=1.0)
    mirror.observe(*price(0.7, 0.3))
    assert mirror.pap_full_microcents == pytest.approx(0.7 * MICROCENTS_PER_CENT)
    policy = quality_policy(
        quality_params(), [price(0.7, 0.3), price(0.7, 0.3), price(0.71, 0.29)]
    )
    assert policy.attractive_full.tolist() == [False, True, False]
    assert policy.attractive_reduced.tolist() == [False, True, True]


def test_pap_zero_beta_never_attractive():
    mirror = PapMirror(beta_c=0.0)
    for _ in range(5):
        mirror.observe(*price(0.9, 0.4))
    assert mirror.pap_full_microcents == 0.0
    assert mirror.pap_reduced_microcents == 0.0
    # the cheapest possible posted price still fails price <= pap
    policy = quality_policy(quality_params(beta=0.0), [price(0.9, 0.4)] * 5 + [(2, 1)])
    assert not policy.attractive_full.any()
    assert not policy.attractive_reduced.any()


def test_pap_rejects_bad_beta():
    for beta in (1.5, -0.1):
        with pytest.raises(ConfigurationError):
            quality_policy(quality_params(beta=beta), [price(0.9, 0.4)])


@pytest.mark.parametrize("beta_c", [0.0, 0.7, 1.0])
def test_pap_flags_match_running_mean_mirror(beta_c):
    # every slot of a 10,000-slot reference trace, bit for bit
    cfg = PRESETS["reference"]
    trace = generate_trace(cfg, cfg.seed)
    params = QualityParams(
        n_units=9_000, deadline=9_999, quality_budget=0, beta_c=beta_c
    )
    policy = QualityPolicy(params, cfg, trace)
    mirror = PapMirror(beta_c)
    full_flags, reduced_flags = [], []
    for full, reduced in zip(trace.price_full.tolist(), trace.price_reduced.tolist()):
        full_flags.append(full <= mirror.pap_full_microcents)
        reduced_flags.append(reduced <= mirror.pap_reduced_microcents)
        mirror.observe(full, reduced)
    assert trace.horizon == len(full_flags) == 10_000
    assert policy.attractive_full.tolist() == full_flags
    assert policy.attractive_reduced.tolist() == reduced_flags
    assert (0 < sum(full_flags) < trace.horizon) == (beta_c > 0)


def quality_params(n=5, t=8, m=2, beta=1.0):
    return QualityParams(n_units=n, deadline=t, quality_budget=m, beta_c=beta)


def test_quality_decide_deadline_forces_cheapest_purchase():
    params = quality_params(n=5, t=8, m=2)
    tracker = PapMirror(beta_c=1.0)
    # slots 6,7,8 remain for 3 units: every slot is forced
    d = quality_decide(params, tracker, 6, NONE, price(0.9, 0.5), 3, 1)
    assert d == Action.BUY_REDUCED
    d = quality_decide(params, tracker, 6, NONE, price(0.9, 0.5), 3, 0)
    assert d == Action.BUY_FULL
    d = quality_decide(params, tracker, 6, FULL, price(0.9, 0.5), 3, 0)
    assert d == Action.FREE_FULL
    d = quality_decide(params, tracker, 6, REDUCED, price(0.9, 0.5), 3, 1)
    assert d == Action.FREE_REDUCED


def test_quality_decide_free_full_preferred():
    params = quality_params()
    tracker = PapMirror(beta_c=1.0)
    d = quality_decide(params, tracker, 2, FULL, price(0.9, 0.5), 4, 2)
    assert d == Action.FREE_FULL


def test_quality_decide_idle_when_done():
    params = quality_params()
    tracker = PapMirror(beta_c=1.0)
    d = quality_decide(params, tracker, 3, FULL, price(0.1, 0.05), 0, 2)
    assert d == Action.IDLE


def test_quality_decide_waits_for_arrivals():
    # slot 1, two units already sent is impossible; with zero sent the
    # only available unit is unit 1
    params = quality_params(n=5, t=8, m=0)
    tracker = PapMirror(beta_c=1.0)
    d = quality_decide(params, tracker, 1, FULL, price(0.9, 0.5), 5, 0)
    assert d == Action.FREE_FULL
    # 4 remaining of 5 at slot 1 means unit 1 went out at slot 1 already
    d = quality_decide(params, tracker, 1, FULL, price(0.9, 0.5), 4, 0)
    assert d == Action.IDLE


def test_quality_decide_shops_below_pap():
    params = quality_params(n=2, t=9, m=1)
    tracker = PapMirror(beta_c=1.0)
    tracker.observe(*price(0.6, 0.3))
    d = quality_decide(params, tracker, 2, NONE, price(0.5, 0.4), 2, 1)
    assert d == Action.BUY_FULL  # full at/below its average
    d = quality_decide(params, tracker, 2, NONE, price(0.7, 0.3), 2, 1)
    assert d == Action.BUY_REDUCED  # only reduced is attractive
    d = quality_decide(params, tracker, 2, NONE, price(0.7, 0.3), 2, 0)
    assert d == Action.IDLE  # no budget left for the reduced buy
    d = quality_decide(params, tracker, 2, NONE, price(0.7, 0.4), 2, 1)
    assert d == Action.IDLE  # neither price attractive


def test_quality_decide_guards():
    params = quality_params(n=5, t=8)
    tracker = PapMirror(beta_c=1.0)
    with pytest.raises(InfeasibleError):
        quality_decide(params, tracker, 7, NONE, price(0.9, 0.5), 3, 1)
    with pytest.raises(ConfigurationError):
        quality_decide(params, tracker, 0, NONE, price(0.9, 0.5), 3, 1)
    with pytest.raises(ConfigurationError):
        quality_decide(params, tracker, 9, NONE, price(0.9, 0.5), 0, 0)
    with pytest.raises(ConfigurationError):
        quality_decide(params, tracker, 2, NONE, price(0.9, 0.5), -1, 0)


def test_quality_params_validation():
    quality_params()
    with pytest.raises(ConfigurationError):
        QualityParams(n_units=5, deadline=4, quality_budget=0)
    with pytest.raises(ConfigurationError):
        QualityParams(n_units=5, deadline=8, quality_budget=5)
    with pytest.raises(ConfigurationError):
        QualityParams(n_units=5, deadline=8, quality_budget=0, beta_c=2.0)
    with pytest.raises(ConfigurationError):
        QualityParams(n_units=0, deadline=8, quality_budget=0)


def test_lyapunov_params_validation():
    LyapunovParams(v_factor=0.0)
    with pytest.raises(ConfigurationError):
        LyapunovParams(v_factor=-1.0)
    # the policy's epsilon is the scenario's
    for epsilon in (0.0, float("inf")):
        with pytest.raises(ConfigurationError, match="epsilon"):
            dataclasses.replace(ScenarioConfig(), epsilon=epsilon)


def test_threshold_weights_are_bounded_so_no_float_overflows():
    # epsilon 1e308 once overflowed Z, and v_factor 1e308 the threshold, to
    # inf with only a RuntimeWarning, and the run went on
    with pytest.raises(ConfigurationError, match="epsilon"):
        ScenarioConfig(k_concentrators=2, horizon=50, epsilon=1e308, seed=1)
    with pytest.raises(ConfigurationError, match="v_factor"):
        LyapunovParams(v_factor=1e308)
    # at the bound, Z over the longest horizon and the threshold at the
    # dearest unit price stay finite; tier-1 fails on a RuntimeWarning
    assert np.isfinite(np.float64(MAX_WEIGHT) * (MAX_CELLS + 1))
    assert np.isfinite(np.float64(MAX_WEIGHT) * EXACT_MICROCENTS / MICROCENTS_PER_CENT)
    cfg = ScenarioConfig(k_concentrators=2, horizon=50, epsilon=MAX_WEIGHT, seed=1)
    core = run_core(cfg, LyapunovParams(v_factor=MAX_WEIGHT))
    assert np.isfinite(core.policy.z).all()
    schema = Path(__file__).resolve().parent.parent / "docs" / "schema"
    config_schema = json.loads((schema / "scenario_config.schema.json").read_text())
    assert config_schema["properties"]["epsilon"]["maximum"] == MAX_WEIGHT


@st.composite
def _threshold_runs(draw):
    cfg = ScenarioConfig(
        k_concentrators=draw(st.integers(1, 5)),
        horizon=draw(st.integers(50, 600)),
        mean_arrival=draw(st.integers(2, 8)),
        arrival_law=draw(st.sampled_from(["deterministic", "poisson"])),
        epsilon=draw(st.sampled_from([None, 0.5, 3.0])),
        seed=draw(st.integers(0, 1000)),
    )
    return cfg, LyapunovParams(v_factor=draw(st.floats(1.0, 1000.0)))


@given(_threshold_runs())
@settings(max_examples=40, deadline=None)
def test_threshold_policy_keeps_its_worst_case_delay_bound(case):
    """No packet waits more than ceil((Q_max + Z_max) / epsilon) slots, the
    epsilon-persistent queue bound (M. J. Neely, Stochastic Network
    Optimization, 2010; INFOCOM 2011): a packet unserved for D slots saw
    Q > 0 in each, so Z grew by epsilon * D less the fewer than Q_max
    packets served ahead of it."""
    cfg, params = case
    q_max = np.zeros(cfg.k_concentrators)
    z_max = np.zeros(cfg.k_concentrators)
    decide = LyapunovPolicy.decide_slot

    def recording(self, threshold, q, served):
        np.maximum(q_max, q, out=q_max)  # pre-service Q
        decide(self, threshold, q, served)
        np.maximum(z_max, self.z, out=z_max)

    trace = generate_trace(cfg, cfg.seed)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(LyapunovPolicy, "decide_slot", recording)
        core = run_core(cfg, params, trace)
    np.maximum(q_max, core.q, out=q_max)  # Q after the last slot's arrivals
    arrived = np.cumsum(trace.arrivals, axis=1)
    served = np.cumsum(core.serves, axis=1)
    for i in range(cfg.k_concentrators):
        # the last packet of each slot's batch waits longest; one still
        # queued at the end counts its wait so far (it leaves at the horizon)
        slots = np.flatnonzero(trace.arrivals[i])
        wait = int((np.searchsorted(served[i], arrived[i, slots]) - slots).max())
        bound = math.ceil((q_max[i] + z_max[i]) / cfg.epsilon)
        assert wait <= bound, (i, wait, bound)


@st.composite
def _unit_batch_runs(draw):
    unit = draw(st.integers(2, 8))
    cfg = ScenarioConfig(
        k_concentrators=draw(st.integers(1, 5)),
        horizon=draw(st.integers(50, 600)),
        mean_arrival=draw(st.integers(1, unit)),
        unit_size_packets=unit,
        arrival_law=draw(st.sampled_from(["deterministic", "poisson"])),
        arrival_bound=unit,
        reduced_fraction=draw(st.sampled_from([0.1, 0.5])),
        epsilon=draw(st.sampled_from([None, 0.5, 3.0])),
        seed=draw(st.integers(0, 1000)),
    )
    return cfg, LyapunovParams(v_factor=draw(st.floats(0.0, 100.0)))


@given(_unit_batch_runs())
@settings(max_examples=40, deadline=None)
def test_threshold_policy_keeps_its_backlog_bound(case):
    """When no arrival batch exceeds the unit, the pre-service backlog stays
    at most max(threshold) + max(arrivals): above the largest threshold
    Q + Z exceeds every slot's threshold, so the policy leases a full unit,
    which serves at least the batch that arrives after it."""
    cfg, params = case
    trace = generate_trace(cfg, cfg.seed)
    assert trace.arrivals.max() <= cfg.unit_size_packets  # the premise
    core = run_core(cfg, params, trace)
    backlog = np.cumsum(trace.arrivals - core.serves, axis=1)
    before = np.zeros(trace.arrivals.shape, dtype=np.int64)
    before[:, 1:] = backlog[:, :-1]  # Q before each slot's service
    bound = core.policy.threshold.max() + trace.arrivals.max(axis=1)
    assert (before.max(axis=1) <= bound).all()


@st.composite
def _step_runs(draw):
    """One to three threshold runs with 0 or unit // 2 free packets on
    reduced spectrum."""
    unit = draw(st.integers(2, 8))
    cfg = ScenarioConfig(
        k_concentrators=draw(st.integers(1, 40)),
        horizon=draw(st.integers(2, 400)),
        mean_arrival=draw(st.integers(1, 2 * unit)),
        unit_size_packets=unit,
        arrival_law=draw(st.sampled_from(["deterministic", "poisson"])),
        reduced_fraction=draw(st.sampled_from([0.1, 0.5])),
        epsilon=draw(st.sampled_from([None, 0.37, 3.0])),
        seed=draw(st.integers(0, 1000)),
    )
    weights = draw(st.lists(st.floats(0.0, 1000.0), min_size=1, max_size=3))
    return cfg, [LyapunovParams(v) for v in weights]


# the reference preset's fleet over four slot blocks, and one slot per
# block; a batch of three weights over eleven blocks, and of two over one
# slot per block
@example((
    PRESETS["reference"].with_overrides(horizon=1000, epsilon=0.37), [LyapunovParams(10.0)]
))
@example((
    ScenarioConfig(k_concentrators=2**14 + 1, horizon=3, arrival_law="poisson", seed=2),
    [LyapunovParams(10.0)],
))
@example((
    PRESETS["reference"].with_overrides(horizon=1000, epsilon=0.37),
    [LyapunovParams(v) for v in (10.0, 0.5, 1e4)],
))
@example((
    ScenarioConfig(k_concentrators=2**13 + 1, horizon=3, arrival_law="poisson", seed=2),
    [LyapunovParams(10.0), LyapunovParams(0.5)],
))
@given(_step_runs())
@settings(max_examples=60, deadline=None)
def test_in_place_slot_step_matches_the_int64_step(case):
    """Threshold runs served as one batch, each slot stepped in place on
    flat float64 rows, against each run's own step as it was before (an
    int64 backlog, a new grant array per slot): run r's rows hold the same
    codes, packets served, Q and Z, to the bit, and the loop's sums of
    each run are those of the old step's packets served and codes."""
    cfg, params = case
    trace = generate_trace(cfg, cfg.seed)
    k = cfg.k_concentrators
    batch = LyapunovPolicy(tuple(params), cfg, trace)
    serves, (q, departed, bills, leases, service, sends) = serve_recorded(batch, trace)
    assert q.dtype == departed.dtype == bills.dtype == service.dtype == np.int64
    assert leases.dtype == np.int32 and sends.dtype == np.int64
    for r, p in enumerate(params):
        own = slice(r * k, (r + 1) * k)
        reference = LyapunovPolicy(p, cfg, trace)
        expected, expected_q = serve_grant_slots(partial(lyapunov_step, reference), trace)
        codes = threshold_actions(cfg, serves[own], trace.levels)
        assert codes.dtype == np.uint8
        expected_codes = threshold_actions(cfg, expected, trace.levels)
        assert codes.tobytes() == expected_codes.tobytes(), p
        assert serves[own].tobytes() == expected.tobytes(), p
        assert q[own].tobytes() == expected_q.tobytes(), p
        assert batch.z[own].tobytes() == reference.z.tobytes(), p
        leased = expected_codes == Action.BUY_FULL
        assert np.array_equal(departed[own], expected.sum(axis=1)), p
        assert np.array_equal(bills[own], leased @ trace.price_full), p
        assert np.array_equal(leases[r], leased.sum(axis=0)), p
        assert np.array_equal(service[r], expected.sum(axis=0)), p
        assert sends[r] == np.count_nonzero(expected), p


def test_threshold_slot_step_allocates_nothing():
    """64 slot steps of a 4,096-wide fleet peak below one (K,) bool mask,
    the smallest row a call could allocate: no call copies an operand, such
    as a stride-0 view, or makes a mask or a float64 row."""
    cfg = ScenarioConfig(k_concentrators=4096, horizon=64, arrival_law="poisson", seed=5)
    trace = generate_trace(cfg, cfg.seed)
    policy = LyapunovPolicy(LyapunovParams(10.0), cfg, trace)
    # every slot's threshold row, as the loop builds a block's
    thresholds = slot_thresholds(policy.threshold, slice(None), cfg.k_concentrators)
    served = policy.free_capacity.astype(np.float64).take(trace.levels.T)
    q = trace.arrivals[:, 0].astype(np.float64)
    policy.decide_slot(thresholds[0], q.copy(), served[0].copy())  # first-call caches
    tracemalloc.start()
    try:
        for threshold, moved in zip(thresholds, served):
            policy.decide_slot(threshold, q, moved)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < cfg.k_concentrators, peak


def test_d_flag_matches_purchase_actions():
    # the engine counts a send as a lease when its code is >= BUY_FULL
    purchases = {a for a in Action if a >= Action.BUY_FULL}
    assert purchases == {Action.BUY_FULL, Action.BUY_REDUCED}


def test_action_classification():
    # codes are stored in the decision matrix and named in the oracle's
    # output legend; their order is the oracle's tie rule
    assert [(a.name, int(a)) for a in Action] == [
        ("IDLE", 0), ("FREE_FULL", 1), ("FREE_REDUCED", 2),
        ("BUY_FULL", 3), ("BUY_REDUCED", 4),
    ]


# -- vectorized policies agree with the scalar rules --------------------


def _served_and_codes(actions, slot, horizon, served):
    """One slot's service as int16, and the codes ``actions(serves)``, a
    packet policy's code recovery, gives it in a run that moved nothing in
    any other slot."""
    serves = np.zeros((len(served), horizon), dtype=np.int16)
    serves[:, slot] = served
    codes = actions(serves)
    return serves[:, slot], codes[:, slot]


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_lyapunov_policy_matches_scalar(data):
    k = data.draw(st.integers(min_value=1, max_value=8))
    v = data.draw(st.floats(min_value=0, max_value=100))
    levels = np.array(
        data.draw(st.lists(st.integers(0, 2), min_size=k, max_size=k)), dtype=np.uint8
    )
    q = np.array(data.draw(st.lists(st.integers(0, 30), min_size=k, max_size=k)))
    z = np.array(
        data.draw(
            st.lists(st.floats(min_value=0, max_value=50), min_size=k, max_size=k)
        )
    )
    full = data.draw(st.integers(min_value=2, max_value=1_000_000))
    # a reduced level may be worth no packets at all
    reduced_capacity = data.draw(st.sampled_from([0, 2]))
    epsilon = data.draw(st.sampled_from([0.25, 1.0, 5.0]))
    cfg = unit5(reduced_capacity, epsilon=epsilon)
    policy = LyapunovPolicy(
        LyapunovParams(v_factor=v), cfg, price_trace([7, 7, 7, full], k=k)
    )
    policy.z[:] = z
    # the step raises the slot's free grant in place
    served = policy.free_capacity[levels].astype(np.float64)
    (row,) = slot_thresholds(policy.threshold, slice(3, 4), k)  # slot 3's
    policy.decide_slot(row, q.astype(np.float64), served)
    slot_levels = np.broadcast_to(levels[:, None], (k, 4))
    served, codes = _served_and_codes(
        lambda serves: threshold_actions(cfg, serves, slot_levels), 3, 4, served
    )
    assert codes.dtype == np.uint8
    moves = packet_grant(5, reduced_capacity)
    threshold = v * (full / MICROCENTS_PER_CENT) / 2.0  # the scalar V * c / 2
    for i in range(k):
        expected = lyapunov_decide(
            float(q[i] + z[i]),
            threshold,
            SpectrumLevel(levels[i]),
            int(q[i]),
            5,
            reduced_capacity,
        )
        assert codes[i] == int(expected)
        assert served[i] == min(q[i], moves[expected, levels[i]])
        # the virtual queue advances past the slot's service
        state = ConcentratorState(z_len=float(z[i]))
        advance_virtual(state, int(served[i]), epsilon, bool(q[i] > 0))
        assert policy.z[i] == state.z_len


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_static_policy_matches_scalar(data):
    k = 4
    period = data.draw(st.integers(min_value=1, max_value=1000))
    params = StaticParams(period, data.draw(st.integers(min_value=1, max_value=period)))
    slot = data.draw(st.integers(min_value=0, max_value=2500))
    q = np.array(data.draw(st.lists(st.integers(0, 9), min_size=k, max_size=k)))
    levels = np.array(
        data.draw(st.lists(st.integers(0, 2), min_size=k, max_size=k)), dtype=np.uint8
    )
    policy = StaticBurstPolicy(params, unit5(), price_trace(np.full(2501, 10**6)))
    grants = policy.grants(np.repeat(levels[:, None], 2501, axis=1))
    assert grants.dtype == np.int16
    served, codes = _served_and_codes(
        policy.actions, slot, 2501, np.minimum(q, grants[:, slot])
    )
    moves = packet_grant(5, 2)
    for i in range(k):
        if q[i] == 0:
            expected = Action.IDLE
        elif static_decide(slot, params):
            expected = Action.BUY_FULL
        elif levels[i] != int(SpectrumLevel.NONE):
            expected = Action.FREE_FULL
        else:
            expected = Action.IDLE
        assert codes[i] == int(expected)
        assert served[i] == min(q[i], moves[expected, levels[i]])


# -- the deadline scheduler's table is its specification ----------------


def _quality_cell(price_class, state, level, has_budget):
    """quality_decide on a scenario that realizes one table cell.

    Three units are due by slot 6 with a budget of one reduced unit. The
    price history holds one pair, (0.6, 0.3) cents; the slot's pair then
    makes the full price attractive, only the reduced one, or neither.
    Cannot-send is checked both ways it can happen: every unit already
    sent, and the next unit not yet arrived."""
    params = QualityParams(n_units=3, deadline=6, quality_budget=1)
    mirror = PapMirror(beta_c=1.0)
    mirror.observe(*price(0.6, 0.3))
    prices = [price(0.5, 0.4), price(0.7, 0.3), price(0.7, 0.4)][price_class]
    # (slot, units remaining): forced leaves as many slots as units
    cases = {0: [(3, 0), (1, 2)], 1: [(3, 2)], 2: [(5, 2)]}[state]
    decided = {
        quality_decide(
            params, mirror, slot, SpectrumLevel(level), prices, remaining, has_budget
        )
        for slot, remaining in cases
    }
    assert len(decided) == 1
    return int(decided.pop())


def test_quality_table_rebuilt_from_scalar_rule():
    rebuilt = np.zeros_like(QUALITY_TABLE)
    for price_class in range(3):
        for state in range(3):
            for level in range(3):
                for has_budget in range(2):
                    rebuilt[price_class, state * 6 + level * 2 + has_budget] = (
                        _quality_cell(price_class, state, level, has_budget)
                    )
    assert QUALITY_TABLE.shape == (3, 18)
    assert np.array_equal(rebuilt, QUALITY_TABLE)


@st.composite
def _quality_runs(draw):
    """Valid params (deadline >= n_units > budget >= 0) with any per-slot
    price classes and levels over the scheduling window."""
    deadline = draw(st.integers(min_value=1, max_value=30))
    n_units = draw(st.integers(min_value=1, max_value=deadline))
    budget = draw(st.integers(min_value=0, max_value=n_units - 1))
    k = draw(st.integers(min_value=1, max_value=5))
    slots = deadline + 1
    price_class = draw(st.lists(st.integers(0, 2), min_size=slots, max_size=slots))
    levels = draw(
        st.lists(
            st.lists(st.integers(0, 2), min_size=k, max_size=k),
            min_size=slots,
            max_size=slots,
        )
    )
    params = QualityParams(n_units=n_units, deadline=deadline, quality_budget=budget)
    return params, np.array(price_class), np.array(levels, dtype=np.uint8)


@given(_quality_runs())
@settings(max_examples=200, deadline=None)
def test_forced_concentrator_always_sends(case):
    # the invariant that makes the deadline guard unbreakable: each slot,
    # remaining units <= remaining slots, with equality forcing a send
    params, price_class, levels = case
    policy = QualityPolicy(
        params, unit5(), price_trace(np.full(params.deadline + 1, 10**6))
    )
    policy.price_class = price_class
    codes = policy.schedule(np.ascontiguousarray(levels.T))
    assert codes.dtype == np.uint8
    sends = (codes != Action.IDLE).astype(np.int64)
    assert not sends[:, 0].any()  # no unit exists before slot 1
    # units remaining before each slot, and the slots left for them
    remaining = params.n_units - np.cumsum(sends, axis=1) + sends
    slots_remaining = params.deadline - np.arange(params.deadline + 1) + 1
    assert (remaining[:, 1:] <= slots_remaining[1:]).all()
    forced = remaining == slots_remaining
    forced[:, 0] = False
    assert (sends[forced] == 1).all()
    reduced = np.cumsum(IS_REDUCED[codes], axis=1)
    assert (reduced <= params.quality_budget).all()
    assert (sends.sum(axis=1) == params.n_units).all()


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_quality_policy_matches_scalar_sequence(data):
    deadline = data.draw(st.integers(min_value=2, max_value=14))
    n_units = data.draw(st.integers(min_value=1, max_value=deadline))
    budget = data.draw(st.integers(min_value=0, max_value=max(0, n_units - 1)))
    beta = data.draw(st.sampled_from([0.0, 0.5, 1.0]))
    k = data.draw(st.integers(min_value=1, max_value=4))
    params = QualityParams(
        n_units=n_units, deadline=deadline, quality_budget=budget, beta_c=beta
    )
    full_cents = data.draw(
        st.lists(st.integers(2, 100), min_size=deadline + 1, max_size=deadline + 1)
    )
    prices = [(c * 10_000, c * 5_000) for c in full_cents]
    levels = np.array(
        data.draw(
            st.lists(
                st.lists(st.integers(0, 2), min_size=deadline + 1, max_size=deadline + 1),
                min_size=k,
                max_size=k,
            )
        ),
        dtype=np.uint8,
    )

    codes = quality_policy(params, prices).schedule(levels)
    mirror = PapMirror(beta_c=beta)
    mirror.observe(*prices[0])
    remaining = [n_units] * k
    budget_left = [budget] * k
    expected_codes = np.zeros((k, deadline + 1), dtype=np.uint8)
    for slot in range(1, deadline + 1):
        for i in range(k):
            expected = quality_decide(
                params,
                mirror,
                slot,
                SpectrumLevel(levels[i, slot]),
                prices[slot],
                remaining[i],
                budget_left[i],
            )
            expected_codes[i, slot] = expected
            if expected != Action.IDLE:
                remaining[i] -= 1
            if expected in (Action.FREE_REDUCED, Action.BUY_REDUCED):
                budget_left[i] -= 1
        mirror.observe(*prices[slot])

    assert remaining == [0] * k
    assert np.array_equal(codes, expected_codes)
