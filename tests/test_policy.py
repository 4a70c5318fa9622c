import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hpclease.env import MICROCENTS_PER_CENT, PriceSample, SpectrumLevel, to_microcents
from hpclease.errors import ConfigurationError, InfeasibleError
from hpclease.policy import (
    Action,
    LyapunovParams,
    LyapunovPolicy,
    PapTracker,
    QualityParams,
    QualityPolicy,
    StaticBurstPolicy,
    StaticParams,
    lyapunov_threshold,
    static_decide,
)

NONE, REDUCED, FULL = SpectrumLevel.NONE, SpectrumLevel.REDUCED, SpectrumLevel.FULL


def price(full_cents, reduced_cents):
    return PriceSample(
        full_microcents=to_microcents(full_cents),
        reduced_microcents=to_microcents(reduced_cents),
    )


# -- scalar references: one concentrator, one slot ----------------------
# The vectorized policies must agree with these straight-line rules.


def lyapunov_decide(y, threshold, level, q_len, capacity, reduced_capacity):
    """Threshold rule for one concentrator and one slot.

    Free spectrum is preferred: if the free capacity of ``level`` covers
    min(q_len, capacity), transmit free. Otherwise purchase exactly when
    y exceeds the threshold (ties do not purchase). With no purchase, any
    partial free capacity is still used.
    """
    if q_len <= 0:
        return Action.IDLE
    free_cap = (
        capacity
        if level == SpectrumLevel.FULL
        else reduced_capacity if level == SpectrumLevel.REDUCED else 0
    )
    need = min(q_len, capacity)
    if free_cap >= need:
        return Action.FREE_FULL
    if y > threshold:
        return Action.BUY_FULL
    if free_cap > 0:
        return Action.FREE_FULL
    return Action.IDLE


def quality_decide(
    params, tracker, slot, level, prices, units_remaining, budget_remaining
):
    """Deadline-scheduling rule for one concentrator and one slot, with the
    precedence documented on QualityPolicy."""
    if not 1 <= slot <= params.deadline:
        raise ConfigurationError(
            f"slot {slot} outside the scheduling window 1..{params.deadline}"
        )
    if units_remaining < 0 or budget_remaining < 0:
        raise ConfigurationError("negative remaining counters")
    slots_remaining = params.deadline - slot + 1
    if units_remaining > slots_remaining:
        raise InfeasibleError(
            f"{units_remaining} units cannot fit in {slots_remaining} slots"
        )
    if units_remaining == 0:
        return Action.IDLE
    sent = params.n_units - units_remaining
    available = min(slot, params.n_units) - sent
    if available <= 0:
        return Action.IDLE

    if slots_remaining == units_remaining:
        # deadline guard: transmission is mandatory this slot
        if level == SpectrumLevel.FULL:
            return Action.FREE_FULL
        if level == SpectrumLevel.REDUCED and budget_remaining > 0:
            return Action.FREE_REDUCED
        if budget_remaining > 0:
            return Action.BUY_REDUCED
        return Action.BUY_FULL

    if level == SpectrumLevel.FULL:
        return Action.FREE_FULL
    if level == SpectrumLevel.REDUCED and budget_remaining > 0:
        return Action.FREE_REDUCED
    if prices.full_microcents <= tracker.pap_full_microcents:
        return Action.BUY_FULL
    if budget_remaining > 0 and prices.reduced_microcents <= tracker.pap_reduced_microcents:
        return Action.BUY_REDUCED
    return Action.IDLE


def test_threshold_examples():
    assert lyapunov_threshold(3.2e7, 0.5) == 8.0e6
    assert lyapunov_threshold(0.0, 0.42) == 0.0
    for v, c in [(1.0, 0.3), (17.0, 0.9), (250.0, 0.11)]:
        assert lyapunov_threshold(2 * v, c) == 2 * lyapunov_threshold(v, c)


def test_threshold_rejects_bad_inputs():
    with pytest.raises(ConfigurationError):
        lyapunov_threshold(-1.0, 0.5)
    with pytest.raises(ConfigurationError):
        lyapunov_threshold(1.0, 0.0)


def test_lyapunov_decide_buys_above_threshold():
    d = lyapunov_decide(8.1e6, 8.0e6, NONE, q_len=10, capacity=5, reduced_capacity=2)
    assert d == Action.BUY_FULL
    assert d.is_purchase


def test_lyapunov_decide_idle_when_empty():
    d = lyapunov_decide(0.0, 8.0e6, NONE, q_len=0, capacity=5, reduced_capacity=2)
    assert d == Action.IDLE
    assert not d.is_purchase


def test_lyapunov_decide_prefers_free_spectrum():
    d = lyapunov_decide(9.9e9, 1.0, FULL, q_len=10, capacity=5, reduced_capacity=2)
    assert d == Action.FREE_FULL
    assert not d.is_purchase


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
    st.floats(min_value=0.1, max_value=1.0),
    st.integers(min_value=0, max_value=4),
)
@settings(max_examples=300, deadline=None)
def test_lyapunov_scaling_invariance(y, c, exp):
    # V -> alpha*V and c -> c/alpha with alpha a power of two is exact
    alpha = float(2**exp)
    base = lyapunov_decide(
        y, lyapunov_threshold(64.0, c), NONE, q_len=7, capacity=5, reduced_capacity=2
    )
    scaled = lyapunov_decide(
        y,
        lyapunov_threshold(64.0 * alpha, c / alpha),
        NONE,
        q_len=7,
        capacity=5,
        reduced_capacity=2,
    )
    assert base == scaled


@given(
    st.floats(min_value=0, max_value=1e8),
    st.floats(min_value=0.1, max_value=1.0),
    st.floats(min_value=0, max_value=1e4),
    st.floats(min_value=0, max_value=1e4),
)
@settings(max_examples=300, deadline=None)
def test_lyapunov_purchases_nonincreasing_in_v(y, c, v1, dv):
    # anything bought at the larger V is also bought at the smaller V
    v2 = v1 + dv
    args = dict(level=NONE, q_len=9, capacity=5, reduced_capacity=2)
    high = lyapunov_decide(y, lyapunov_threshold(v2, c), **args)
    low = lyapunov_decide(y, lyapunov_threshold(v1, c), **args)
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
        StaticParams(period=1000, burst_len=0).validate()
    with pytest.raises(ConfigurationError):
        StaticParams(period=100, burst_len=200).validate()


def test_static_burst_length_is_exact():
    s1 = StaticParams(period=1000, burst_len=200)
    per_period = sum(static_decide(t, s1) for t in range(1, 1001))
    assert per_period == 200
    next_period = sum(static_decide(t, s1) for t in range(1001, 2001))
    assert next_period == 200


def test_pap_running_mean():
    tracker = PapTracker(beta_c=0.5)
    tracker.observe(price(0.4, 0.2))
    tracker.observe(price(0.6, 0.3))
    assert tracker.pap_full_microcents == pytest.approx(0.25 * MICROCENTS_PER_CENT)
    assert tracker.pap_reduced_microcents == pytest.approx(0.125 * MICROCENTS_PER_CENT)


def test_pap_single_observation():
    tracker = PapTracker(beta_c=1.0)
    tracker.observe(price(0.7, 0.3))
    assert tracker.pap_full_microcents == pytest.approx(0.7 * MICROCENTS_PER_CENT)


def test_pap_zero_beta_never_attractive():
    tracker = PapTracker(beta_c=0.0)
    for _ in range(5):
        tracker.observe(price(0.9, 0.4))
    assert tracker.pap_full_microcents == 0.0
    assert tracker.pap_reduced_microcents == 0.0
    # cheapest possible posted price still fails price <= pap
    assert not (1 <= tracker.pap_full_microcents)


def test_pap_reset_clears_statistics():
    tracker = PapTracker(beta_c=0.8)
    tracker.observe(price(0.5, 0.2))
    tracker.reset()
    assert tracker.count == 0
    assert tracker.pap_full_microcents == 0.0
    assert tracker.beta_c == 0.8  # configuration survives reset


def test_pap_rejects_bad_beta():
    with pytest.raises(ConfigurationError):
        PapTracker(beta_c=1.5)
    with pytest.raises(ConfigurationError):
        PapTracker(beta_c=-0.1)


def quality_params(n=5, t=8, m=2, beta=1.0):
    return QualityParams(n_units=n, deadline=t, quality_budget=m, beta_c=beta)


def test_quality_decide_deadline_forces_cheapest_purchase():
    params = quality_params(n=5, t=8, m=2)
    tracker = PapTracker(beta_c=1.0)
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
    tracker = PapTracker(beta_c=1.0)
    d = quality_decide(params, tracker, 2, FULL, price(0.9, 0.5), 4, 2)
    assert d == Action.FREE_FULL
    assert not d.is_purchase


def test_quality_decide_idle_when_done():
    params = quality_params()
    tracker = PapTracker(beta_c=1.0)
    d = quality_decide(params, tracker, 3, FULL, price(0.1, 0.05), 0, 2)
    assert d == Action.IDLE


def test_quality_decide_waits_for_arrivals():
    # slot 1, two units already sent is impossible; with zero sent the
    # only available unit is unit 1
    params = quality_params(n=5, t=8, m=0)
    tracker = PapTracker(beta_c=1.0)
    d = quality_decide(params, tracker, 1, FULL, price(0.9, 0.5), 5, 0)
    assert d == Action.FREE_FULL
    # 4 remaining of 5 at slot 1 means unit 1 went out at slot 1 already
    d = quality_decide(params, tracker, 1, FULL, price(0.9, 0.5), 4, 0)
    assert d == Action.IDLE


def test_quality_decide_shops_below_pap():
    params = quality_params(n=2, t=9, m=1)
    tracker = PapTracker(beta_c=1.0)
    tracker.observe(price(0.6, 0.3))
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
    tracker = PapTracker(beta_c=1.0)
    with pytest.raises(InfeasibleError):
        quality_decide(params, tracker, 7, NONE, price(0.9, 0.5), 3, 1)
    with pytest.raises(ConfigurationError):
        quality_decide(params, tracker, 0, NONE, price(0.9, 0.5), 3, 1)
    with pytest.raises(ConfigurationError):
        quality_decide(params, tracker, 9, NONE, price(0.9, 0.5), 0, 0)
    with pytest.raises(ConfigurationError):
        quality_decide(params, tracker, 2, NONE, price(0.9, 0.5), -1, 0)


def test_quality_params_validation():
    quality_params().validate()
    with pytest.raises(ConfigurationError):
        QualityParams(n_units=5, deadline=4, quality_budget=0).validate()
    with pytest.raises(ConfigurationError):
        QualityParams(n_units=5, deadline=8, quality_budget=5).validate()
    with pytest.raises(ConfigurationError):
        QualityParams(n_units=5, deadline=8, quality_budget=0, beta_c=2.0).validate()
    with pytest.raises(ConfigurationError):
        QualityParams(n_units=0, deadline=8, quality_budget=0).validate()


def test_lyapunov_params_validation():
    LyapunovParams(v_factor=0.0).validate()
    with pytest.raises(ConfigurationError):
        LyapunovParams(v_factor=-1.0).validate()
    with pytest.raises(ConfigurationError):
        LyapunovParams(v_factor=1.0, epsilon=0.0).validate()


def test_d_flag_matches_purchase_actions():
    assert Action.BUY_FULL.is_purchase
    assert Action.BUY_REDUCED.is_purchase
    assert not Action.FREE_FULL.is_purchase
    assert not Action.FREE_REDUCED.is_purchase
    assert not Action.IDLE.is_purchase


def test_action_classification():
    sends = {a for a in Action if a.is_send}
    assert sends == {Action.FREE_FULL, Action.FREE_REDUCED, Action.BUY_FULL, Action.BUY_REDUCED}
    reduced = {a for a in Action if a.is_reduced_quality}
    assert reduced == {Action.FREE_REDUCED, Action.BUY_REDUCED}


# -- vectorized policies agree with the scalar rules --------------------


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
    prices = price(0.8, 0.4)
    policy = LyapunovPolicy(LyapunovParams(v_factor=v), capacity=5, reduced_capacity=2)
    policy.reset(k)
    actions = policy.decide_slot(3, levels, prices, q, z)
    threshold = lyapunov_threshold(v, prices.full_cents)
    for i in range(k):
        expected = lyapunov_decide(
            float(q[i] + z[i]),
            threshold,
            SpectrumLevel(levels[i]),
            int(q[i]),
            5,
            2,
        )
        assert actions[i] == int(expected)


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_static_policy_matches_scalar(data):
    k = 4
    slot = data.draw(st.integers(min_value=0, max_value=2500))
    q = np.array(data.draw(st.lists(st.integers(0, 9), min_size=k, max_size=k)))
    levels = np.array(
        data.draw(st.lists(st.integers(0, 2), min_size=k, max_size=k)), dtype=np.uint8
    )
    params = StaticParams(period=1000, burst_len=200)
    policy = StaticBurstPolicy(params, capacity=5, reduced_capacity=2)
    policy.reset(k)
    actions = policy.decide_slot(slot, levels, price(0.5, 0.25), q, np.zeros(k))
    for i in range(k):
        if q[i] == 0:
            assert actions[i] == int(Action.IDLE)
        elif static_decide(slot, params):
            assert actions[i] == int(Action.BUY_FULL)
        elif levels[i] != int(SpectrumLevel.NONE):
            assert actions[i] == int(Action.FREE_FULL)
        else:
            assert actions[i] == int(Action.IDLE)


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

    policy = QualityPolicy(params)
    policy.reset(k)
    mirror = PapTracker(beta_c=beta)
    remaining = [n_units] * k
    budget_left = [budget] * k

    for slot in range(1, deadline + 1):
        levels = np.array(
            data.draw(st.lists(st.integers(0, 2), min_size=k, max_size=k)),
            dtype=np.uint8,
        )
        full_c = data.draw(st.integers(min_value=2, max_value=100))
        prices = PriceSample(
            full_microcents=full_c * 10_000, reduced_microcents=full_c * 5_000
        )
        actions = policy.decide_slot(
            slot, levels, prices, np.zeros(k, int), np.zeros(k)
        )
        for i in range(k):
            expected = quality_decide(
                params,
                mirror,
                slot,
                SpectrumLevel(levels[i]),
                prices,
                remaining[i],
                budget_left[i],
            )
            assert actions[i] == int(expected)
            if expected.is_send:
                remaining[i] -= 1
            if expected.is_reduced_quality:
                budget_left[i] -= 1
        policy.observe_prices(prices)
        mirror.observe(prices)

    assert remaining == [0] * k


def test_policy_reset_equals_fresh_state():
    params = quality_params(n=3, t=6, m=1, beta=0.7)
    used = QualityPolicy(params)
    used.reset(2)
    used.decide_slot(1, np.array([2, 2], dtype=np.uint8), price(0.5, 0.25),
                     np.zeros(2, int), np.zeros(2))
    used.observe_prices(price(0.5, 0.25))
    used.reset(2)

    fresh = QualityPolicy(params)
    fresh.reset(2)
    assert used.tracker.count == fresh.tracker.count == 0
    assert np.array_equal(used.sent, fresh.sent)
    assert np.array_equal(used.reduced_used, fresh.reduced_used)
    assert used.params.beta_c == 0.7
