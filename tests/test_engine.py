import dataclasses
import hashlib
import re
from collections import Counter

import numpy as np
import pytest

from hpclease import (
    ScenarioConfig,
    cli,
    compare_with_oracle,
    derive_quality_params,
    engine,
    generate_trace,
    is_unit_granular,
    make_policy,
    run,
)
from hpclease.engine import reduced_capacity, service_capacity
from hpclease.env import SpectrumLevel, Trace
from hpclease.errors import ConfigurationError, InvariantViolationError
from hpclease.policy import (
    Action,
    BasePolicy,
    LyapunovParams,
    QualityParams,
    QualityPolicy,
    StaticParams,
)
from hpclease.queueing import (
    ConcentratorState,
    ServiceGrant,
    advance_virtual,
    enqueue,
    serve,
)

LYAP1 = LyapunovParams(v_factor=1.0)


def forced_levels_trace(cfg, level):
    base = generate_trace(cfg, cfg.seed)
    return Trace(
        seed=base.seed,
        config_digest=base.config_digest,
        levels=np.full_like(base.levels, int(level)),
        arrivals=base.arrivals,
        price_packet=base.price_packet,
        price_full=base.price_full,
        price_reduced=base.price_reduced,
    )


def test_params_labels_and_validation(small_cfg):
    assert (LYAP1.kind, LYAP1.label) == ("lyapunov", "lyapunov[v=1]")
    static = StaticParams(1000, 200)
    assert (static.kind, static.label) == ("static", "static[1000/200]")
    q = QualityParams(n_units=5, deadline=9, quality_budget=2)
    assert (q.kind, q.label) == ("quality", "quality[m=2]")
    with pytest.raises(ConfigurationError):
        make_policy("lyapunov", small_cfg)
    with pytest.raises(ConfigurationError):
        make_policy(StaticParams(period=100, burst_len=200), small_cfg)


def test_capacities(small_cfg):
    assert service_capacity(small_cfg) == 5
    assert reduced_capacity(small_cfg) == 2  # floor(0.5 * 5)


def test_zero_arrival_run_costs_nothing():
    cfg = ScenarioConfig(
        k_concentrators=3, horizon=100, mean_arrival=0, unit_size_packets=5, seed=2
    )
    metrics = run(cfg, LYAP1)
    assert metrics.cost_total_microcents == 0
    assert np.all(metrics.queue_series_mean == 0)
    assert np.all(metrics.final_queue == 0)
    assert metrics.delivered_packets == 0
    assert np.all(metrics.decisions == int(Action.IDLE))


def test_all_full_levels_run_is_free_and_stable(small_cfg):
    trace = forced_levels_trace(small_cfg, SpectrumLevel.FULL)
    metrics = run(small_cfg, LYAP1, trace)
    assert metrics.cost_total_microcents == 0
    assert metrics.queue_series_mean.max() <= small_cfg.mean_arrival
    assert metrics.workload_complete
    assert metrics.measured_mean_delay == 1.0  # arrive, then leave next slot


def test_all_none_levels_always_buy_plateau(small_cfg):
    # V=1 keeps y above the threshold from slot 1 on, so every slot after
    # the first pays for a full unit and the queue never grows past one batch
    trace = forced_levels_trace(small_cfg, SpectrumLevel.NONE)
    metrics = run(small_cfg, LYAP1, trace)
    expected = int(trace.price_full[1:].sum()) * small_cfg.k_concentrators
    assert metrics.cost_total_microcents == expected
    assert metrics.workload_complete
    assert np.all(metrics.purchases_per_slot[1:] == small_cfg.k_concentrators)
    assert metrics.purchases_per_slot[0] == 0  # nothing to send at slot 0


def test_static_purchases_exactly_burst_len_per_period():
    cfg = ScenarioConfig(k_concentrators=2, horizon=2000, seed=9)
    params = StaticParams(period=1000, burst_len=200)
    metrics = run(cfg, params)
    per_slot = metrics.purchases_per_slot
    # every concentrator is backlogged at every burst slot in this setup
    for start in (0, 1000):
        window = per_slot[start : start + 1000]
        assert int(window.sum()) == 200 * cfg.k_concentrators
        burst = np.flatnonzero(window)
        assert burst.min() == 1 and burst.max() == 200
    assert not metrics.workload_complete  # bursts cannot keep up


def test_cost_series_accounting(small_cfg):
    metrics = run(small_cfg, LYAP1, record_series=True)
    assert metrics.cost_series_fleet[-1] == metrics.cost_total_microcents
    assert np.all(np.diff(metrics.cost_series_fleet) >= 0)
    assert metrics.cost_per_concentrator.sum() == metrics.cost_total_microcents
    # per-concentrator cumulative series agree with the fleet series
    assert np.array_equal(metrics.cost_series.sum(axis=0), metrics.cost_series_fleet)
    assert np.array_equal(metrics.cost_series[:, -1], metrics.cost_per_concentrator)


def test_run_is_deterministic(small_cfg):
    a = run(small_cfg, LYAP1)
    b = run(small_cfg, LYAP1)
    assert a.cost_total_microcents == b.cost_total_microcents
    assert np.array_equal(a.decisions, b.decisions)
    assert np.array_equal(a.final_queue, b.final_queue)
    assert a.delay_histogram == b.delay_histogram


def test_runs_on_one_trace_identical_metrics(small_cfg):
    trace = generate_trace(small_cfg, small_cfg.seed)
    one, two = run(small_cfg, LYAP1, trace), run(small_cfg, LYAP1, trace)
    assert one.cost_total_microcents == two.cost_total_microcents
    assert np.array_equal(one.decisions, two.decisions)


def test_matched_cost_nonincreasing_in_v(small_cfg):
    trace = generate_trace(small_cfg, small_cfg.seed)
    grid = [1.0, 10.0, 100.0, 1000.0]
    costs = [
        run(small_cfg, LyapunovParams(v_factor=v), trace
            ).cost_total_microcents
        for v in grid
    ]
    assert all(a >= b for a, b in zip(costs, costs[1:]))


def test_dimension_mismatch_rejected(small_cfg):
    other = ScenarioConfig(k_concentrators=5, horizon=300, seed=7)
    trace = generate_trace(other, 7)
    with pytest.raises(ConfigurationError):
        run(small_cfg, LYAP1, trace)


def test_conservation_of_packets(small_cfg):
    metrics = run(small_cfg, LYAP1)
    assert metrics.total_arrived == metrics.total_served + int(
        metrics.final_queue.sum()
    ) + int(small_cfg.k_concentrators * small_cfg.mean_arrival)
    # the last term is the final slot's arrivals, which enqueue after the
    # final service opportunity and are not part of final_queue


def test_replaying_decisions_reproduces_queue_series(small_cfg):
    metrics = run(small_cfg, LYAP1, record_series=True)
    trace = generate_trace(small_cfg, small_cfg.seed)
    eps = small_cfg.epsilon
    for i in range(small_cfg.k_concentrators):
        state = ConcentratorState()
        for t in range(small_cfg.horizon):
            assert state.q_len == int(metrics.queue_series[i, t])
            busy = state.q_len > 0
            serve(state, ServiceGrant(int(metrics.serves[i, t])), now=t)
            advance_virtual(state, int(metrics.serves[i, t]), eps, busy)
            enqueue(state, _batch(t, int(trace.arrivals[i, t])))
        assert state.z_len == metrics.z_final[i]
        # the engine's final_queue snapshot predates the last enqueue
        assert state.q_len == int(metrics.final_queue[i]) + int(
            trace.arrivals[i, small_cfg.horizon - 1]
        )
        assert state.total_served == int(metrics.serves[i].sum())


def _batch(slot, packets):
    from hpclease.env import ArrivalBatch

    return ArrivalBatch(slot=slot, packets=packets)


def test_delay_histogram_matches_queueing_replay(small_cfg):
    metrics = run(small_cfg, LYAP1, record_series=True)
    trace = generate_trace(small_cfg, small_cfg.seed)
    from collections import Counter

    hist = Counter()
    for i in range(small_cfg.k_concentrators):
        state = ConcentratorState()
        for t in range(small_cfg.horizon):
            serve(state, ServiceGrant(int(metrics.serves[i, t])), now=t)
            enqueue(state, _batch(t, int(trace.arrivals[i, t])))
        hist.update(state.delivered_delays)
    assert hist == metrics.delay_histogram


def test_epsilon_override_on_lyapunov_params(small_cfg):
    custom = LyapunovParams(v_factor=1.0, epsilon=0.25)
    metrics = run(small_cfg, custom)
    assert metrics.epsilon == 0.25
    default = run(small_cfg, LYAP1)
    assert default.epsilon == small_cfg.epsilon


def test_unit_alignment_gate():
    poisson = ScenarioConfig(
        k_concentrators=2, horizon=50, arrival_law="poisson", seed=3
    )
    assert not is_unit_granular(poisson)
    q = QualityParams(n_units=10, deadline=40, quality_budget=0)
    with pytest.raises(ConfigurationError):
        run(poisson, q)

    lumpy = ScenarioConfig(
        k_concentrators=2, horizon=50, mean_arrival=5, unit_size_packets=4, seed=3
    )
    assert not is_unit_granular(lumpy)
    assert is_unit_granular(ScenarioConfig(k_concentrators=2, horizon=50, seed=3))


def test_quality_deadline_must_fit_horizon(small_cfg):
    q = QualityParams(n_units=10, deadline=small_cfg.horizon, quality_budget=0)
    with pytest.raises(ConfigurationError):
        run(small_cfg, q)


def test_quality_run_meets_its_deadline(small_cfg):
    params = QualityParams(n_units=150, deadline=199, quality_budget=30)
    metrics = run(small_cfg, params)
    sent = metrics.units_sent_full + metrics.units_sent_reduced
    assert sent == 150 * small_cfg.k_concentrators
    assert metrics.units_sent_reduced <= 30 * small_cfg.k_concentrators
    assert np.all(metrics.reduced_per_concentrator <= 30)


def test_derive_quality_params_round_trip(small_cfg):
    reference = run(small_cfg, LYAP1)
    params = derive_quality_params(small_cfg, reference, 0.2)
    assert params.deadline == small_cfg.horizon - 1
    d = max(1, round(reference.littles_delay))
    assert params.n_units == small_cfg.horizon - d
    assert params.quality_budget == int(0.2 * params.n_units)
    with pytest.raises(ConfigurationError):
        derive_quality_params(small_cfg, reference, 1.0)


def test_compare_with_oracle_quality_and_lyapunov(small_cfg):
    trace = generate_trace(small_cfg, small_cfg.seed)
    reference = run(small_cfg, LYAP1, trace)
    assert reference.workload_complete
    comp = compare_with_oracle(small_cfg, trace, reference)
    assert comp is not None
    assert comp.offline_cost_microcents <= comp.online_cost_microcents
    assert comp.gap_microcents >= 0

    params = derive_quality_params(small_cfg, reference, 0.25)
    qmetrics = run(small_cfg, params, trace)
    qcomp = compare_with_oracle(small_cfg, trace, qmetrics)
    assert qcomp is not None
    assert qcomp.offline_cost_microcents <= qcomp.online_cost_microcents


def test_compare_with_oracle_skips_incomparable_runs(small_cfg):
    trace = generate_trace(small_cfg, small_cfg.seed)
    # 10 purchase slots per 50 cannot keep up with constant arrivals
    static = run(small_cfg, StaticParams(50, 10), trace)
    assert not static.workload_complete
    assert compare_with_oracle(small_cfg, trace, static) is None

    poisson = ScenarioConfig(
        k_concentrators=2, horizon=60, arrival_law="poisson", seed=5
    )
    ptrace = generate_trace(poisson, 5)
    pmetrics = run(poisson, LYAP1, ptrace)
    assert compare_with_oracle(poisson, ptrace, pmetrics) is None


def test_reduced_quality_units_tracked(small_cfg):
    params = QualityParams(n_units=199, deadline=199, quality_budget=60)
    metrics = run(small_cfg, params)
    assert metrics.params.quality_budget == 60
    assert metrics.units_sent_reduced == int(metrics.reduced_per_concentrator.sum())
    assert (
        metrics.units_sent_full + metrics.units_sent_reduced
        == 199 * small_cfg.k_concentrators
    )


def _metrics_digest(metrics):
    """sha256 over every RunMetrics field: arrays by dtype, shape and bytes,
    everything else by repr."""
    h = hashlib.sha256()
    for f in dataclasses.fields(metrics):
        value = getattr(metrics, f.name)
        h.update(f.name.encode())
        if isinstance(value, np.ndarray):
            h.update(f"{value.dtype}{value.shape}".encode())
            h.update(np.ascontiguousarray(value).tobytes())
        elif isinstance(value, Counter):
            h.update(repr(sorted(value.items())).encode())
        else:
            h.update(repr(value).encode())
    return h.hexdigest()


_DIGEST_CFG = ScenarioConfig(k_concentrators=4, horizon=200, seed=7)
_DIGEST_POISSON = ScenarioConfig(
    k_concentrators=4, horizon=200, arrival_law="poisson", seed=11
)


def _digest_case(case, record_series):
    lyap = LyapunovParams(v_factor=10.0)
    if case == "lyapunov":
        return run(_DIGEST_CFG, lyap, record_series=record_series)
    if case == "lyapunov_poisson":
        return run(_DIGEST_POISSON, lyap, record_series=record_series)
    if case == "static":
        return run(_DIGEST_CFG, StaticParams(50, 10), record_series=record_series)
    reference = run(_DIGEST_CFG, lyap)
    params = derive_quality_params(_DIGEST_CFG, reference, 0.2)
    return run(_DIGEST_CFG, params, record_series=record_series)


# taken from the engine whose slot loop did the accounting and the checks
# in every slot; any change to a RunMetrics field shows up here
RUN_METRICS_DIGESTS = {
    ("lyapunov", False): "a76c8118e7dbcca4bf4cc166fe3eea1097e6f49f6f03df77f4ecd6bccffaac4d",
    ("lyapunov", True): "ad65ec7fb7f535db5d4718fbfa369901862dfcae986ad6c2aeb78ef184e7f016",
    ("lyapunov_poisson", False): "e7549ee63d5ec16dfab756f7de75ad50d237e9c4138a16d391436167fe949f9d",
    ("lyapunov_poisson", True): "581e2e1d6e1bb5ec4226099f35007150409895e901751fdc8644f0c8b4bf42e5",
    ("static", False): "e9b390f97d0037f5d93a4357ddd248b2b4ef0fe4e7108d7377cc15fe0f0f8cc5",
    ("static", True): "0af384ee2bddcf789734e9e69784105ed60dfb93d441499563c8f21f6d730395",
    ("quality", False): "a0115818f6ff970ab9c9f32ff0005def21f0f24a6655c1471028f5f2121c9587",
    ("quality", True): "acff61a784aae56f0f7a9f06108007206d00131811fe5549f493a63dcf6cafb3",
}


@pytest.mark.parametrize("record_series", [False, True])
@pytest.mark.parametrize("case", ["lyapunov", "lyapunov_poisson", "static", "quality"])
def test_run_metrics_digests(case, record_series):
    metrics = _digest_case(case, record_series)
    assert _metrics_digest(metrics) == RUN_METRICS_DIGESTS[case, record_series]


ROGUE_CFG = ScenarioConfig(k_concentrators=4, horizon=200, seed=7)
ROGUE_QUALITY = QualityParams(n_units=150, deadline=199, quality_budget=30)
ROGUE_ARGV = {
    LYAP1: ["--policy", "lyapunov", "--v-factor", "1"],
    ROGUE_QUALITY: [
        "--policy", "quality", "--n-units", "150", "--deadline", "199",
        "--quality-budget", "30",
    ],
}


class RoguePolicy(BasePolicy):
    """The real policy, except that one concentrator takes ``action``
    whenever ``when(slot, its level)`` holds."""

    def __init__(self, params, concentrator, when, action):
        self.inner = make_policy(params, ROGUE_CFG)
        self.concentrator, self.when, self.action = concentrator, when, action

    def reset(self, k):
        self.inner.reset(k)

    def decide_slot(self, slot, levels, prices, q_len, z_len):
        actions = self.inner.decide_slot(slot, levels, prices, q_len, z_len).copy()
        if self.when(slot, levels[self.concentrator]):
            actions[self.concentrator] = int(self.action)
        return actions

    def observe_prices(self, prices):
        self.inner.observe_prices(prices)


def _first_slot(row, start):
    return start + int(np.flatnonzero(row[start:])[0])


def _first_over_budget(params, budget):
    """(slot, concentrator) where a run of ``params`` first passes ``budget``
    reduced units, lowest concentrator first."""
    decisions = run(ROGUE_CFG, params).decisions
    reduced = (decisions == Action.FREE_REDUCED) | (decisions == Action.BUY_REDUCED)
    t, i = np.argwhere((np.cumsum(reduced, axis=1) > budget).T)[0]
    return int(t), int(i)


def _rogue_cases(levels):
    """case -> (params, rogue policy, the rule it breaks, (slot, concentrator))."""
    wider = dataclasses.replace(ROGUE_QUALITY, quality_budget=60)
    return {
        # concentrator 2 claims free full service on no spectrum from slot 10
        "free-without-spectrum": (
            LYAP1,
            RoguePolicy(
                LYAP1, 2, lambda t, lvl: t >= 10 and lvl == SpectrumLevel.NONE,
                Action.FREE_FULL,
            ),
            "free transmission without free spectrum",
            (_first_slot(levels[2] == SpectrumLevel.NONE, 10), 2),
        ),
        # concentrator 1 sends reduced free units on full spectrum from slot 20
        "reduced-free-without-reduced-spectrum": (
            LYAP1,
            RoguePolicy(
                LYAP1, 1, lambda t, lvl: t >= 20 and lvl == SpectrumLevel.FULL,
                Action.FREE_REDUCED,
            ),
            "reduced free transmission without reduced spectrum",
            (_first_slot(levels[1] == SpectrumLevel.FULL, 20), 1),
        ),
        # concentrator 3 leases at slot 0, before any unit has arrived
        "unbacked-unit": (
            ROGUE_QUALITY,
            RoguePolicy(ROGUE_QUALITY, 3, lambda t, lvl: t == 0, Action.BUY_FULL),
            "unit transmission not backed by a full unit of backlog",
            (0, 3),
        ),
        # concentrator 2 stays silent for its first 100 slots
        "missed-deadline": (
            ROGUE_QUALITY,
            RoguePolicy(ROGUE_QUALITY, 2, lambda t, lvl: t < 100, Action.IDLE),
            "quality policy missed its deadline",
            (ROGUE_QUALITY.deadline, 2),
        ),
        # every concentrator may spend twice the budget the run allows
        "budget-exceeded": (
            ROGUE_QUALITY,
            QualityPolicy(wider),
            "quality budget of 30 exceeded",
            _first_over_budget(wider, ROGUE_QUALITY.quality_budget),
        ),
    }


ROGUE_CASE_IDS = [
    "free-without-spectrum",
    "reduced-free-without-reduced-spectrum",
    "unbacked-unit",
    "missed-deadline",
    "budget-exceeded",
]


@pytest.mark.parametrize("case", ROGUE_CASE_IDS)
def test_rogue_policy_is_caught_after_the_run(case, monkeypatch, tmp_path, capsys):
    trace = generate_trace(ROGUE_CFG, ROGUE_CFG.seed)
    params, rogue, rule, (slot, concentrator) = _rogue_cases(trace.levels)[case]
    monkeypatch.setattr(engine, "make_policy", lambda p, c: rogue)
    expected = f"{params.label} seed 7: {rule} at slot {slot}, concentrator {concentrator}"
    with pytest.raises(InvariantViolationError, match=re.escape(expected)):
        run(ROGUE_CFG, params, trace)
    rc = cli.main([
        "run", *ROGUE_ARGV[params], "--set", "k_concentrators=4",
        "--set", "horizon=200", "--seed", "7", "-o", str(tmp_path),
    ])
    assert rc == 5
    assert expected in capsys.readouterr().err
