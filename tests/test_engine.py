import base64
import dataclasses
import json
import re
import tracemalloc
from collections import Counter
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hpclease import (
    ScenarioConfig,
    cli,
    compare_with_oracle,
    derive_quality_params,
    engine,
    generate_trace,
    oracle,
    run,
)
from hpclease.engine import is_unit_granular, make_policy
from hpclease.env import SpectrumLevel, row_blocks, save_trace
from hpclease.errors import ConfigurationError, InvariantViolationError, TraceFormatError
from hpclease.policy import (
    IS_REDUCED,
    Action,
    LyapunovParams,
    LyapunovPolicy,
    QualityParams,
    StaticParams,
    reduced_capacity,
)

from conftest import metrics_digest, run_core
from reference import (
    ArrivalBatch,
    ConcentratorState,
    QualityGrants,
    ServiceGrant,
    advance_virtual,
    code_rule,
    enqueue,
    lyapunov_step,
    packet_grant,
    run_codes,
    serve,
    serve_grant_slots,
    static_grant,
    summarize,
)

LYAP1 = LyapunovParams(v_factor=1.0)


def forced_levels_trace(cfg, level):
    base = generate_trace(cfg, cfg.seed)
    return dataclasses.replace(base, levels=np.full_like(base.levels, int(level)))


def test_params_labels_and_validation(small_cfg):
    assert (LYAP1.kind, LYAP1.label) == ("lyapunov", "lyapunov[v=1]")
    static = StaticParams(1000, 200)
    assert (static.kind, static.label) == ("static", "static[1000/200]")
    q = QualityParams(n_units=5, deadline=9, quality_budget=2)
    assert (q.kind, q.label) == ("quality", "quality[m=2]")
    trace = generate_trace(small_cfg, small_cfg.seed)
    with pytest.raises(ConfigurationError):
        make_policy("lyapunov", small_cfg, trace)
    with pytest.raises(ConfigurationError):
        make_policy(StaticParams(period=100, burst_len=200), small_cfg, trace)


@pytest.mark.parametrize("case", ["reduced-above-full", "full-too-dear"])
def test_bad_trace_prices_name_their_slot(small_cfg, case):
    # the bound keeps a fleet's bill at full prices exact: 2**53 / (k * T)
    base = generate_trace(small_cfg, small_cfg.seed)
    dearest = 2**53 // (small_cfg.k_concentrators * small_cfg.horizon)
    full, reduced = base.price_full.copy(), base.price_reduced.copy()
    if case == "reduced-above-full":
        reduced[137] = full[137] + 1
    else:
        full[137] = dearest + 1
    expected = (
        f"trace seed 7: slot 137 prices must satisfy 0 < reduced < full <= "
        f"{dearest} micro-cents, got full={full[137]} reduced={reduced[137]}"
    )
    # building the trace rejects it, so no policy ever runs on it
    with pytest.raises(ConfigurationError, match=re.escape(expected)):
        dataclasses.replace(base, price_full=full, price_reduced=reduced)
    full[137] = dearest
    reduced[137] = dearest - 1
    edge = dataclasses.replace(base, price_full=full, price_reduced=reduced)
    run(small_cfg, LYAP1, edge)  # the bound itself is admitted


def test_trace_prices_bound_the_fleet_bill(tmp_path, capsys):
    # a row's worth of 2**53 // 16 per slot once passed the Trace, and 2048
    # concentrators leasing at it wrapped the run's int64 bill negative
    cfg = ScenarioConfig(k_concentrators=2048, horizon=16, seed=1)
    base = generate_trace(cfg, cfg.seed)
    full = np.full(16, 2**53 // 16, dtype=np.int64)
    bound = f"full <= {2**53 // (2048 * 16)} micro-cents"
    with pytest.raises(TraceFormatError, match=re.escape(bound)):
        dataclasses.replace(base, price_full=full, price_reduced=full // 2)
    # the same prices in a trace file exit 3
    envelope = json.loads(save_trace(base))
    for name, prices in (("price_full", full), ("price_reduced", full // 2)):
        envelope["arrays"][name]["b64"] = base64.b64encode(prices.tobytes()).decode()
    trace_file = tmp_path / "trace_1.json"
    trace_file.write_text(json.dumps(envelope))
    assert cli.main([
        "oracle", "--trace", str(trace_file), "--n-units", "1", "-o", str(tmp_path)
    ]) == 3
    assert bound in capsys.readouterr().err


def test_capacities(small_cfg):
    assert reduced_capacity(small_cfg) == 2  # floor(0.5 * 5)


def test_zero_arrival_run_costs_nothing():
    cfg = ScenarioConfig(
        k_concentrators=3, horizon=100, mean_arrival=0, unit_size_packets=5, seed=2
    )
    metrics = run(cfg, LYAP1)
    assert metrics.cost_total_microcents == 0
    assert np.all(metrics.queue_series_mean == 0)
    assert np.all(metrics.final_queue == 0)
    assert metrics.total_served == 0
    assert np.all(run_core(cfg, LYAP1).codes == int(Action.IDLE))


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
    trace = generate_trace(small_cfg, small_cfg.seed)
    metrics = run(small_cfg, LyapunovParams(v_factor=10.0), trace)
    codes = run_core(small_cfg, LyapunovParams(v_factor=10.0), trace).codes
    assert metrics.cost_series_fleet[-1] == metrics.cost_total_microcents
    assert np.all(np.diff(metrics.cost_series_fleet) >= 0)
    assert metrics.cost_per_concentrator.sum() == metrics.cost_total_microcents
    # every lease of a packet policy moves packets, so each one is charged
    price = {Action.BUY_FULL: trace.price_full, Action.BUY_REDUCED: trace.price_reduced}
    expected = [
        sum(int(price[a][t]) for t, a in enumerate(row) if a in price)
        for row in codes
    ]
    assert np.count_nonzero(codes >= Action.BUY_FULL) > 0
    assert metrics.cost_per_concentrator.tolist() == expected


def test_run_is_deterministic(small_cfg):
    a = run(small_cfg, LYAP1)
    b = run(small_cfg, LYAP1)
    assert a.cost_total_microcents == b.cost_total_microcents
    assert np.array_equal(a.purchases_per_slot, b.purchases_per_slot)
    assert np.array_equal(
        run_core(small_cfg, LYAP1).codes, run_core(small_cfg, LYAP1).codes
    )
    assert np.array_equal(a.final_queue, b.final_queue)
    assert a.total_delay_slots == b.total_delay_slots


def test_runs_on_one_trace_identical_metrics(small_cfg):
    trace = generate_trace(small_cfg, small_cfg.seed)
    one, two = run(small_cfg, LYAP1, trace), run(small_cfg, LYAP1, trace)
    assert one.cost_total_microcents == two.cost_total_microcents
    assert np.array_equal(
        run_core(small_cfg, LYAP1, trace).codes, run_core(small_cfg, LYAP1, trace).codes
    )


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


def _ledger_replay(cfg, params):
    """Replay a run's decisions through the scalar queueing ledger, slot by
    slot, advancing the virtual queue only for the policy that keeps one.
    Returns the run, the policy after the run, the trace, the ledger's mean
    queue at the start of each slot and its final per-concentrator states."""
    trace = generate_trace(cfg, cfg.seed)
    metrics = run(cfg, params, trace)
    policy, codes, _, _ = run_core(cfg, params, trace)
    grant = packet_grant(cfg.unit_size_packets, reduced_capacity(cfg))
    states = [ConcentratorState() for _ in range(trace.k)]
    queue_means = []
    for t in range(trace.horizon):
        queue_means.append(np.mean([state.q_len for state in states]))
        for i, state in enumerate(states):
            busy, before = state.q_len > 0, state.total_served
            packets = grant[codes[i, t], trace.levels[i, t]]
            serve(state, ServiceGrant(int(packets)), now=t)
            if isinstance(policy, LyapunovPolicy):
                served = state.total_served - before
                advance_virtual(state, served, policy.epsilon, busy)
            enqueue(state, ArrivalBatch(slot=t, packets=int(trace.arrivals[i, t])))
    return metrics, policy, trace, queue_means, states


def _assert_queues_match(metrics, policy, trace, queue_means, states):
    assert list(metrics.queue_series_mean) == queue_means
    # the engine's final_queue snapshot predates the last enqueue
    assert np.array_equal(
        metrics.final_queue,
        [s.q_len - int(a) for s, a in zip(states, trace.arrivals[:, -1])],
    )
    if isinstance(policy, LyapunovPolicy):
        assert np.array_equal(policy.z, [s.z_len for s in states])


def _assert_delays_match(metrics, states):
    assert metrics.total_delay_slots == sum(s.total_delay_slots for s in states)
    assert metrics.total_served == sum(s.total_served for s in states)


def _assert_ledger_replay_matches(cfg, params):
    metrics, policy, trace, queue_means, states = _ledger_replay(cfg, params)
    _assert_queues_match(metrics, policy, trace, queue_means, states)
    _assert_delays_match(metrics, states)


def test_replaying_decisions_reproduces_queue_series(small_cfg):
    _assert_queues_match(*_ledger_replay(small_cfg, LYAP1))


def test_delay_histogram_matches_queueing_replay(small_cfg):
    # the engine's FIFO delay total, from cumulative counts, equals the
    # ledger's sum over each delivered packet's own delay
    metrics, _, _, _, states = _ledger_replay(small_cfg, LYAP1)
    assert metrics.total_delay_slots > 0
    _assert_delays_match(metrics, states)


@st.composite
def _ledger_cases(draw, max_k=6, max_horizon=60):
    horizon = draw(st.integers(2, max_horizon))
    policy = draw(st.sampled_from(["lyapunov", "static", "quality"]))
    if policy == "quality":
        law = "deterministic"
        mean_arrival = unit = draw(st.integers(2, 8))
    else:
        law = draw(st.sampled_from(["deterministic", "poisson"]))
        mean_arrival, unit = draw(st.integers(0, 8)), draw(st.integers(2, 8))
    cfg = ScenarioConfig(
        k_concentrators=draw(st.integers(1, max_k)),
        horizon=horizon,
        mean_arrival=mean_arrival,
        unit_size_packets=unit,
        arrival_law=law,
        seed=draw(st.integers(0, 1000)),
    )
    if policy == "lyapunov":
        params = LyapunovParams(draw(st.sampled_from([0.5, 1.0, 10.0, 100.0, 1e4])))
    elif policy == "static":
        # short bursts in long periods leave backlog behind
        period = draw(st.integers(2, 20))
        params = StaticParams(period, draw(st.integers(1, max(1, period // 4))))
    else:
        n_units = draw(st.integers(1, horizon - 1))
        params = QualityParams(
            n_units=n_units,
            deadline=horizon - 1,
            quality_budget=draw(st.integers(0, n_units - 1)),
        )
    return cfg, params


@given(_ledger_cases())
@settings(max_examples=80, deadline=None)
def test_run_matches_queueing_ledger_replay(case):
    _assert_ledger_replay_matches(*case)


@given(_ledger_cases(max_k=40, max_horizon=400))
@settings(max_examples=60, deadline=None)
def test_queue_series_mean_matches_per_slot_replay(case):
    # the post-loop fleet backlog equals the mean of the backlog vector
    # taken before each slot's service, as a slot loop would observe it
    cfg, params = case
    trace = generate_trace(cfg, cfg.seed)
    metrics = run(cfg, params, trace)
    codes = run_core(cfg, params, trace).codes
    grant = packet_grant(cfg.unit_size_packets, reduced_capacity(cfg))
    q = np.zeros(trace.k, dtype=np.int64)
    observed = np.empty(trace.horizon)
    for t in range(trace.horizon):
        observed[t] = q.mean()
        q -= np.minimum(q, grant[codes[:, t], trace.levels[:, t]])
        q += trace.arrivals[:, t]
    assert metrics.queue_series_mean.dtype == np.float64
    assert np.array_equal(metrics.queue_series_mean, observed)


def test_run_matches_queueing_ledger_replay_over_two_row_blocks():
    # 40 x 2000 cells: the post-loop pass takes rows in blocks of 32
    cfg = ScenarioConfig(
        k_concentrators=40, horizon=2000, arrival_law="poisson", seed=5
    )
    _assert_ledger_replay_matches(cfg, LyapunovParams(v_factor=10.0))


def test_epsilon_override_on_lyapunov_params(small_cfg):
    trace = generate_trace(small_cfg, small_cfg.seed)
    custom = dataclasses.replace(small_cfg, epsilon=0.25)
    assert make_policy(LYAP1, custom, trace).epsilon == 0.25
    assert make_policy(LYAP1, small_cfg, trace).epsilon == small_cfg.epsilon


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
    assert np.all(IS_REDUCED[run_core(small_cfg, params).codes].sum(axis=1) <= 30)


def test_derive_quality_params_round_trip(small_cfg):
    reference = run(small_cfg, LYAP1)
    params = derive_quality_params(small_cfg, reference.littles_delay, 0.2)
    assert params.deadline == small_cfg.horizon - 1
    d = max(1, round(reference.littles_delay))
    assert params.n_units == small_cfg.horizon - d
    assert params.quality_budget == int(0.2 * params.n_units)
    with pytest.raises(ConfigurationError):
        derive_quality_params(small_cfg, reference.littles_delay, 1.0)
    with pytest.raises(ConfigurationError, match="horizon too short"):
        derive_quality_params(small_cfg, small_cfg.horizon, 0.2)


def test_compare_with_oracle_quality_and_lyapunov(small_cfg):
    trace = generate_trace(small_cfg, small_cfg.seed)
    reference = run(small_cfg, LYAP1, trace)
    assert reference.workload_complete
    (offline,), _ = compare_with_oracle(small_cfg, trace, [reference])
    assert isinstance(offline, int)
    assert offline <= reference.cost_total_microcents

    params = derive_quality_params(small_cfg, reference.littles_delay, 0.25)
    qmetrics = run(small_cfg, params, trace)
    (qoffline,), _ = compare_with_oracle(small_cfg, trace, [qmetrics])
    assert isinstance(qoffline, int)
    assert qoffline <= qmetrics.cost_total_microcents


def test_oracle_dominance_failure_names_the_concentrator(small_cfg, monkeypatch):
    trace = generate_trace(small_cfg, small_cfg.seed)
    metrics = run(small_cfg, LYAP1, trace)
    online = metrics.cost_per_concentrator
    real_reference = engine.oracle_reference

    def overstated(*args):
        per_conc = real_reference(*args)
        assert np.all(per_conc <= online)
        per_conc = per_conc.copy()
        per_conc[2] = online[2] + 1
        return per_conc

    monkeypatch.setattr(engine, "oracle_reference", overstated)
    expected = (
        f"lyapunov[v=1] seed 7: online cost {online[2]} of concentrator 2 "
        f"beats the offline optimum {online[2] + 1}"
    )
    with pytest.raises(InvariantViolationError, match=re.escape(expected)):
        compare_with_oracle(small_cfg, trace, [metrics])


def _misstate_one_bound(monkeypatch, trace, concentrator, n_units, budget) -> str:
    """Make the block core state one bound too high for ``concentrator``;
    returns the error oracle_reference must then raise, in solve_dp's one
    format (the oracle subcommand's test expects the same)."""
    optimum = int(engine.oracle_reference(trace, n_units, budget)[concentrator])
    solve = oracle.solve_rows

    def misstated(levels, *args):
        rows = solve(levels, *args)
        rows.cost[(levels == trace.levels[concentrator, 1:]).all(axis=1)] += 1
        return rows

    monkeypatch.setattr(oracle, "solve_rows", misstated)
    return (
        f"oracle seed {trace.seed}, concentrator {concentrator}, slots "
        f"1-{trace.horizon - 1}, n_units {n_units}, budget {budget}: "
        f"stored cost {optimum + 1} != recomputed {optimum}"
    )


def test_oracle_solve_failure_names_its_instance(small_cfg, monkeypatch):
    trace = generate_trace(small_cfg, small_cfg.seed)
    expected = _misstate_one_bound(monkeypatch, trace, 0, 150, 30)
    with pytest.raises(InvariantViolationError, match=re.escape(expected)):
        engine.oracle_reference(trace, 150, 30)


def test_oracle_solve_failure_names_a_concentrator_past_the_first_block(monkeypatch):
    cfg = ScenarioConfig(k_concentrators=200, horizon=1000, seed=7)
    trace = generate_trace(cfg, cfg.seed)
    # blocks of 65 rows: concentrator 130 is row 0 of the third
    assert slice(130, 195) in row_blocks(cfg.k_concentrators, cfg.horizon - 1)
    expected = _misstate_one_bound(monkeypatch, trace, 130, 150, 30)
    with pytest.raises(InvariantViolationError, match=re.escape(expected)):
        engine.oracle_reference(trace, 150, 30)


def test_compare_with_oracle_skips_incomparable_runs(small_cfg):
    trace = generate_trace(small_cfg, small_cfg.seed)
    # 10 purchase slots per 50 cannot keep up with constant arrivals
    static = run(small_cfg, StaticParams(50, 10), trace)
    assert not static.workload_complete
    offline, _ = compare_with_oracle(small_cfg, trace, [static])
    assert offline == [None]

    poisson = ScenarioConfig(
        k_concentrators=2, horizon=60, arrival_law="poisson", seed=5
    )
    ptrace = generate_trace(poisson, 5)
    pmetrics = run(poisson, LYAP1, ptrace)
    assert compare_with_oracle(poisson, ptrace, [pmetrics]) == ([None], None)


def _count_solves(monkeypatch) -> Counter:
    """Count engine.oracle_reference calls, each a fleet's solve, by
    (n_units, quality_budget)."""
    solves = Counter()
    solve = engine.oracle_reference

    def counting_solve(trace, n_units, quality_budget):
        solves[n_units, quality_budget] += 1
        return solve(trace, n_units, quality_budget)

    monkeypatch.setattr(engine, "oracle_reference", counting_solve)
    return solves


def test_compare_with_oracle_solves_each_workload_once(small_cfg, monkeypatch):
    trace = generate_trace(small_cfg, small_cfg.seed)
    static = run(small_cfg, StaticParams(50, 10), trace)
    drained = run(small_cfg, LYAP1, trace)
    assert not static.workload_complete and drained.workload_complete
    params = derive_quality_params(small_cfg, drained.littles_delay, 0.25)
    quality = run(small_cfg, params, trace)
    solves = _count_solves(monkeypatch)
    offline, oracle_row = compare_with_oracle(
        small_cfg, trace, [static, drained, quality]
    )
    assert offline[0] is None
    assert all(isinstance(cost, int) for cost in offline[1:])
    # the quality run's workload is the loosest: fewest units, largest budget
    assert oracle_row == (f"oracle[m={params.quality_budget}]", offline[2])
    full = small_cfg.horizon - 1
    assert solves == {(full, 0): 1, (params.n_units, params.quality_budget): 1}


def test_compare_with_oracle_solves_the_oracle_row_alone(small_cfg, monkeypatch):
    # no drained run and no quality run: only the oracle row needs a solve
    trace = generate_trace(small_cfg, small_cfg.seed)
    static = run(small_cfg, StaticParams(50, 10), trace)
    solves = _count_solves(monkeypatch)
    offline, (label, cost) = compare_with_oracle(small_cfg, trace, [static])
    assert offline == [None]
    full = small_cfg.horizon - 1
    assert solves == {(full, 0): 1}
    assert label == "oracle[m=0]"
    assert cost == int(engine.oracle_reference(trace, full, 0).sum())


def test_compare_with_oracle_keeps_the_oracle_budget_below_its_units(small_cfg):
    # the fewest units and the largest budget come from different runs
    trace = generate_trace(small_cfg, small_cfg.seed)
    runs = [
        run(small_cfg, QualityParams(150, 199, 140), trace),
        run(small_cfg, QualityParams(100, 199, 10), trace),
    ]
    offline, (label, cost) = compare_with_oracle(small_cfg, trace, runs)
    assert label == "oracle[m=99]"
    assert cost <= min(offline)


def test_reduced_quality_units_tracked(small_cfg):
    params = QualityParams(n_units=199, deadline=199, quality_budget=60)
    metrics = run(small_cfg, params)
    assert metrics.params.quality_budget == 60
    codes = run_core(small_cfg, params).codes
    assert metrics.units_sent_reduced == np.count_nonzero(IS_REDUCED[codes]) > 0
    assert (
        metrics.units_sent_full + metrics.units_sent_reduced
        == 199 * small_cfg.k_concentrators
    )


_DIGEST_CFG = ScenarioConfig(k_concentrators=4, horizon=200, seed=7)
_DIGEST_POISSON = ScenarioConfig(
    k_concentrators=4, horizon=200, arrival_law="poisson", seed=11
)


def _digest_case(case):
    lyap = LyapunovParams(v_factor=10.0)
    if case == "lyapunov":
        return run(_DIGEST_CFG, lyap)
    if case == "lyapunov_poisson":
        return run(_DIGEST_POISSON, lyap)
    if case == "static":
        return run(_DIGEST_CFG, StaticParams(50, 10))
    delay = run(_DIGEST_CFG, lyap).littles_delay
    return run(_DIGEST_CFG, derive_quality_params(_DIGEST_CFG, delay, 0.2))


# taken from the engine that still kept the Action codes and the virtual
# queues in RunMetrics, over the fields kept since; any change to a
# RunMetrics field shows up here. The two threshold digests changed once
# more, and only through repr(params), when LyapunovParams lost its epsilon
# field to ScenarioConfig.epsilon: every array and count stayed bit-equal.
# All four changed again only by the new config_digest field: the digest
# over the other fields still equals the pin before it.
RUN_METRICS_DIGESTS = {
    "lyapunov": "35c9365b2ad5e7edd966b18962c6c3818a87e03e54185f06ec8db9f74c917fbb",
    "lyapunov_poisson": "f5de8c5d20578222439cc2feda9d448e96a56186e2eb43109af7f59126683bc0",
    "static": "e47e2c819714bd25bf49037fcddcc0d0ed1847be2f1ef51de5d59d2c582ba88b",
    "quality": "477cae4965ee22365bc01350dc8695d7aa65c43daf14496c2a7ab77dd42b4da3",
}


@pytest.mark.parametrize("case", ["lyapunov", "lyapunov_poisson", "static", "quality"])
def test_run_metrics_digests(case):
    metrics = _digest_case(case)
    # a run keeps summaries, never a per-cell matrix
    arrays = [getattr(metrics, f.name) for f in dataclasses.fields(metrics)]
    assert all(a.ndim == 1 for a in arrays if isinstance(a, np.ndarray))
    assert metrics_digest(metrics) == RUN_METRICS_DIGESTS[case]


@st.composite
def _code_loop_cases(draw):
    """Small configs of every policy kind, both arrival laws and reduced
    capacities of 0 (a tenth of at most 8 packets) and above 0."""
    horizon = draw(st.integers(2, 80))
    policy = draw(st.sampled_from(["lyapunov", "static", "quality"]))
    unit = draw(st.integers(2, 8))
    if policy == "quality":
        law, mean_arrival = "deterministic", unit
    else:
        law = draw(st.sampled_from(["deterministic", "poisson"]))
        mean_arrival = draw(st.integers(0, 8))
    cfg = ScenarioConfig(
        k_concentrators=draw(st.integers(1, 6)),
        horizon=horizon,
        mean_arrival=mean_arrival,
        unit_size_packets=unit,
        reduced_fraction=draw(st.sampled_from([0.1, 0.5])),
        arrival_law=law,
        epsilon=draw(st.sampled_from([None, 0.25, 3.0])),
        seed=draw(st.integers(0, 1000)),
    )
    if policy == "lyapunov":
        params = LyapunovParams(draw(st.sampled_from([0.5, 10.0, 1e4])))
    elif policy == "static":
        period = draw(st.integers(1, 20))
        params = StaticParams(period, draw(st.integers(1, period)))
    else:
        n_units = draw(st.integers(1, horizon - 1))
        params = QualityParams(
            n_units=n_units,
            deadline=horizon - 1,
            quality_budget=draw(st.integers(0, n_units - 1)),
        )
    return cfg, params


_CODE_LOOP_CFG = ScenarioConfig(k_concentrators=4, horizon=60, seed=7)
# 40 x 2000 cells: rows in blocks of 32, and the threshold policy's slots
# in blocks of 1,638
_TWO_BLOCKS_CFG = ScenarioConfig(k_concentrators=40, horizon=2000, seed=5)


@given(_code_loop_cases())
# bursts over every level, FULL included; quality budgets 0 and above 0;
# an epsilon override on Poisson arrivals with no reduced capacity
@example((_CODE_LOOP_CFG, StaticParams(10, 4)))
@example((_CODE_LOOP_CFG, QualityParams(n_units=50, deadline=59, quality_budget=0)))
@example((_CODE_LOOP_CFG, QualityParams(n_units=50, deadline=59, quality_budget=9)))
@example((
    dataclasses.replace(
        _CODE_LOOP_CFG, reduced_fraction=0.1, arrival_law="poisson", epsilon=0.25
    ),
    LyapunovParams(10.0),
))
# threshold runs over two slot blocks, and over one slot per block
@example((
    dataclasses.replace(_TWO_BLOCKS_CFG, arrival_law="poisson"), LyapunovParams(10.0)
))
@example((_TWO_BLOCKS_CFG, LyapunovParams(0.5)))
@example((
    ScenarioConfig(k_concentrators=2**15 + 1, horizon=3, arrival_law="poisson", seed=2),
    LyapunovParams(10.0),
))
@settings(max_examples=100, deadline=None)
def test_grant_loop_matches_action_code_loop(case):
    # the engine's service of packet grants (a slot loop for the threshold
    # policy, closed forms for the others), with codes recovered after the
    # run, against the slot loop that carried one Action code per
    # concentrator and slot and turned it into packets by table lookup
    cfg, params = case
    trace = generate_trace(cfg, cfg.seed)
    metrics = run(cfg, params, trace)
    policy, codes, serves, q = run_core(cfg, params, trace)
    lyapunov = isinstance(policy, LyapunovPolicy)
    unit = cfg.unit_size_packets
    ref_codes, ref_serves, ref_q, ref_z = run_codes(
        code_rule(make_policy(params, cfg, trace), trace),
        trace,
        unit,
        reduced_capacity(cfg),
        cfg.epsilon,
    )
    assert codes.dtype == ref_codes.dtype
    assert np.array_equal(codes, ref_codes)
    # the engine counts sends from the codes: IDLE exactly where nothing moved
    assert np.array_equal(codes != Action.IDLE, serves > 0)
    assert serves.dtype == ref_serves.dtype
    assert np.array_equal(serves, ref_serves)
    assert np.array_equal(q, ref_q)
    if lyapunov:
        assert policy.z.tobytes() == ref_z.tobytes()
        # the column-by-column slot loop that the slot-major blocks replaced
        column = make_policy(params, cfg, trace)
        col_serves, col_q = serve_grant_slots(partial(lyapunov_step, column), trace)
        assert np.array_equal(serves, col_serves) and np.array_equal(q, col_q)
        assert column.z.tobytes() == ref_z.tobytes()
    expected = engine._summarize(params, cfg, trace, ref_codes, ref_serves, ref_q)
    assert metrics_digest(metrics) == metrics_digest(expected)


@st.composite
def _tampered_runs(draw):
    """A run of any policy kind (see _code_loop_cases) with up to three
    cells recoded and up to two cells' packets served replaced."""
    cfg, params = draw(_code_loop_cases())
    cells = st.tuples(
        st.integers(0, cfg.k_concentrators - 1), st.integers(0, cfg.horizon - 1)
    )
    recoded = draw(st.lists(st.tuples(cells, st.sampled_from(list(Action))), max_size=3))
    packets = st.integers(0, cfg.unit_size_packets + 1)
    return cfg, params, recoded, draw(st.lists(st.tuples(cells, packets), max_size=2))


_TWO_BLOCKS_QUALITY = QualityParams(1990, 1999, 300, beta_c=0.5)


@given(_tampered_runs())
# honest runs of every policy over two row blocks
@example((dataclasses.replace(_TWO_BLOCKS_CFG, arrival_law="poisson"), LYAP1, [], []))
@example((_TWO_BLOCKS_CFG, StaticParams(100, 20), [], []))
@example((_TWO_BLOCKS_CFG, _TWO_BLOCKS_QUALITY, [], []))
# unbacked sends in both row blocks: the second block's comes first (slot
# 2, concentrator 38), then a tie at slot 3 goes to the first block's
@example((
    _TWO_BLOCKS_CFG, _TWO_BLOCKS_QUALITY,
    [((38, 2), Action.BUY_FULL), ((5, 3), Action.BUY_FULL)], [((5, 3), 0), ((38, 2), 0)],
))
@example((
    _TWO_BLOCKS_CFG, _TWO_BLOCKS_QUALITY,
    [((38, 3), Action.BUY_FULL), ((5, 3), Action.BUY_FULL)], [((5, 3), 0), ((38, 3), 0)],
))
@settings(max_examples=100, deadline=None)
def test_post_run_pass_matches_reference(case):
    # the fused row-block pass against the rule-by-rule pass it replaced:
    # every RunMetrics field, or the same error at the same slot and
    # concentrator
    cfg, params, recoded, reserved = case
    trace = generate_trace(cfg, cfg.seed)
    _, codes, serves, q = run_core(cfg, params, trace)
    for (i, t), action in recoded:
        codes[i, t] = action
    for (i, t), packets in reserved:
        serves[i, t] = packets
    try:
        expected = summarize(params, cfg, trace, codes, serves, q)
    except InvariantViolationError as exc:
        with pytest.raises(InvariantViolationError, match=f"^{re.escape(str(exc))}$"):
            engine._summarize(params, cfg, trace, codes, serves, q)
    else:
        metrics = engine._summarize(params, cfg, trace, codes, serves, q)
        assert metrics_digest(metrics) == metrics_digest(expected)


@st.composite
def _closed_form_cases(draw):
    """Static runs under both arrival laws, and deadline-scheduler runs with
    any deadline, workload, budget and beta_c, at small K x T."""
    horizon = draw(st.integers(2, 80))
    k = draw(st.integers(1, 6))
    unit = draw(st.integers(2, 8))
    seed = draw(st.integers(0, 1000))
    if draw(st.booleans()):
        cfg = ScenarioConfig(
            k_concentrators=k,
            horizon=horizon,
            mean_arrival=draw(st.integers(0, 8)),
            unit_size_packets=unit,
            reduced_fraction=draw(st.sampled_from([0.1, 0.5])),
            arrival_law=draw(st.sampled_from(["deterministic", "poisson"])),
            seed=seed,
        )
        period = draw(st.integers(1, 20))
        return cfg, StaticParams(period, draw(st.integers(1, period)))
    cfg = ScenarioConfig(
        k_concentrators=k, horizon=horizon, mean_arrival=unit,
        unit_size_packets=unit, seed=seed,
    )
    deadline = draw(st.integers(1, horizon - 1))
    n_units = draw(st.integers(1, deadline))
    return cfg, QualityParams(
        n_units=n_units,
        deadline=deadline,
        quality_budget=draw(st.integers(0, n_units - 1)),
        beta_c=draw(st.sampled_from([0.0, 0.3, 1.0])),
    )


def _assert_closed_form_matches_grant_loop(cfg, params):
    """The engine's closed-form service of a static or deadline-scheduler
    run against the grant loop it replaced: codes, packets served and Q.
    Returns the codes."""
    trace = generate_trace(cfg, cfg.seed)
    _, codes, serves, q = run_core(cfg, params, trace)
    reference = make_policy(params, cfg, trace)
    if isinstance(params, QualityParams):
        rule = QualityGrants(reference, trace.k, trace.horizon)
    else:
        rule = static_grant(reference)
    ref_serves, ref_q = serve_grant_slots(rule, trace)
    ref_codes = rule.codes if isinstance(params, QualityParams) else (
        reference.actions(ref_serves, trace.levels)
    )
    assert codes.dtype == ref_codes.dtype
    assert np.array_equal(codes, ref_codes)
    assert serves.dtype == ref_serves.dtype
    assert np.array_equal(serves, ref_serves)
    assert np.array_equal(q, ref_q)
    return codes


# on concentrator 0 the budget runs out (at slot 7) before the deadline
# guard binds (slot 16); on concentrator 1 the guard binds (slot 8) before
# a forced reduced lease spends the last of its budget (slot 9)
PHASE_ORDER_CFG = ScenarioConfig(k_concentrators=3, horizon=20, seed=0)
PHASE_ORDER_PARAMS = QualityParams(n_units=14, deadline=19, quality_budget=2, beta_c=0.0)


@given(_closed_form_cases())
@example((PHASE_ORDER_CFG, PHASE_ORDER_PARAMS))
# 40 x 2000 cells: rows in blocks of 32
@example((
    dataclasses.replace(_TWO_BLOCKS_CFG, arrival_law="poisson"), StaticParams(100, 20)
))
@example((_TWO_BLOCKS_CFG, _TWO_BLOCKS_QUALITY))
@example((PHASE_ORDER_CFG, QualityParams(n_units=19, deadline=19, quality_budget=9)))
@settings(max_examples=150, deadline=None)
def test_closed_forms_match_grant_loop(case):
    _assert_closed_form_matches_grant_loop(*case)


def test_quality_phases_change_in_either_order():
    params = PHASE_ORDER_PARAMS
    codes = _assert_closed_form_matches_grant_loop(PHASE_ORDER_CFG, params)
    sent = np.cumsum(codes != Action.IDLE, axis=1)
    slot = np.arange(PHASE_ORDER_CFG.horizon)
    # sent - slot before a slot reaches n_units - deadline - 1 where the guard binds
    binds = sent - (codes != Action.IDLE) - slot == params.n_units - params.deadline - 1
    spent = np.cumsum(IS_REDUCED[codes], axis=1) == params.quality_budget
    guard_slots = [int(np.flatnonzero(row)[0]) for row in binds[:2]]
    budget_slots = [int(np.flatnonzero(row)[0]) for row in spent[:2]]
    assert guard_slots == [16, 8]
    assert budget_slots == [7, 9]


def test_huge_arrivals_run_in_fleet_sized_memory():
    # 2**31 - 1 packets arrive per slot; delays come from cumulative counts,
    # never from one int64 per packet, which here would be 860 GB per concentrator
    cfg = ScenarioConfig(
        k_concentrators=2, horizon=50, mean_arrival=2**31 - 1,
        unit_size_packets=5, seed=3,
    )
    run(dataclasses.replace(cfg, mean_arrival=5), LYAP1)  # first-call imports
    tracemalloc.start()
    try:
        metrics = run(cfg, LYAP1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    # every slot from 1 on leases a unit of slot-0 packets: delays 1..49
    assert metrics.total_served == 2 * 49 * 5
    assert metrics.total_delay_slots == 2 * 5 * sum(range(1, 50)) == 12250


# Bytes per (concentrator, slot) cell, from the dtypes the program stores:
# a trace keeps levels (uint8) and arrivals (int32), plus three int64 prices
# per slot. A run keeps the packets served (int16) and the Action codes
# (uint8); the closed forms' grant matrix (int16) becomes the packets
# served. Work that scales with the fleet beyond that, the int64 Poisson
# draw, the threshold policy's slot blocks and the post-run pass included,
# is done in blocks of at most 2**16 cells, so one int64 block temporary
# is the slack. The last byte of a run covers the rest of its block work
# (at 1000 x 1000, a run peaks at 3.96-4.20 bytes per cell, slack
# included).
TRACE_BYTES_PER_CELL = 1 + 4
TRACE_BYTES_PER_SLOT = 3 * 8
RUN_BYTES_PER_CELL = 2 + 1 + 1
BLOCK_SLACK_BYTES = 8 * 2**16


def _peak_bytes(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("law", ["deterministic", "poisson"])
def test_trace_and_runs_peak_within_their_bytes_per_cell(law):
    cfg = ScenarioConfig(k_concentrators=1000, horizon=1000, arrival_law=law, seed=3)
    cells = cfg.k_concentrators * cfg.horizon
    # the deadline scheduler needs unit-granular, hence deterministic, arrivals
    policies = [LYAP1, StaticParams(100, 20)]
    if law == "deterministic":
        policies += [
            QualityParams(n_units=997, deadline=999, quality_budget=199),
            QualityParams(n_units=500, deadline=999, quality_budget=0),
        ]
    small = dataclasses.replace(cfg, k_concentrators=2, horizon=1000)
    for params in policies:  # first-call imports and caches
        run(small, params)

    assert _peak_bytes(lambda: generate_trace(cfg, cfg.seed)) <= (
        TRACE_BYTES_PER_CELL * cells
        + TRACE_BYTES_PER_SLOT * cfg.horizon
        + BLOCK_SLACK_BYTES
    )
    trace = generate_trace(cfg, cfg.seed)
    for params in policies:
        peak = _peak_bytes(lambda: run(cfg, params, trace))
        assert peak <= RUN_BYTES_PER_CELL * cells + BLOCK_SLACK_BYTES, params.label


# Above 2**14 concentrators a threshold run's slot block is one slot, so
# its (K,) rows outweigh its block work. Beside its outputs it holds, per
# concentrator, Q, Z, the work, unit and zero rows and one slot's served
# row (8 bytes each) and the buy mask; the threshold and epsilon rows are
# stride-0 views, and each block is freed before the next is read. The
# 8-byte index row that take makes to read a slot of levels fits in the
# one-block slack. At 65,536 x 4 a run peaks at 65.0 bytes per
# concentrator, outputs included.
WIDE_RUN_BYTES_PER_CONCENTRATOR = 6 * 8 + 1


def test_wide_short_threshold_run_peaks_within_its_rows():
    cfg = ScenarioConfig(k_concentrators=2**16, horizon=4, seed=3)
    trace = generate_trace(cfg, cfg.seed)
    run(cfg, LYAP1, trace)  # first-call imports and caches
    peak = _peak_bytes(lambda: run(cfg, LYAP1, trace))
    assert peak <= (
        RUN_BYTES_PER_CELL * cfg.k_concentrators * cfg.horizon
        + WIDE_RUN_BYTES_PER_CONCENTRATOR * cfg.k_concentrators
        + BLOCK_SLACK_BYTES
    )


# The oracle solves a fleet a row block at a time, so its peak is a fixed
# count of block temporaries however many rows the fleet has: a block's
# costs and savings, the bisection's keys, and the final pass's masks and
# codes (2.3 MB at 1000 x 1000, about 4.4 int64 blocks). One (K, T) int64
# array would take 8 MB there on its own.
ORACLE_BLOCK_TEMPORARIES = 6


def test_oracle_peaks_at_a_fixed_count_of_block_temporaries():
    cfg = ScenarioConfig(k_concentrators=1000, horizon=1000, seed=3)
    small = dataclasses.replace(cfg, k_concentrators=2)
    # first-call imports and caches
    engine.oracle_reference(generate_trace(small, small.seed), 997, 199)
    trace = generate_trace(cfg, cfg.seed)
    # (500, 100) leaves about 300 of each row's 999 slots open to the tie rule
    for n_units, budget in [(997, 199), (999, 0), (500, 100)]:
        peak = _peak_bytes(lambda: engine.oracle_reference(trace, n_units, budget))
        assert peak <= ORACLE_BLOCK_TEMPORARIES * BLOCK_SLACK_BYTES, (n_units, budget)


ROGUE_CFG = ScenarioConfig(k_concentrators=4, horizon=200, seed=7)
ROGUE_QUALITY = QualityParams(n_units=150, deadline=199, quality_budget=30)
ROGUE_EARLY_DEADLINE = QualityParams(n_units=100, deadline=150, quality_budget=10)
ROGUE_ARGV = {
    LYAP1: ["--policy", "lyapunov", "--v-factor", "1"],
    ROGUE_QUALITY: [
        "--policy", "quality", "--n-units", "150", "--deadline", "199",
        "--quality-budget", "30",
    ],
    ROGUE_EARLY_DEADLINE: [
        "--policy", "quality", "--n-units", "100", "--deadline", "150",
        "--quality-budget", "10",
    ],
}


class RoguePolicy:
    """The real policy, except that one concentrator takes the action
    ``recode(slot, its level)`` wherever that is not None: it moves what
    that action may move on the level, and the run reports the action's
    code. A threshold run is altered slot by slot, as its slot loop serves
    it; a deadline-scheduler run has its codes altered before it grants a
    unit to every send and serves the grants in closed form. With
    ``relabel``, the concentrator moves what the real policy moved, and
    only the reported code changes."""

    def __init__(self, params, concentrator, recode, relabel=False):
        self.params = params
        self.concentrator, self.recode = concentrator, recode
        self.relabel = relabel

    def build(self, config, trace):
        """The engine's make_policy: a fresh inner policy for every run."""
        self.inner = make_policy(self.params, config, trace)
        self.grant = packet_grant(config.unit_size_packets, reduced_capacity(config))
        return self

    def serve(self, trace):
        i, inner = self.concentrator, self.inner
        row = trace.levels[i]
        taken = {t: self.recode(t, row[t]) for t in range(len(row))}
        taken = {t: int(action) for t, action in taken.items() if action is not None}
        slots, actions = list(taken), list(taken.values())
        if self.relabel:
            pass
        elif isinstance(inner, LyapunovPolicy):
            decide = inner.decide_slot

            def decide_slot(slot, q, served):
                decide(slot, q, served)
                if slot in taken:
                    served[i] = min(q[i], self.grant[taken[slot], row[slot]])

            inner.decide_slot = decide_slot
        else:
            schedule = inner.schedule

            def rogue_schedule(levels):
                codes = schedule(levels)
                codes[i, slots] = actions
                return codes

            inner.schedule = rogue_schedule
        codes, serves, q = inner.serve(trace)
        codes[i, slots] = actions
        return codes, serves, q


def _taking(action, when):
    """A recode rule: ``action`` wherever ``when(slot, level)`` holds."""
    return lambda t, lvl: action if when(t, lvl) else None


def _first_slot(row, start):
    return start + int(np.flatnonzero(row[start:])[0])


def _first_over_budget(params, budget):
    """(slot, concentrator) where a run of ``params`` first passes ``budget``
    reduced units, lowest concentrator first."""
    reduced = IS_REDUCED[run_core(ROGUE_CFG, params).codes]
    t, i = np.argwhere((np.cumsum(reduced, axis=1) > budget).T)[0]
    return int(t), int(i)


def _rogue_cases(levels):
    """case -> (params, rogue policy, the rule it breaks, (slot, concentrator))."""
    wider = dataclasses.replace(ROGUE_QUALITY, quality_budget=60)
    bought = run_core(ROGUE_CFG, ROGUE_QUALITY).codes[2] == Action.BUY_FULL
    bought_on_reduced = bought & (levels[2] == SpectrumLevel.REDUCED)
    leased = run_core(ROGUE_CFG, LYAP1).codes[3] == Action.BUY_FULL
    leased_on_reduced = leased & (levels[3] == SpectrumLevel.REDUCED)
    sends = np.flatnonzero(run_core(ROGUE_CFG, ROGUE_EARLY_DEADLINE).codes[2])
    moved = {
        **dict.fromkeys(sends[-5:].tolist(), Action.IDLE),
        **dict.fromkeys(range(160, 165), Action.BUY_FULL),
    }
    return {
        # concentrator 2 claims free full service on no spectrum from slot 10
        "free-without-spectrum": (
            LYAP1,
            RoguePolicy(LYAP1, 2, _taking(
                Action.FREE_FULL, lambda t, lvl: t >= 10 and lvl == SpectrumLevel.NONE
            )),
            "free transmission without free spectrum",
            (_first_slot(levels[2] == SpectrumLevel.NONE, 10), 2),
        ),
        # concentrator 1 sends reduced free units on full spectrum from slot 20
        "reduced-free-without-reduced-spectrum": (
            LYAP1,
            RoguePolicy(LYAP1, 1, _taking(
                Action.FREE_REDUCED, lambda t, lvl: t >= 20 and lvl == SpectrumLevel.FULL
            )),
            "reduced free transmission without reduced spectrum",
            (_first_slot(levels[1] == SpectrumLevel.FULL, 20), 1),
        ),
        # concentrator 3 leases at slot 0, before any unit has arrived
        "unbacked-unit": (
            ROGUE_QUALITY,
            RoguePolicy(ROGUE_QUALITY, 3, _taking(Action.BUY_FULL, lambda t, lvl: t == 0)),
            "unit transmission not backed by a full unit of backlog",
            (0, 3),
        ),
        # concentrator 2 stays silent for its first 100 slots
        "missed-deadline": (
            ROGUE_QUALITY,
            RoguePolicy(ROGUE_QUALITY, 2, _taking(Action.IDLE, lambda t, lvl: t < 100)),
            "quality policy missed its deadline",
            (ROGUE_QUALITY.deadline, 2),
        ),
        # every concentrator may spend twice the budget the run allows
        "budget-exceeded": (
            ROGUE_QUALITY,
            RoguePolicy(wider, 0, lambda t, lvl: None),
            "quality budget of 30 exceeded",
            _first_over_budget(wider, ROGUE_QUALITY.quality_budget),
        ),
        # concentrator 2 calls its leased units on reduced spectrum free ones
        "free-full-unit-without-full-spectrum": (
            ROGUE_QUALITY,
            RoguePolicy(ROGUE_QUALITY, 2, _taking(
                Action.FREE_FULL, lambda t, lvl: bought_on_reduced[t]
            )),
            "free full unit without full spectrum",
            (_first_slot(bought_on_reduced, 0), 2),
        ),
        # concentrator 2 sends its last five units after the deadline
        "sends-after-the-deadline": (
            ROGUE_EARLY_DEADLINE,
            RoguePolicy(ROGUE_EARLY_DEADLINE, 2, lambda t, lvl: moved.get(t)),
            "quality policy missed its deadline",
            (ROGUE_EARLY_DEADLINE.deadline, 2),
        ),
        # concentrator 3 reports its leases on reduced spectrum as free
        # sends: each moves a unit where the level frees 2 packets, and the
        # bill would drop by their price
        "hidden-lease": (
            LYAP1,
            RoguePolicy(LYAP1, 3, _taking(
                Action.FREE_FULL, lambda t, lvl: leased_on_reduced[t]
            ), relabel=True),
            "free send moved more than the level's free capacity",
            (_first_slot(leased_on_reduced, 0), 3),
        ),
    }


ROGUE_CASE_IDS = [
    "free-without-spectrum",
    "reduced-free-without-reduced-spectrum",
    "unbacked-unit",
    "missed-deadline",
    "budget-exceeded",
    "free-full-unit-without-full-spectrum",
    "sends-after-the-deadline",
    "hidden-lease",
]


@pytest.mark.parametrize("case", ROGUE_CASE_IDS)
def test_rogue_policy_is_caught_after_the_run(case, monkeypatch, tmp_path, capsys):
    trace = generate_trace(ROGUE_CFG, ROGUE_CFG.seed)
    params, rogue, rule, (slot, concentrator) = _rogue_cases(trace.levels)[case]
    monkeypatch.setattr(engine, "make_policy", lambda p, c, t: rogue.build(c, t))
    expected = f"{params.label} seed 7: {rule} at slot {slot}, concentrator {concentrator}"
    with pytest.raises(InvariantViolationError, match=re.escape(expected)):
        run(ROGUE_CFG, params, trace)
    rc = cli.main([
        "run", *ROGUE_ARGV[params], "--set", "k_concentrators=4",
        "--set", "horizon=200", "--seed", "7", "-o", str(tmp_path),
    ])
    assert rc == 5
    assert expected in capsys.readouterr().err


@pytest.mark.parametrize("case", ROGUE_CASE_IDS)
def test_post_run_pass_reports_rogue_runs_as_reference(case):
    trace = generate_trace(ROGUE_CFG, ROGUE_CFG.seed)
    params, rogue, _, _ = _rogue_cases(trace.levels)[case]
    codes, serves, q = rogue.build(ROGUE_CFG, trace).serve(trace)
    with pytest.raises(InvariantViolationError) as expected:
        summarize(params, ROGUE_CFG, trace, codes, serves, q)
    with pytest.raises(InvariantViolationError, match=f"^{re.escape(str(expected.value))}$"):
        engine._summarize(params, ROGUE_CFG, trace, codes, serves, q)
