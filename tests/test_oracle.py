import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hpclease import ScenarioConfig, engine, generate_trace
from hpclease.env import SpectrumLevel, to_microcents
from hpclease.errors import ConfigurationError, InfeasibleError
from hpclease.oracle import (
    OfflineInstance,
    instance_from_trace,
    schedule_violation,
    solve_dp,
    solve_rows,
)
from hpclease.policy import Action

from conftest import make_instance
from reference import Row, solve_banded_dp, solve_bruteforce, solve_by_bisection

N0, R1, F2 = int(SpectrumLevel.NONE), int(SpectrumLevel.REDUCED), int(SpectrumLevel.FULL)


def solve_row(inst) -> Row:
    """solve_dp's schedule of a one-row instance, as the references give theirs."""
    got = solve_dp(inst)
    (actions,), (cost,), (reduced_count,) = got.actions, got.cost, got.reduced_count
    return Row(actions, int(cost), int(reduced_count))


def sends(schedule: Row) -> int:
    return int(np.count_nonzero(schedule.actions != int(Action.IDLE)))


def test_two_of_three_slots_picks_cheapest_pair():
    # feasible send sets cost 6, 8 and 4 cents; the minimum is {1, 2}
    inst = make_instance([N0, N0, N0], [5, 1, 3], [2.5, 0.5, 1.5], n_units=2)
    sched = solve_row(inst)
    assert sched.cost == to_microcents(4)
    assert list(np.flatnonzero(sched.actions != 0)) == [1, 2]
    assert sched.reduced_count == 0
    brute = solve_bruteforce(inst)
    assert brute.cost == sched.cost
    assert np.array_equal(brute.actions, sched.actions)


def test_all_full_levels_cost_zero():
    for n in (1, 3, 5):
        inst = make_instance([F2] * 5, [5] * 5, [2] * 5, n_units=n)
        sched = solve_row(inst)
        assert sched.cost == 0
        assert sends(sched) == n


def test_every_slot_forced_with_budget():
    # all slots send; budget 1 is spent where it saves the most (the
    # reduced-level slot saves the whole 5 cents)
    inst = make_instance(
        [F2, N0, R1, N0], [5, 5, 5, 5], [2, 2, 2, 2], n_units=4, quality_budget=1
    )
    sched = solve_row(inst)
    assert sched.cost == to_microcents(10)
    assert sched.reduced_count == 1
    assert sched.actions[2] == int(Action.FREE_REDUCED)
    brute = solve_bruteforce(inst)
    assert brute.cost == sched.cost


def test_every_slot_forced_no_budget_pays_full():
    inst = make_instance([N0, N0], [5, 3], [2, 1], n_units=2)
    sched = solve_row(inst)
    assert sched.cost == to_microcents(8)
    assert all(a == int(Action.BUY_FULL) for a in sched.actions)


def test_empty_workload():
    inst = make_instance([N0, R1, F2], [5, 5, 5], [2, 2, 2], n_units=0)
    sched = solve_row(inst)
    assert sched.cost == 0
    assert sends(sched) == 0
    assert solve_bruteforce(inst).cost == 0


def test_single_slot_single_unit():
    inst = make_instance([N0], [7], [3], n_units=1)
    assert solve_row(inst).cost == to_microcents(7)


def test_tie_break_prefers_late_idle_first_walk():
    # equal prices everywhere: idling is preferred at every tie, so the
    # single send lands in the last slot
    inst = make_instance([N0, N0, N0], [1, 1, 1], [0.5, 0.5, 0.5], n_units=1)
    sched = solve_row(inst)
    assert list(np.flatnonzero(sched.actions != 0)) == [2]
    brute = solve_bruteforce(inst)
    assert np.array_equal(brute.actions, sched.actions)


def test_infeasible_more_units_than_slots():
    with pytest.raises(InfeasibleError):
        make_instance([N0, N0], [5, 5], [2, 2], n_units=3)


def test_instance_validation():
    with pytest.raises(ConfigurationError):
        make_instance([N0], [5], [5], n_units=1)  # reduced not cheaper
    with pytest.raises(ConfigurationError):
        make_instance([N0, N0], [5, 5], [2, 2], n_units=2, quality_budget=2)
    with pytest.raises(ConfigurationError):
        make_instance([N0], [5], [2], n_units=0, quality_budget=1)
    with pytest.raises(ConfigurationError):
        make_instance([9], [5], [2], n_units=1)  # unknown level code
    with pytest.raises(ConfigurationError, match="2-D"):
        make_instance([[N0, N0]], [5, 5], [2, 2], n_units=1)
    with pytest.raises(ConfigurationError, match="cannot be negative"):
        make_instance([N0], [5], [2], n_units=-1)


def test_bruteforce_guard():
    inst = make_instance([N0] * 13, [5] * 13, [2] * 13, n_units=1)
    with pytest.raises(ConfigurationError):
        solve_bruteforce(inst)


def _random_instance(rng, max_t=8):
    t = int(rng.integers(1, max_t + 1))
    levels = rng.integers(0, 3, size=t).astype(np.uint8)
    full = rng.integers(2, 101, size=t).astype(np.int64) * 10_000
    reduced = np.array([int(rng.integers(1, f)) for f in full], dtype=np.int64)
    n = int(rng.integers(0, t + 1))
    m = int(rng.integers(0, n)) if n > 1 else 0
    return OfflineInstance(
        levels=levels[None],
        price_full_microcents=full,
        price_reduced_microcents=reduced,
        n_units=n,
        quality_budget=m,
    )


def test_dp_matches_bruteforce_on_random_instances():
    rng = np.random.default_rng(424242)
    for _ in range(400):
        inst = _random_instance(rng)
        # each solver's schedule keeps every rule of schedule_violation
        dp = solve_row(inst)
        bf = solve_bruteforce(inst)
        assert dp.cost == bf.cost
        assert np.array_equal(dp.actions, bf.actions)  # shared tie-break


def test_cost_nonincreasing_in_budget():
    rng = np.random.default_rng(99)
    for _ in range(120):
        inst = _random_instance(rng)
        if inst.n_units < 2:
            continue
        for m in range(inst.n_units - 1):
            a = solve_row(dataclasses.replace(inst, quality_budget=m))
            b = solve_row(dataclasses.replace(inst, quality_budget=m + 1))
            assert b.cost <= a.cost


def test_cost_nonincreasing_in_horizon():
    rng = np.random.default_rng(31337)
    for _ in range(120):
        inst = _random_instance(rng, max_t=7)
        longer = OfflineInstance(
            np.append(inst.levels, [[N0]], axis=1),
            np.append(inst.price_full_microcents, 1_000_000),
            np.append(inst.price_reduced_microcents, 500_000),
            inst.n_units,
            inst.quality_budget,
        )
        assert solve_row(longer).cost <= solve_row(inst).cost


def broken_rule(inst, actions, cost, reduced_count) -> str | None:
    """The rule that one row of Action codes and its stored totals break in
    the one-row ``inst``, by schedule_violation; None when they keep all."""
    broken = schedule_violation(
        inst.levels, inst.price_full_microcents, inst.price_reduced_microcents,
        inst.n_units, inst.quality_budget, np.asarray(actions, dtype=np.uint8)[None],
        np.array([cost]), np.array([reduced_count]),
    )
    return None if broken is None else broken[1]


def test_validate_schedule_catches_corruption():
    inst = make_instance([N0, N0, N0], [5, 1, 3], [2, 0.5, 1], n_units=2)
    good = solve_row(inst)
    assert broken_rule(inst, good.actions, good.cost, 0) is None

    assert "stored cost" in broken_rule(inst, good.actions, good.cost + 1, 0)

    extra_send = good.actions.copy()
    extra_send[0] = int(Action.BUY_FULL)
    assert "sends 3 units" in broken_rule(inst, extra_send, good.cost, 0)

    free_without_level = good.actions.copy()
    free_without_level[1] = int(Action.FREE_FULL)  # level there is None
    assert "without full spectrum" in broken_rule(inst, free_without_level, good.cost, 0)

    over_budget = [int(Action.BUY_REDUCED), int(Action.BUY_FULL), 0]
    cost = int(inst.price_reduced_microcents[0] + inst.price_full_microcents[1])
    assert "quality budget" in broken_rule(inst, over_budget, cost, 1)

    assert "length" in broken_rule(inst, good.actions[:2], good.cost, 0)
    reduced_without_level = good.actions.copy()
    reduced_without_level[1] = int(Action.FREE_REDUCED)  # level there is None
    assert "without reduced spectrum" in broken_rule(
        inst, reduced_without_level, good.cost, 1
    )
    assert "reduced_count" in broken_rule(inst, good.actions, good.cost, 1)


def test_validate_schedule_catches_causality_violation():
    # two sends in the first slot's worth of arrivals is impossible when
    # both land before the second unit exists
    inst = make_instance([F2, F2, F2], [5, 5, 5], [2, 2, 2], n_units=2)
    # legal plan sends at slots 0,1; illegal one sends two units at slot 0
    bad = [int(Action.FREE_FULL), 0, int(Action.FREE_FULL)]
    assert broken_rule(inst, bad, 0, 0) is None  # 0 and 2 is fine
    really_bad = [int(Action.FREE_FULL)] * 2 + [0]
    assert broken_rule(inst, really_bad, 0, 0) is None  # 0 and 1 is fine too
    # shift instance so slot 0 may carry at most unit 0: craft length-2
    # instance with both sends in slot 0 is impossible by construction
    # (one action per slot), so corrupt the send count instead
    short = [int(Action.FREE_FULL), 0, 0]
    assert "sends 1 units" in broken_rule(inst, short, 0, 0)


def test_instance_from_trace_window(small_cfg):
    trace = generate_trace(small_cfg, 7)
    inst = instance_from_trace(trace, slice(2, 3), n_units=10, quality_budget=3)
    assert inst.horizon == small_cfg.horizon - 1
    assert np.array_equal(inst.levels, trace.levels[2:3, 1:])
    assert np.array_equal(inst.price_full_microcents, trace.price_full[1:])
    # the instance views the trace's rows, and names where they came from
    assert np.shares_memory(inst.levels, trace.levels)
    assert (inst.seed, inst.concentrator, inst.first_slot) == (7, 2, 1)

    windowed = instance_from_trace(
        trace, slice(0, 1), n_units=4, quality_budget=0, first_slot=10, last_slot=19
    )
    assert windowed.horizon == 10
    assert np.array_equal(windowed.levels, trace.levels[0:1, 10:20])
    # a row_blocks slice that runs past the fleet is clipped to it
    block = instance_from_trace(trace, slice(1, 65), n_units=4, quality_budget=0)
    assert np.array_equal(block.levels, trace.levels[1:, 1:])


def test_instance_from_trace_guards(small_cfg):
    trace = generate_trace(small_cfg, 7)
    for rows in (slice(99, 100), slice(4, 65), slice(-1, 0)):
        with pytest.raises(ConfigurationError, match=f"concentrator {rows.start} outside"):
            instance_from_trace(trace, rows, n_units=1, quality_budget=0)
    one = slice(0, 1)
    with pytest.raises(ConfigurationError):
        instance_from_trace(trace, one, 1, 0, first_slot=50, last_slot=10)
    with pytest.raises(ConfigurationError):
        instance_from_trace(trace, one, 1, 0, first_slot=0, last_slot=10**6)
    with pytest.raises(InfeasibleError):
        instance_from_trace(trace, one, n_units=10**6, quality_budget=0)


def test_large_contract_instance_runs():
    # the complexity contract case: 10,000 slots, 10,000 units (every slot
    # forced), 3,000 reduced allowed, plus the same with one slot of slack
    rng = np.random.default_rng(5)
    t = 10_000
    levels = rng.integers(0, 3, size=t).astype(np.uint8)
    full = rng.integers(100_000, 1_000_001, size=t)
    reduced = full * 3 // 5
    # solve_dp recomputes each schedule's cost to the dual bound it returns
    forced = OfflineInstance(levels[None], full, reduced, n_units=t, quality_budget=3000)
    sched = solve_row(forced)
    assert sends(sched) == t

    banded = dataclasses.replace(forced, n_units=t - 1)
    sched2 = solve_row(banded)
    assert sched2.cost <= sched.cost


def test_forced_fast_path_matches_general_dp():
    # T == N instances take a closed-form path inside solve_dp; pin it to
    # the exhaustive answer including the tie-break
    rng = np.random.default_rng(8)
    for _ in range(50):
        t = int(rng.integers(2, 9))
        levels = rng.integers(0, 3, size=t).astype(np.uint8)
        full = rng.integers(2, 50, size=t).astype(np.int64) * 10_000
        reduced = np.maximum(full // 2, 1)
        n = t
        m = int(rng.integers(0, n))
        forced = OfflineInstance(levels[None], full, reduced, n, m)
        bf = solve_bruteforce(forced)
        dp = solve_row(forced)
        assert dp.cost == bf.cost
        assert np.array_equal(dp.actions, bf.actions)


def _grid_instance(rng, t, n, m, tie_heavy):
    levels = rng.integers(0, 3, size=t).astype(np.uint8)
    if tie_heavy:
        # prices of 1-4 micro-cents, so equal costs and savings abound
        reduced = rng.integers(1, 4, size=t)
        full = reduced + rng.integers(1, 5 - reduced)
    else:
        reduced = rng.integers(1, 500_000, size=t)
        full = reduced + rng.integers(1, 500_000, size=t)
    return OfflineInstance(levels[None], full, reduced, n_units=n, quality_budget=m)


def test_solver_matches_banded_dp_and_bruteforce():
    # T <= 9: every N <= T and every M < N, tie-heavy and ordinary prices.
    # Above: every N, the budget cycling through 0..N-1 as T grows, and the
    # price kind alternating with T + N
    rng = np.random.default_rng(80)
    checked = 0
    for t in range(1, 81):
        for n in range(t + 1):
            if t <= 9:
                cases = [(m, tie) for m in range(max(1, n)) for tie in (True, False)]
            else:
                cases = [(t % max(1, n), (t + n) % 2 == 0)]
            for m, tie_heavy in cases:
                inst = _grid_instance(rng, t, n, m, tie_heavy)
                got = solve_row(inst)
                refs = [solve_banded_dp(inst)]
                if t <= 9:
                    refs.append(solve_bruteforce(inst))
                for ref in refs:
                    assert np.array_equal(got.actions, ref.actions), (t, n, m)
                    assert got.cost == ref.cost
                    assert got.reduced_count == ref.reduced_count
                checked += 1
    assert checked > 3000


@st.composite
def _workloads(draw):
    """(seed, rows, T, N, M, tie_heavy) of a block of rows: N drawn from
    the ends (0, T), near 0 (N << T) or anywhere, M from 0 or anywhere."""
    t = draw(st.integers(1, 60))
    n = draw(st.one_of(
        st.sampled_from([0, t]), st.integers(1, max(1, t // 10)), st.integers(0, t)
    ))
    m = draw(st.one_of(st.just(0), st.integers(0, n - 1))) if n > 1 else 0
    seed, rows = draw(st.integers(0, 2**32 - 1)), draw(st.integers(1, 8))
    return seed, rows, t, n, m, draw(st.booleans())


@given(_workloads())
@settings(max_examples=200, deadline=None)
@example((1, 8, 60, 0, 0, True))     # nothing to send
@example((2, 8, 60, 60, 0, True))    # every slot sends, no budget
@example((3, 8, 60, 60, 45, False))  # every slot sends, a wide budget
@example((4, 8, 60, 3, 2, True))     # N << T
@example((5, 8, 60, 40, 0, False))   # M = 0
@example((6, 1, 1, 1, 0, False))     # one row of one slot
@example((7, 8, 400, 200, 40, True))   # long walks: half of a tie-heavy row open
@example((8, 8, 400, 200, 0, True))    # long walks without a budget
@example((9, 3, 400, 399, 100, False))  # N = T - 1 with a wide budget
def test_row_block_solver_matches_the_per_row_bisection(workload):
    seed, rows, t, n, m, tie_heavy = workload
    rng = np.random.default_rng(seed)
    levels = rng.integers(0, 3, size=(rows, t)).astype(np.uint8)
    row = _grid_instance(rng, t, n, m, tie_heavy)
    full, reduced = row.price_full_microcents, row.price_reduced_microcents
    got = solve_rows(levels, full, reduced, n, m)
    assert got.actions.shape == (rows, t)
    for i in range(rows):
        row = OfflineInstance(levels[i, None], full, reduced, n, m)
        want, lam = solve_by_bisection(row)
        assert got.lam[i] == lam
        assert np.array_equal(got.actions[i], want.actions)
        assert got.cost[i] == want.cost
        assert got.reduced_count[i] == want.reduced_count
        if n:
            # lam* lies in [max(0, D_{M+T-N+1}), max(0, D_{M+1})], D_j the
            # j-th largest saving d = a - b
            a = np.where(levels[i] == F2, 0, full)
            b = np.where(levels[i] == R1, 0, reduced)
            ordered = np.sort(a - b)
            assert max(0, ordered[n - m - 1]) <= lam <= max(0, ordered[t - m - 1])


def test_all_forced_tie_keeps_the_full_lease_at_the_earlier_slot():
    # slots 1 and 2 save the same by going reduced; the tie rule leases
    # slot 1 at full price and slot 2 reduced, as brute force does
    inst = make_instance(
        [R1, N0, N0, N0], [4, 3, 3, 2], [1, 1, 1, 1], n_units=4, quality_budget=2
    )
    sched = solve_row(inst)
    assert sched.actions.tolist() == [2, 3, 4, 3]
    assert np.array_equal(solve_bruteforce(inst).actions, sched.actions)


def test_half_workload_with_large_budget_runs():
    # T=10,000, N=5,000, M=3,000: far past any table of (slot, sent, used)
    # states; mostly bare spectrum, so the budget binds
    rng = np.random.default_rng(12)
    t = 10_000
    levels = rng.choice(np.array([N0, R1, F2], dtype=np.uint8), size=t, p=[0.9, 0.05, 0.05])
    full = rng.integers(100_000, 1_000_001, size=t)
    reduced = full * 3 // 5
    inst = OfflineInstance(levels[None], full, reduced, n_units=5000, quality_budget=3000)
    sched = solve_row(inst)
    assert sends(sched) == 5000
    assert sched.reduced_count == 3000
    tighter = solve_row(dataclasses.replace(inst, quality_budget=2999))
    assert sched.cost < tighter.cost


def test_tie_heavy_half_workload_matches_the_per_row_bisection():
    # T=10,000, N=5,000, M=3,000 over levels drawn uniformly: thousands of
    # free slots tie at theta, so most of the row is left open to the tie rule
    rng = np.random.default_rng(5)
    t = 10_000
    levels = rng.integers(0, 3, size=t).astype(np.uint8)
    full = rng.integers(100_000, 1_000_001, size=t)
    reduced = full * 3 // 5
    inst = OfflineInstance(levels[None], full, reduced, n_units=5000, quality_budget=3000)
    want, lam = solve_by_bisection(inst)
    got = solve_rows(levels[None], full, reduced, 5000, 3000)
    assert got.lam[0] == lam
    assert np.array_equal(got.actions[0], want.actions)
    assert got.cost[0] == want.cost
    assert got.reduced_count[0] == want.reduced_count


def test_instance_prices_bounded_for_exact_sums():
    # horizon * dearest full price may reach 2**53 micro-cents, not pass it
    top = 2**52
    levels = np.zeros((3, 2), np.uint8)
    OfflineInstance(levels, [top, 2], [1, 1], n_units=1, quality_budget=0)
    with pytest.raises(ConfigurationError, match=r"pass 2\*\*53"):
        OfflineInstance(levels, [top + 1, 2], [1, 1], n_units=1, quality_budget=0)


@st.composite
def _trace_blocks(draw):
    """(config, rows, first_slot, last_slot, N, M): a small unit-granular
    scenario, a block of its rows that may start past row 0 and run past
    the fleet, a slot window that may start past slot 1, and a workload
    that fits the window."""
    k, horizon = draw(st.integers(1, 6)), draw(st.integers(2, 40))
    seed = draw(st.integers(0, 999))
    cfg = ScenarioConfig(k_concentrators=k, horizon=horizon, seed=seed)
    start = draw(st.integers(0, k - 1))
    rows = slice(start, draw(st.integers(start + 1, k + 3)))
    first = draw(st.integers(1, horizon - 1))
    last = draw(st.integers(first, horizon - 1))
    n = draw(st.integers(0, last - first + 1))
    m = draw(st.integers(0, n - 1)) if n > 1 else 0
    return cfg, rows, first, last, n, m


@given(_trace_blocks())
@settings(max_examples=80, deadline=None)
# rows 2-4 of 5 (the block runs past the fleet) over slots 7-29
@example((ScenarioConfig(k_concentrators=5, horizon=30, seed=3), slice(2, 9), 7, 29, 12, 5))
def test_solve_dp_on_a_trace_block_matches_the_per_row_bisection(case):
    cfg, rows, first, last, n, m = case
    trace = generate_trace(cfg, cfg.seed)
    assert engine.is_unit_granular(cfg)
    got = solve_dp(instance_from_trace(trace, rows, n, m, first_slot=first, last_slot=last))
    concentrators = range(rows.start, min(rows.stop, cfg.k_concentrators))
    assert got.actions.shape == (len(concentrators), last - first + 1)

    def reference(c, window):
        return solve_by_bisection(OfflineInstance(
            trace.levels[c, None, window], trace.price_full[window],
            trace.price_reduced[window], n, m,
        ))[0]

    for i, c in enumerate(concentrators):
        want = reference(c, slice(first, last + 1))
        assert np.array_equal(got.actions[i], want.actions)
        assert got.cost[i] == want.cost
        assert got.reduced_count[i] == want.reduced_count
    # the fleet path: every row over slots 1 to T - 1
    per_row = [reference(c, slice(1, cfg.horizon)).cost for c in range(cfg.k_concentrators)]
    fleet = engine.oracle_reference(trace, n, m)
    assert fleet.tolist() == per_row
    assert int(fleet.sum()) == sum(per_row)


def test_instance_levels_must_be_a_block_of_rows():
    for levels in (np.zeros(3, np.uint8), np.zeros((0, 3), np.uint8), np.zeros((1, 1, 3))):
        with pytest.raises(ConfigurationError, match="2-D"):
            OfflineInstance(levels, [5, 5, 5], [2, 2, 2], n_units=1, quality_budget=0)
