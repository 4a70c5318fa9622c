import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hpclease import generate_trace
from hpclease.env import SpectrumLevel, to_microcents
from hpclease.errors import ConfigurationError, InfeasibleError, InvariantViolationError
from hpclease.oracle import (
    OfflineInstance,
    Schedule,
    instance_from_trace,
    solve_dp,
    solve_rows,
    validate_schedule,
)
from hpclease.policy import Action

from conftest import make_instance
from reference import solve_banded_dp, solve_bruteforce, solve_by_bisection

N0, R1, F2 = int(SpectrumLevel.NONE), int(SpectrumLevel.REDUCED), int(SpectrumLevel.FULL)


def test_two_of_three_slots_picks_cheapest_pair():
    # feasible send sets cost 6, 8 and 4 cents; the minimum is {1, 2}
    inst = make_instance([N0, N0, N0], [5, 1, 3], [2.5, 0.5, 1.5], n_units=2)
    sched = solve_dp(inst)
    assert sched.total_cost_microcents == to_microcents(4)
    assert list(np.flatnonzero(sched.actions != 0)) == [1, 2]
    assert sched.reduced_count == 0
    brute = solve_bruteforce(inst)
    assert brute.total_cost_microcents == sched.total_cost_microcents
    assert np.array_equal(brute.actions, sched.actions)


def test_all_full_levels_cost_zero():
    for n in (1, 3, 5):
        inst = make_instance([F2] * 5, [5] * 5, [2] * 5, n_units=n)
        sched = solve_dp(inst)
        assert sched.total_cost_microcents == 0
        assert sched.sends == n


def test_every_slot_forced_with_budget():
    # all slots send; budget 1 is spent where it saves the most (the
    # reduced-level slot saves the whole 5 cents)
    inst = make_instance(
        [F2, N0, R1, N0], [5, 5, 5, 5], [2, 2, 2, 2], n_units=4, quality_budget=1
    )
    sched = solve_dp(inst)
    assert sched.total_cost_microcents == to_microcents(10)
    assert sched.reduced_count == 1
    assert sched.actions[2] == int(Action.FREE_REDUCED)
    brute = solve_bruteforce(inst)
    assert brute.total_cost_microcents == sched.total_cost_microcents


def test_every_slot_forced_no_budget_pays_full():
    inst = make_instance([N0, N0], [5, 3], [2, 1], n_units=2)
    sched = solve_dp(inst)
    assert sched.total_cost_microcents == to_microcents(8)
    assert all(a == int(Action.BUY_FULL) for a in sched.actions)


def test_empty_workload():
    inst = make_instance([N0, R1, F2], [5, 5, 5], [2, 2, 2], n_units=0)
    sched = solve_dp(inst)
    assert sched.total_cost_microcents == 0
    assert sched.sends == 0
    assert solve_bruteforce(inst).total_cost_microcents == 0


def test_single_slot_single_unit():
    inst = make_instance([N0], [7], [3], n_units=1)
    assert solve_dp(inst).total_cost_microcents == to_microcents(7)


def test_tie_break_prefers_late_idle_first_walk():
    # equal prices everywhere: idling is preferred at every tie, so the
    # single send lands in the last slot
    inst = make_instance([N0, N0, N0], [1, 1, 1], [0.5, 0.5, 0.5], n_units=1)
    sched = solve_dp(inst)
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
    with pytest.raises(ConfigurationError, match="1-D"):
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
        levels=levels,
        price_full_microcents=full,
        price_reduced_microcents=reduced,
        n_units=n,
        quality_budget=m,
    )


def test_dp_matches_bruteforce_on_random_instances():
    rng = np.random.default_rng(424242)
    for _ in range(400):
        inst = _random_instance(rng)
        dp = solve_dp(inst)
        bf = solve_bruteforce(inst)
        assert dp.total_cost_microcents == bf.total_cost_microcents
        assert np.array_equal(dp.actions, bf.actions)  # shared tie-break
        validate_schedule(inst, dp)
        validate_schedule(inst, bf)


def test_cost_nonincreasing_in_budget():
    rng = np.random.default_rng(99)
    for _ in range(120):
        inst = _random_instance(rng)
        if inst.n_units < 2:
            continue
        for m in range(inst.n_units - 1):
            a = solve_dp(
                OfflineInstance(
                    inst.levels, inst.price_full_microcents,
                    inst.price_reduced_microcents, inst.n_units, m,
                )
            )
            b = solve_dp(
                OfflineInstance(
                    inst.levels, inst.price_full_microcents,
                    inst.price_reduced_microcents, inst.n_units, m + 1,
                )
            )
            assert b.total_cost_microcents <= a.total_cost_microcents


def test_cost_nonincreasing_in_horizon():
    rng = np.random.default_rng(31337)
    for _ in range(120):
        inst = _random_instance(rng, max_t=7)
        longer = OfflineInstance(
            np.append(inst.levels, np.uint8(N0)),
            np.append(inst.price_full_microcents, 1_000_000),
            np.append(inst.price_reduced_microcents, 500_000),
            inst.n_units,
            inst.quality_budget,
        )
        assert (
            solve_dp(longer).total_cost_microcents
            <= solve_dp(inst).total_cost_microcents
        )


def test_validate_schedule_catches_corruption():
    inst = make_instance([N0, N0, N0], [5, 1, 3], [2, 0.5, 1], n_units=2)
    good = solve_dp(inst)
    validate_schedule(inst, good)

    wrong_cost = Schedule(good.actions, good.total_cost_microcents + 1, 0)
    with pytest.raises(InvariantViolationError):
        validate_schedule(inst, wrong_cost)

    extra_send = good.actions.copy()
    extra_send[0] = int(Action.BUY_FULL)
    with pytest.raises(InvariantViolationError):
        validate_schedule(inst, Schedule(extra_send, good.total_cost_microcents, 0))

    free_without_level = good.actions.copy()
    free_without_level[1] = int(Action.FREE_FULL)  # level there is None
    with pytest.raises(InvariantViolationError):
        validate_schedule(
            inst, Schedule(free_without_level, good.total_cost_microcents, 0)
        )

    over_budget = np.array(
        [int(Action.BUY_REDUCED), int(Action.BUY_FULL), 0], dtype=np.uint8
    )
    cost = int(inst.price_reduced_microcents[0] + inst.price_full_microcents[1])
    with pytest.raises(InvariantViolationError):
        validate_schedule(inst, Schedule(over_budget, cost, 1))

    with pytest.raises(InvariantViolationError, match="length"):
        validate_schedule(inst, Schedule(good.actions[:2], good.total_cost_microcents, 0))
    reduced_without_level = good.actions.copy()
    reduced_without_level[1] = int(Action.FREE_REDUCED)  # level there is None
    with pytest.raises(InvariantViolationError, match="without reduced spectrum"):
        validate_schedule(
            inst, Schedule(reduced_without_level, good.total_cost_microcents, 1)
        )
    with pytest.raises(InvariantViolationError, match="reduced_count"):
        validate_schedule(inst, Schedule(good.actions, good.total_cost_microcents, 1))


def test_validate_schedule_catches_causality_violation():
    # two sends in the first slot's worth of arrivals is impossible when
    # both land before the second unit exists
    inst = make_instance([F2, F2, F2], [5, 5, 5], [2, 2, 2], n_units=2)
    # legal plan sends at slots 0,1; illegal one sends two units at slot 0
    bad = np.array([int(Action.FREE_FULL), 0, int(Action.FREE_FULL)], dtype=np.uint8)
    validate_schedule(inst, Schedule(bad, 0, 0))  # 0 and 2 is fine
    really_bad = np.array([int(Action.FREE_FULL)] * 2 + [0], dtype=np.uint8)
    validate_schedule(inst, Schedule(really_bad, 0, 0))  # 0 and 1 is fine too
    # shift instance so slot 0 may carry at most unit 0: craft length-2
    # instance with both sends in slot 0 is impossible by construction
    # (one action per slot), so corrupt the send count instead
    short = Schedule(np.array([int(Action.FREE_FULL), 0, 0], dtype=np.uint8), 0, 0)
    with pytest.raises(InvariantViolationError):
        validate_schedule(inst, short)


def test_instance_from_trace_window(small_cfg):
    trace = generate_trace(small_cfg, 7)
    inst = instance_from_trace(trace, 2, n_units=10, quality_budget=3)
    assert inst.horizon == small_cfg.horizon - 1
    assert np.array_equal(inst.levels, trace.levels[2, 1:])
    assert np.array_equal(inst.price_full_microcents, trace.price_full[1:])

    windowed = instance_from_trace(
        trace, 0, n_units=4, quality_budget=0, first_slot=10, last_slot=19
    )
    assert windowed.horizon == 10
    assert np.array_equal(windowed.levels, trace.levels[0, 10:20])


def test_instance_from_trace_guards(small_cfg):
    trace = generate_trace(small_cfg, 7)
    with pytest.raises(ConfigurationError):
        instance_from_trace(trace, 99, n_units=1, quality_budget=0)
    with pytest.raises(ConfigurationError):
        instance_from_trace(trace, 0, 1, 0, first_slot=50, last_slot=10)
    with pytest.raises(ConfigurationError):
        instance_from_trace(trace, 0, 1, 0, first_slot=0, last_slot=10**6)
    with pytest.raises(InfeasibleError):
        instance_from_trace(trace, 0, n_units=10**6, quality_budget=0)


def test_large_contract_instance_runs():
    # the complexity contract case: 10,000 slots, 10,000 units (every slot
    # forced), 3,000 reduced allowed, plus the same with one slot of slack
    rng = np.random.default_rng(5)
    t = 10_000
    levels = rng.integers(0, 3, size=t).astype(np.uint8)
    full = rng.integers(100_000, 1_000_001, size=t)
    reduced = full * 3 // 5
    forced = OfflineInstance(levels, full, reduced, n_units=t, quality_budget=3000)
    sched = solve_dp(forced)
    assert validate_schedule(forced, sched) == sched.total_cost_microcents
    assert sched.sends == t

    banded = OfflineInstance(levels, full, reduced, n_units=t - 1, quality_budget=3000)
    sched2 = solve_dp(banded)
    assert validate_schedule(banded, sched2) == sched2.total_cost_microcents
    assert sched2.total_cost_microcents <= sched.total_cost_microcents


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
        forced = OfflineInstance(levels, full, reduced, n, m)
        bf = solve_bruteforce(forced)
        dp = solve_dp(forced)
        assert dp.total_cost_microcents == bf.total_cost_microcents
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
    return OfflineInstance(levels, full, reduced, n_units=n, quality_budget=m)


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
                got = solve_dp(inst)
                refs = [solve_banded_dp(inst)]
                if t <= 9:
                    refs.append(solve_bruteforce(inst))
                for ref in refs:
                    assert np.array_equal(got.actions, ref.actions), (t, n, m)
                    assert got.total_cost_microcents == ref.total_cost_microcents
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
        want, lam = solve_by_bisection(OfflineInstance(levels[i], full, reduced, n, m))
        assert got.lam[i] == lam
        assert np.array_equal(got.actions[i], want.actions)
        assert got.cost[i] == want.total_cost_microcents
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
    sched = solve_dp(inst)
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
    inst = OfflineInstance(levels, full, reduced, n_units=5000, quality_budget=3000)
    sched = solve_dp(inst)
    assert validate_schedule(inst, sched) == sched.total_cost_microcents
    assert sched.sends == 5000
    assert sched.reduced_count == 3000
    tighter = solve_dp(
        OfflineInstance(levels, full, reduced, n_units=5000, quality_budget=2999)
    )
    assert sched.total_cost_microcents < tighter.total_cost_microcents


def test_tie_heavy_half_workload_matches_the_per_row_bisection():
    # T=10,000, N=5,000, M=3,000 over levels drawn uniformly: thousands of
    # free slots tie at theta, so most of the row is left open to the tie rule
    rng = np.random.default_rng(5)
    t = 10_000
    levels = rng.integers(0, 3, size=t).astype(np.uint8)
    full = rng.integers(100_000, 1_000_001, size=t)
    reduced = full * 3 // 5
    inst = OfflineInstance(levels, full, reduced, n_units=5000, quality_budget=3000)
    want, lam = solve_by_bisection(inst)
    got = solve_rows(levels[None], full, reduced, 5000, 3000)
    assert got.lam[0] == lam
    assert np.array_equal(got.actions[0], want.actions)
    assert got.cost[0] == want.total_cost_microcents
    assert got.reduced_count[0] == want.reduced_count


def test_instance_prices_bounded_for_exact_sums():
    # horizon * dearest full price may reach 2**53 micro-cents, not pass it
    top = 2**52
    OfflineInstance(np.zeros(2, np.uint8), [top, 2], [1, 1], n_units=1, quality_budget=0)
    with pytest.raises(ConfigurationError, match=r"pass 2\*\*53"):
        OfflineInstance(
            np.zeros(2, np.uint8), [top + 1, 2], [1, 1], n_units=1, quality_budget=0
        )
