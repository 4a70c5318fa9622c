"""Scalar and loop references that tests replay the production code against.

solve_banded_dp is the banded 3-D dynamic program that was the production
offline solver before the selection solver replaced it. It handles every
instance, T == n_units included, and shares the production tie rule.
"""

from __future__ import annotations

import math

import numpy as np

from hpclease.env import SpectrumLevel
from hpclease.errors import InfeasibleError, InvariantViolationError
from hpclease.oracle import OfflineInstance, Schedule, validate_schedule
from hpclease.policy import Action

# choice codes, ordered by tie-break preference (argmin picks the lowest)
_IDLE, _FREE, _PAID_FULL, _PAID_REDUCED = 0, 1, 2, 3


def solve_banded_dp(instance: OfflineInstance) -> Schedule:
    """Minimum-cost feasible schedule by dynamic programming.

    State: (slot, units sent, reduced used). Units-sent is banded: with s
    sent after t slots, feasibility forces t - (T - N) <= s <= t, so only
    the slack u = t - s in [0, T - N] is materialized. Values roll slot by
    slot; choices are kept as one byte per state for reconstruction. Ties
    prefer idle, then free, then a full-price lease, then a reduced lease,
    resolving earlier slots first.
    """
    t_total = instance.horizon
    n = instance.n_units
    m_budget = instance.quality_budget
    if n == 0:
        schedule = Schedule(
            actions=np.zeros(t_total, dtype=np.uint8),
            total_cost_microcents=0,
            reduced_count=0,
        )
        validate_schedule(instance, schedule)
        return schedule

    width = t_total - n + 1  # slack axis size
    m_axis = m_budget + 1

    inf = np.inf
    choices = np.empty((t_total, width, m_axis), dtype=np.uint8)
    # value[u, m]: min cost-to-go from the start of the current slot
    value = np.full((width, m_axis), inf)
    value[t_total - n, :] = 0.0  # at t = T only s = N survives

    candidates = np.empty((4, width, m_axis))
    for t in range(t_total - 1, -1, -1):
        level = int(instance.levels[t])
        cf = float(instance.price_full_microcents[t])
        cr = float(instance.price_reduced_microcents[t])

        cand = candidates
        cand.fill(inf)
        # idle: slack grows by one
        cand[_IDLE, : width - 1, :] = value[1:, :]
        # sending keeps the slack; a unit must remain (s < n, masked below)
        cand[_PAID_FULL, :, :] = cf + value
        # reduced sends move m -> m+1
        cand[_PAID_REDUCED, :, : m_axis - 1] = cr + value[:, 1:]
        if level == int(SpectrumLevel.FULL):
            cand[_FREE, :, :] = value
        elif level == int(SpectrumLevel.REDUCED):
            cand[_FREE, :, : m_axis - 1] = value[:, 1:]

        # mask send actions where no unit remains: s = t - u >= n
        u_no_unit = np.arange(width) <= t - n
        if u_no_unit.any():
            cand[_FREE, u_no_unit, :] = inf
            cand[_PAID_FULL, u_no_unit, :] = inf
            cand[_PAID_REDUCED, u_no_unit, :] = inf
        # mask states outside this slot's reachable band: u in [max(0, t-n), min(t, T-n)]
        u_lo = max(0, t - n)
        u_hi = min(t, t_total - n)
        best = cand.min(axis=0)
        pick = cand.argmin(axis=0).astype(np.uint8)
        if u_lo > 0:
            best[:u_lo, :] = inf
        if u_hi + 1 < width:
            best[u_hi + 1 :, :] = inf
        choices[t] = pick
        value = best.copy()

    start_cost = value[0, 0]
    if not math.isfinite(start_cost):
        raise InfeasibleError("no feasible schedule exists")

    actions = np.zeros(t_total, dtype=np.uint8)
    sent = 0
    used = 0
    cost = 0
    for t in range(t_total):
        u = t - sent
        code = int(choices[t, u, used])
        if code == _IDLE:
            continue
        level = int(instance.levels[t])
        if code == _FREE:
            if level == int(SpectrumLevel.FULL):
                actions[t] = int(Action.FREE_FULL)
            else:
                actions[t] = int(Action.FREE_REDUCED)
                used += 1
        elif code == _PAID_FULL:
            actions[t] = int(Action.BUY_FULL)
            cost += int(instance.price_full_microcents[t])
        else:
            actions[t] = int(Action.BUY_REDUCED)
            cost += int(instance.price_reduced_microcents[t])
            used += 1
        sent += 1

    if cost != int(start_cost):
        raise InvariantViolationError(
            f"schedule walk cost {cost} != dp value {int(start_cost)}"
        )
    schedule = Schedule(
        actions=actions, total_cost_microcents=cost, reduced_count=used
    )
    validate_schedule(instance, schedule)
    return schedule
