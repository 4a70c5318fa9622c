"""Offline-optimal transmission scheduling with full future knowledge.

Given the whole sequence of spectrum levels and posted prices, choose when
to send N unit arrivals within T slots, at most M of them at reduced
quality, minimizing total spend. solve_dp is the production solver;
solve_bruteforce exhaustively enumerates small instances to cross-check it.

Conventions shared with the online policies: unit i (0-based) arrives at
slot i and cannot be sent earlier; at most one unit leaves per slot; a
reduced-quality send consumes the budget whether it was free or paid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .env import SpectrumLevel
from .errors import ConfigurationError, InfeasibleError, InvariantViolationError
from .policy import Action

_BRUTE_FORCE_MAX_SLOTS = 12
# choice-table entries before the exact-schedule DP refuses the instance
_DP_MAX_CHOICE_ENTRIES = 200_000_000

# choice codes, ordered by tie-break preference (argmin picks the lowest)
_IDLE, _FREE, _PAID_FULL, _PAID_REDUCED = 0, 1, 2, 3


@dataclass(frozen=True)
class OfflineInstance:
    """One concentrator's scheduling problem over T slots.

    levels[t] is the free-spectrum state of slot t; price arrays hold the
    posted per-unit lease prices in micro-cents. n_units must fit in the
    horizon and quality_budget must leave at least one full-quality unit.
    """

    levels: np.ndarray
    price_full_microcents: np.ndarray
    price_reduced_microcents: np.ndarray
    n_units: int
    quality_budget: int

    def __post_init__(self) -> None:
        levels = np.ascontiguousarray(self.levels, dtype=np.uint8)
        full = np.ascontiguousarray(self.price_full_microcents, dtype=np.int64)
        reduced = np.ascontiguousarray(self.price_reduced_microcents, dtype=np.int64)
        object.__setattr__(self, "levels", levels)
        object.__setattr__(self, "price_full_microcents", full)
        object.__setattr__(self, "price_reduced_microcents", reduced)
        t = levels.shape[0]
        if levels.ndim != 1 or full.shape != (t,) or reduced.shape != (t,):
            raise ConfigurationError("instance arrays must be 1-D with equal length")
        if levels.size and levels.max() > int(SpectrumLevel.FULL):
            raise ConfigurationError("unknown spectrum level code in instance")
        if np.any(reduced < 1) or np.any(full <= reduced):
            raise ConfigurationError("prices must satisfy full > reduced > 0")
        if self.n_units < 0 or self.quality_budget < 0:
            raise ConfigurationError("n_units and quality_budget cannot be negative")
        if self.n_units > 0 and self.quality_budget >= self.n_units:
            raise ConfigurationError("quality budget must leave a full-quality unit")
        if self.n_units == 0 and self.quality_budget != 0:
            raise ConfigurationError("empty instance cannot carry a quality budget")
        if self.n_units > t:
            raise InfeasibleError(
                f"{self.n_units} units cannot be sent in {t} slots"
            )

    @property
    def horizon(self) -> int:
        return int(self.levels.shape[0])


@dataclass(frozen=True)
class Schedule:
    """A feasible plan: one action per slot plus its realized totals."""

    actions: np.ndarray
    total_cost_microcents: int
    reduced_count: int

    @property
    def sends(self) -> int:
        return int(np.count_nonzero(self.actions != int(Action.IDLE)))


def validate_schedule(instance: OfflineInstance, schedule: Schedule) -> int:
    """Re-check every schedule invariant; returns the recomputed cost.

    Raises InvariantViolationError on any violation, including a stored
    total that disagrees with the recomputed one.
    """
    acts = schedule.actions
    if acts.shape != (instance.horizon,):
        raise InvariantViolationError("schedule length differs from instance horizon")
    sends = acts != int(Action.IDLE)
    if int(np.count_nonzero(sends)) != instance.n_units:
        raise InvariantViolationError(
            f"schedule sends {int(np.count_nonzero(sends))} units, "
            f"instance requires {instance.n_units}"
        )
    # causality: through slot t at most t+1 units have arrived
    cum = np.cumsum(sends)
    if np.any(cum > np.arange(1, instance.horizon + 1)):
        raise InvariantViolationError("schedule sends a unit before it arrives")
    free_full = acts == int(Action.FREE_FULL)
    free_reduced = acts == int(Action.FREE_REDUCED)
    if np.any(free_full & (instance.levels != int(SpectrumLevel.FULL))):
        raise InvariantViolationError("free full send on a slot without full spectrum")
    if np.any(free_reduced & (instance.levels != int(SpectrumLevel.REDUCED))):
        raise InvariantViolationError(
            "free reduced send on a slot without reduced spectrum"
        )
    reduced = free_reduced | (acts == int(Action.BUY_REDUCED))
    reduced_count = int(np.count_nonzero(reduced))
    if reduced_count > instance.quality_budget:
        raise InvariantViolationError("schedule exceeds the quality budget")
    if reduced_count != schedule.reduced_count:
        raise InvariantViolationError("stored reduced_count is wrong")
    cost = int(
        instance.price_full_microcents[acts == int(Action.BUY_FULL)].sum()
        + instance.price_reduced_microcents[acts == int(Action.BUY_REDUCED)].sum()
    )
    if cost != schedule.total_cost_microcents:
        raise InvariantViolationError(
            f"stored cost {schedule.total_cost_microcents} != recomputed {cost}"
        )
    return cost


def _solve_all_forced(instance: OfflineInstance) -> Schedule:
    """T == n_units: every slot sends, only the budget placement is free.

    Spending one budget token turns a reduced-spectrum slot's forced full
    lease into a free reduced send (saves the full price) or a bare slot's
    full lease into a reduced lease (saves the price difference). The
    optimum takes the largest positive savings, earliest slot on ties.
    """
    t = instance.horizon
    levels = instance.levels
    cf = instance.price_full_microcents
    cr = instance.price_reduced_microcents
    is_full = levels == int(SpectrumLevel.FULL)
    is_reduced = levels == int(SpectrumLevel.REDUCED)

    savings = np.where(is_reduced, cf, cf - cr)
    savings[is_full] = 0

    actions = np.full(t, int(Action.BUY_FULL), dtype=np.uint8)
    actions[is_full] = int(Action.FREE_FULL)
    order = np.argsort(-savings, kind="stable")
    chosen = order[: instance.quality_budget]
    chosen = chosen[savings[chosen] > 0]
    actions[chosen[is_reduced[chosen]]] = int(Action.FREE_REDUCED)
    actions[chosen[~is_reduced[chosen]]] = int(Action.BUY_REDUCED)

    base = int(cf[~is_full].sum())
    cost = base - int(savings[chosen].sum())
    schedule = Schedule(
        actions=actions,
        total_cost_microcents=cost,
        reduced_count=int(chosen.size),
    )
    validate_schedule(instance, schedule)
    return schedule


def solve_dp(instance: OfflineInstance) -> Schedule:
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
    if t_total == n:
        return _solve_all_forced(instance)

    width = t_total - n + 1  # slack axis size
    m_axis = m_budget + 1
    if t_total * width * m_axis > _DP_MAX_CHOICE_ENTRIES:
        raise ConfigurationError(
            "instance too large for exact schedule reconstruction"
        )

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
        raise InfeasibleError("no feasible schedule exists")  # pragma: no cover

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
        raise InvariantViolationError(  # pragma: no cover - internal check
            f"schedule walk cost {cost} != dp value {int(start_cost)}"
        )
    schedule = Schedule(
        actions=actions, total_cost_microcents=cost, reduced_count=used
    )
    validate_schedule(instance, schedule)
    return schedule


def solve_bruteforce(instance: OfflineInstance) -> Schedule:
    """Exhaustive minimum over all feasible schedules; small instances only."""
    t_total = instance.horizon
    if t_total > _BRUTE_FORCE_MAX_SLOTS:
        raise ConfigurationError(
            f"brute force handles at most {_BRUTE_FORCE_MAX_SLOTS} slots, "
            f"got {t_total}"
        )
    n = instance.n_units
    m_budget = instance.quality_budget
    best_cost = math.inf
    best_actions: list[int] | None = None
    actions: list[int] = []

    def options(t: int) -> list[tuple[int, int, int]]:
        # (action, cost, reduced) in tie-break preference order
        level = int(instance.levels[t])
        cf = int(instance.price_full_microcents[t])
        cr = int(instance.price_reduced_microcents[t])
        out: list[tuple[int, int, int]] = []
        if level == int(SpectrumLevel.FULL):
            out.append((int(Action.FREE_FULL), 0, 0))
        elif level == int(SpectrumLevel.REDUCED):
            out.append((int(Action.FREE_REDUCED), 0, 1))
        out.append((int(Action.BUY_FULL), cf, 0))
        out.append((int(Action.BUY_REDUCED), cr, 1))
        return out

    def dfs(t: int, sent: int, used: int, cost: int) -> None:
        nonlocal best_cost, best_actions
        if cost >= best_cost:
            return
        remaining = n - sent
        if remaining > t_total - t:
            return
        if t == t_total:
            if remaining == 0:
                best_cost = cost
                best_actions = actions.copy()
            return
        # idle first: the preferred branch on cost ties
        if remaining < t_total - t:
            actions.append(int(Action.IDLE))
            dfs(t + 1, sent, used, cost)
            actions.pop()
        if sent < n and sent <= t:
            for act, price, reduced in options(t):
                if used + reduced > m_budget:
                    continue
                actions.append(act)
                dfs(t + 1, sent + 1, used + reduced, cost + price)
                actions.pop()

    dfs(0, 0, 0, 0)
    if best_actions is None:
        raise InfeasibleError("no feasible schedule exists")  # pragma: no cover
    reduced_mask = [
        a in (int(Action.FREE_REDUCED), int(Action.BUY_REDUCED)) for a in best_actions
    ]
    schedule = Schedule(
        actions=np.asarray(best_actions, dtype=np.uint8),
        total_cost_microcents=int(best_cost),
        reduced_count=sum(reduced_mask),
    )
    validate_schedule(instance, schedule)
    return schedule


def lower_bound_gap(
    online_cost_microcents: int, offline_cost_microcents: int
) -> tuple[int, float]:
    """Gap and ratio of an online policy's cost against the offline optimum."""
    if offline_cost_microcents < 0:
        raise ConfigurationError("offline cost cannot be negative")
    if online_cost_microcents < offline_cost_microcents:
        raise InvariantViolationError(
            f"online cost {online_cost_microcents} beats the offline optimum "
            f"{offline_cost_microcents}; the oracle or the accounting is broken"
        )
    gap = online_cost_microcents - offline_cost_microcents
    if offline_cost_microcents == 0:
        ratio = 1.0 if online_cost_microcents == 0 else math.inf
    else:
        ratio = online_cost_microcents / offline_cost_microcents
    return gap, ratio


def instance_from_trace(
    trace,
    concentrator: int,
    n_units: int,
    quality_budget: int,
    first_slot: int = 1,
    last_slot: int | None = None,
) -> OfflineInstance:
    """Extract one concentrator's offline problem from a drawn trace.

    The window [first_slot, last_slot] becomes instance slots 0..T-1.
    first_slot defaults to 1 because slot 0 precedes the first arrivals
    under the engine's slot ordering and so can never carry a send.
    """
    if not 0 <= concentrator < trace.k:
        raise ConfigurationError(
            f"concentrator {concentrator} outside fleet of {trace.k}"
        )
    if last_slot is None:
        last_slot = trace.horizon - 1
    if not 0 <= first_slot <= last_slot < trace.horizon:
        raise ConfigurationError(
            f"slot window [{first_slot}, {last_slot}] outside trace horizon"
        )
    window = slice(first_slot, last_slot + 1)
    return OfflineInstance(
        levels=trace.levels[concentrator, window],
        price_full_microcents=trace.price_full[window],
        price_reduced_microcents=trace.price_reduced[window],
        n_units=n_units,
        quality_budget=quality_budget,
    )
