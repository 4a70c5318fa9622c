"""Offline-optimal transmission scheduling with full future knowledge.

Given the whole sequence of spectrum levels and posted prices, choose when
to send N unit arrivals within T slots, at most M of them at reduced
quality, minimizing total spend. solve_dp is the production solver: it
prices the quality budget with a Lagrange multiplier (exact, as the problem
is a min-cost flow) and certifies its schedule by the dual bound.

Conventions shared with the online policies: unit i (0-based) arrives at
slot i and cannot be sent earlier; at most one unit leaves per slot; a
reduced-quality send consumes the budget whether it was free or paid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import check_field_types
from .env import EXACT_MICROCENTS, SpectrumLevel
from .errors import ConfigurationError, InfeasibleError, InvariantViolationError
from .policy import Action

# the action of a slot by [option (0 idle, 1 full, 2 reduced), SpectrumLevel]
_SEND_ACTION = np.array(
    [[Action.IDLE] * 3,
     [Action.BUY_FULL, Action.BUY_FULL, Action.FREE_FULL],
     [Action.BUY_REDUCED, Action.FREE_REDUCED, Action.BUY_REDUCED]],
    dtype=np.uint8,
)


@dataclass(frozen=True)
class OfflineInstance:
    """One concentrator's scheduling problem over T slots.

    levels[t] is the free-spectrum state of slot t; price arrays hold the
    posted per-unit lease prices in micro-cents. n_units must fit in the
    horizon and quality_budget must leave at least one full-quality unit;
    both are ints once built (config.check_field_types).
    T times the dearest full price is at most 2**53 micro-cents, as a
    ScenarioConfig bounds a fleet's bill, so every cost sum the solver forms
    is exact.
    """

    levels: np.ndarray
    price_full_microcents: np.ndarray
    price_reduced_microcents: np.ndarray
    n_units: int
    quality_budget: int

    def __post_init__(self) -> None:
        check_field_types(self)
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
        if t * int(full.max(initial=0)) > EXACT_MICROCENTS:
            raise ConfigurationError(
                f"{t} slots at full prices up to {int(full.max())} pass 2**53 micro-cents"
            )
        if self.n_units < 0 or self.quality_budget < 0:
            raise ConfigurationError("n_units and quality_budget cannot be negative")
        if self.quality_budget >= max(1, self.n_units):
            raise ConfigurationError(
                "quality budget must leave a full-quality unit, or be 0 in an empty "
                f"instance: quality_budget {self.quality_budget}, n_units {self.n_units}"
            )
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


def solve_dp(instance: OfflineInstance) -> Schedule:
    """Minimum-cost feasible schedule by selection, exact in int64.

    Causality never binds, so the problem is to send in N of the T slots,
    each at full quality for a_t (0 on full spectrum, else the full price)
    or reduced for b_t (0 on reduced spectrum, else the reduced price), at
    most M reduced. That is a min-cost flow, so pricing the budget is
    exact: the dual L(lam) = (sum of the N smallest min(a, b + lam)) -
    lam * M peaks at the smallest integer lam* where it stops rising, found
    by bisection on two exact sums (when N == T, it is the (M+1)-th largest
    a - b). With eff = min(a, b + lam*) and theta its N-th smallest value,
    the optimal schedules send every slot with eff < theta and none above
    theta, each at an option costing eff (plus lam* if reduced), with
    exactly M reduced sends if lam* > 0. The slots this leaves open
    (eff == theta, or both options at eff) are walked in time order, each
    taking the first choice, in the tie order idle, free, full lease,
    reduced lease, after which the rest stays feasible. The walk's cost
    must equal L(lam*), which certifies it optimal.
    """
    t_total, n, m = instance.horizon, instance.n_units, instance.quality_budget
    if n == 0:
        schedule = Schedule(np.zeros(t_total, dtype=np.uint8), 0, 0)
        validate_schedule(instance, schedule)
        return schedule
    levels = instance.levels
    a = np.where(levels == SpectrumLevel.FULL, 0, instance.price_full_microcents)
    b = np.where(levels == SpectrumLevel.REDUCED, 0, instance.price_reduced_microcents)
    d = a - b

    def dual(lam: int) -> int:
        eff = np.minimum(a, b + lam)
        if n < t_total:
            eff = np.partition(eff, n - 1)[:n]
        return int(eff.sum()) - lam * m

    if n == t_total:
        lam = max(0, int(np.partition(d, n - m - 1)[n - m - 1]))
        send, optional = np.ones(n, dtype=bool), np.zeros(n, dtype=bool)
    else:
        lam, hi = 0, max(0, int(d.max()))  # past max(d), L falls by M a step
        while lam < hi:
            mid = (lam + hi) // 2
            lam, hi = (lam, mid) if dual(mid + 1) <= dual(mid) else (mid + 1, hi)
        eff = np.minimum(a, b + lam)
        theta = np.partition(eff, n - 1)[n - 1]
        send, optional = eff < theta, eff == theta

    # a send costs eff at its full option if d <= lam, reduced if d >= lam
    reduced = send & (d > lam)
    actions = _SEND_ACTION[send + reduced.view(np.uint8), levels]
    walked = np.flatnonzero(optional | (send & (d == lam)))
    opt, full_ok, reduced_ok = optional[walked], d[walked] <= lam, d[walked] >= lam
    # counts over walked[j:] of tied sends, then of optional slots with the
    # full option only, the reduced option only, or both
    both = full_ok & reduced_ok
    kinds = np.stack([~opt, opt & ~reduced_ok, opt & ~full_ok, opt & both])
    suffix = np.zeros((4, walked.size + 1), dtype=np.int64)
    suffix[:, :-1] = np.cumsum(kinds[:, ::-1], axis=1)[:, ::-1]
    tied, full_only, reduced_only, either = suffix.tolist()

    def feasible(j: int, sends: int, reds: int) -> bool:
        k = sends - tied[j]  # optional slots still to send
        fewest = max(0, k - full_only[j] - either[j])
        most = tied[j] + min(k, reduced_only[j] + either[j])
        return (0 <= k <= full_only[j] + reduced_only[j] + either[j]
                and fewest <= reds and (lam == 0 or reds <= most))

    sends_left = n - int(np.count_nonzero(send)) + tied[0]
    reduced_left = m - int(np.count_nonzero(reduced))
    walk = zip(
        walked.tolist(), opt.tolist(), full_ok.tolist(), reduced_ok.tolist(),
        *_SEND_ACTION[1:, levels[walked]].tolist(),  # full and reduced send codes
    )
    for j, (t, is_opt, f_ok, r_ok, f_code, r_code) in enumerate(walk, start=1):
        # (action, sends, reduced sends); Action codes order idle, free,
        # full lease, reduced lease, as the tie rule does
        choices = sorted(
            [(0, 0, 0)] * is_opt + [(f_code, 1, 0)] * f_ok + [(r_code, 1, 1)] * r_ok
        )
        for action, ds, dr in choices:
            if feasible(j, sends_left - ds, reduced_left - dr):
                break
        actions[t] = action
        sends_left -= ds
        reduced_left -= dr

    # validate_schedule recomputes the cost: equal to the dual bound, optimal
    schedule = Schedule(actions, dual(lam), reduced_count=m - reduced_left)
    validate_schedule(instance, schedule)
    return schedule


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
            f"slot window [{first_slot}, {last_slot}] outside trace horizon: need "
            f"0 <= first_slot <= last_slot < {trace.horizon}"
        )
    window = slice(first_slot, last_slot + 1)
    return OfflineInstance(
        levels=trace.levels[concentrator, window],
        price_full_microcents=trace.price_full[window],
        price_reduced_microcents=trace.price_reduced[window],
        n_units=n_units,
        quality_budget=quality_budget,
    )
