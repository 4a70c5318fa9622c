"""Offline-optimal transmission scheduling with full future knowledge.

Given the whole sequence of spectrum levels and posted prices, choose when
to send N unit arrivals within T slots, at most M of them at reduced
quality, minimizing total spend. solve_rows is the one solver: it solves a
block of rows (concentrators) over shared price rows at once, pricing the
quality budget with a Lagrange multiplier (exact, as the problem is a
min-cost flow) that each row bisects inside a bracket of its savings' order
statistics, one row-wise selection per step. The slots that the multiplier
leaves open it settles under the tie rule for the whole block at once, in
a few rounds of array operations. solve_dp is the one checked entry: it
solves an OfflineInstance, a block of a trace's rows over a window of
slots, for engine.oracle_reference (the fleet) and the oracle subcommand
(one row), and every schedule it returns must keep schedule_violation's
rules and meet the dual bound that certifies it.

Conventions shared with the online policies: unit i (0-based) arrives at
slot i and cannot be sent earlier; at most one unit leaves per slot; a
reduced-quality send consumes the budget whether it was free or paid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import check_field_types
from .env import SpectrumLevel, Trace
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
    """A block of a trace's concentrators, scheduled over a window of slots.

    ``rows`` is a slice of the fleet such as row_blocks gives, start:stop
    with a start inside the fleet and a stop that may run past it (the
    block is clipped to the fleet). The window [first_slot, last_slot]
    (last_slot defaults to the trace's last slot) becomes slots 0..T-1.
    first_slot defaults to 1 because slot 0 precedes the first arrivals
    under the engine's slot ordering and so can never carry a send. Every
    row sends n_units units, at most quality_budget of them reduced:
    n_units must fit in the window and quality_budget must leave a
    full-quality unit. levels and the two price rows are views of the
    trace, which has checked their codes, 0 < reduced < full and the 2**53
    bound on every cost sum. Int fields are ints once built
    (config.check_field_types).
    """

    trace: Trace
    rows: slice
    n_units: int
    quality_budget: int
    first_slot: int = 1
    last_slot: int | None = None

    def __post_init__(self) -> None:
        check_field_types(self)
        trace, rows = self.trace, self.rows
        # a stepped or open-ended slice would misname its rows in solve_dp's errors
        if not (
            isinstance(rows, slice) and isinstance(rows.start, int)
            and isinstance(rows.stop, int) and rows.start < rows.stop
            and rows.step in (None, 1)
        ):
            raise ConfigurationError(f"rows must be a slice start:stop of step 1, got {rows}")
        if not 0 <= rows.start < trace.k:
            raise ConfigurationError(f"concentrator {rows.start} outside fleet of {trace.k}")
        if self.last_slot is None:
            object.__setattr__(self, "last_slot", trace.horizon - 1)
        first, last = self.first_slot, self.last_slot
        if not 0 <= first <= last < trace.horizon:
            raise ConfigurationError(
                f"slot window [{first}, {last}] outside trace horizon: need "
                f"0 <= first_slot <= last_slot < {trace.horizon}"
            )
        n, m = self.n_units, self.quality_budget
        if n < 0 or m < 0:
            raise ConfigurationError("n_units and quality_budget cannot be negative")
        if m >= max(1, n):
            raise ConfigurationError(
                "quality budget must leave a full-quality unit, or be 0 in an empty "
                f"instance: quality_budget {m}, n_units {n}"
            )
        if n > self.horizon:
            raise InfeasibleError(f"{n} units cannot be sent in {self.horizon} slots")

    @property
    def horizon(self) -> int:
        return self.last_slot - self.first_slot + 1

    @property
    def levels(self) -> np.ndarray:
        """The (R, T) block of the trace's levels."""
        return self.trace.levels[self.rows, self.first_slot : self.last_slot + 1]

    @property
    def price_full_microcents(self) -> np.ndarray:
        return self.trace.price_full[self.first_slot : self.last_slot + 1]

    @property
    def price_reduced_microcents(self) -> np.ndarray:
        return self.trace.price_reduced[self.first_slot : self.last_slot + 1]


def _first_row(broken: np.ndarray) -> int | None:
    return int(broken.argmax()) if broken.any() else None


def schedule_violation(
    levels, price_full, price_reduced, n_units, quality_budget, actions, cost,
    reduced_count,
) -> tuple[int, str] | None:
    """The first schedule rule, in order, that some row of a block breaks,
    as (row, message) for the first row that breaks it; None when every row
    keeps every rule.

    levels and actions are (R, T), the price rows (T,) and shared by every
    row, cost and reduced_count the (R,) stored totals. A row must send
    n_units units, use free spectrum only at its level, send at most
    quality_budget units at reduced quality and store its own reduced
    count and cost.
    """
    if actions.shape != levels.shape:
        return 0, "schedule length differs from instance horizon"
    sends = (actions != int(Action.IDLE)).sum(axis=1)
    if (i := _first_row(sends != n_units)) is not None:
        return i, f"schedule sends {sends[i]} units, instance requires {n_units}"
    free_full = actions == int(Action.FREE_FULL)
    off_level = levels != int(SpectrumLevel.FULL)
    if (i := _first_row((free_full & off_level).any(axis=1))) is not None:
        return i, "free full send on a slot without full spectrum"
    free_reduced = actions == int(Action.FREE_REDUCED)
    off_level = levels != int(SpectrumLevel.REDUCED)
    if (i := _first_row((free_reduced & off_level).any(axis=1))) is not None:
        return i, "free reduced send on a slot without reduced spectrum"
    buy_reduced = actions == int(Action.BUY_REDUCED)
    reduced = (free_reduced | buy_reduced).sum(axis=1)
    if (i := _first_row(reduced > quality_budget)) is not None:
        return i, "schedule exceeds the quality budget"
    if (i := _first_row(reduced != reduced_count)) is not None:
        return i, "stored reduced_count is wrong"
    # an exact int64 product: every row's bill is at most 2**53
    buy_full = actions == int(Action.BUY_FULL)
    recomputed = buy_full @ price_full + buy_reduced @ price_reduced
    if (i := _first_row(recomputed != cost)) is not None:
        return i, f"stored cost {cost[i]} != recomputed {recomputed[i]}"
    return None


@dataclass(frozen=True)
class RowSchedules:
    """The optimal schedules of a block of rows: (R, T) Action codes and,
    per row, the dual bound they meet (the cost they must recompute to),
    their reduced sends and the budget's multiplier lam*."""

    actions: np.ndarray
    cost: np.ndarray
    reduced_count: np.ndarray
    lam: np.ndarray


def solve_dp(instance: OfflineInstance) -> RowSchedules:
    """The minimum-cost schedules of every row of an instance, exact in int64,
    each first under the tie rule (solve_rows), once they keep every rule of
    schedule_violation and recompute to the dual bound that certifies them
    optimal. A row that does not raises InvariantViolationError naming the
    seed, its concentrator, the slot window and the workload."""
    args = (
        instance.levels, instance.price_full_microcents,
        instance.price_reduced_microcents, instance.n_units, instance.quality_budget,
    )
    rows = solve_rows(*args)
    broken = schedule_violation(*args, rows.actions, rows.cost, rows.reduced_count)
    if broken is not None:
        row, rule = broken
        raise InvariantViolationError(
            f"oracle seed {instance.trace.seed}, concentrator {instance.rows.start + row}, "
            f"slots {instance.first_slot}-{instance.last_slot}, n_units {instance.n_units}, "
            f"budget {instance.quality_budget}: {rule}"
        )
    return rows


def solve_rows(levels, price_full, price_reduced, n_units, quality_budget) -> RowSchedules:
    """Minimum-cost schedules of a block of rows by selection, exact in int64.

    Each row of the (R, T) levels is one instance over the shared (T,)
    price rows, with one workload: N units, at most M reduced, N and M as
    OfflineInstance admits them. Causality never binds, so a row sends in N
    of the T slots, each at full quality for a_t (0 on full spectrum, else
    the full price) or reduced for b_t (0 on reduced spectrum, else the
    reduced price), at most M reduced. That is a min-cost flow, so pricing
    the budget is exact: the dual L(lam) = (sum of the N smallest eff =
    min(a, b + lam)) - lam * M is concave and peaks at lam*, the least
    integer lam >= 0 with L(lam + 1) <= L(lam).

    Slope rule: raising lam by one raises eff by one exactly where the
    saving d = a - b exceeds lam. With theta the N-th smallest eff and
    need = N - #{eff < theta}, the N smallest at lam + 1 keep first the
    tied slots that do not rise, so s(lam) = L(lam + 1) - L(lam) + M is
    #{eff < theta, d > lam} + max(0, need - #{eff == theta, d <= lam}):
    the rising slots among the N smallest keys 2 eff + [d > lam]. lam* is
    the least lam with s(lam) <= M.

    Bracket: s(lam) lies between #{d > lam} - (T - N) and #{d > lam}, so
    with D_j the j-th largest d of a row, lam* lies in
    [max(0, D_{M+T-N+1}), max(0, D_{M+1})], a single point when N == T.
    Two row-wise selections give both ends. Each row bisects its own
    bracket; a step takes one row-wise selection of the keys over the
    whole block, so the block's rows share every numpy call.

    At lam* the optimal schedules send every slot with eff < theta and none
    above theta, each at an option costing eff (plus lam* if reduced), with
    exactly M reduced sends if lam* > 0. The slots this leaves open (eff ==
    theta, or both options at eff) follow the tie rule: in time order, each
    takes the first choice, in the tie order idle, free, full lease,
    reduced lease, after which the rest stays feasible. The rest is
    feasible while six counts stay >= 0; each choice uses some of them up
    and none ever rises, so a row's choices change only where a count runs
    out, and a few rounds of one cumulative sum and one search each settle
    the open slots of the whole block (_settle). Each row's cost is
    the dual bound L(lam*) = (sum of eff below theta) + need * theta -
    lam* M; a schedule that keeps every rule and recomputes to it is
    optimal (the caller checks, with schedule_violation).
    """
    rows, t_total = levels.shape
    n, m = n_units, quality_budget
    if n == 0:
        cost, reduced_count, lam = np.zeros((3, rows), dtype=np.int64)
        return RowSchedules(
            np.zeros((rows, t_total), dtype=np.uint8), cost, reduced_count, lam
        )
    a = price_full * (levels != SpectrumLevel.FULL)
    b = price_reduced * (levels != SpectrumLevel.REDUCED)
    d = a - b

    # the bracket's ends, D_j being entry T - j of a sorted row: a selection
    # of one entry at a time, as a pair of them takes numpy several times
    # longer, and D_{M+T-N+1} among the entries left of D_{M+1}
    ranks = np.partition(d, t_total - m - 1, axis=1)
    hi = np.maximum(ranks[:, t_total - m - 1], 0)
    if n < t_total:
        ranks[:, : t_total - m - 1].partition(n - m - 1, axis=1)
    lo = np.maximum(ranks[:, n - m - 1], 0)
    del ranks
    # a slot's key 2 eff + [d > lam] is min(2a, 2b + 1 + 2 lam): eff doubled,
    # odd where it rises with lam; a and b hold 2a and 2b + 1 from here on
    a <<= 1
    b <<= 1
    b |= 1
    # every step reuses one buffer: a fresh block-sized array per step
    # costs the allocator more than the step's arithmetic
    key = np.empty_like(a)
    # each step halves every bracket, the widest settling in bit_length
    # steps; s(hi) <= M holds throughout, so a settled row never rises
    for _ in range(int((hi - lo).max()).bit_length()):
        mid = (lo + hi) // 2
        np.add(b, 2 * mid[:, None], out=key)
        np.minimum(a, key, out=key)
        key.partition(n - 1, axis=1)
        # the odd keys among the N smallest rise; s(mid) > M: lam* > mid
        rising = np.bitwise_and(key[:, :n], 1, out=key[:, :n]).sum(axis=1) > m
        lo = np.where(rising, mid + 1, lo)
        hi = np.where(rising, hi, mid)
    lam = lo

    lam_col = lam[:, None]
    eff = np.add(b, 2 * lam_col, out=key)
    np.minimum(a, eff, out=eff)
    eff >>= 1
    del a, b, key
    if n == t_total:  # every slot sends, so none is open
        send = np.ones(eff.shape, dtype=bool)
        optional = np.zeros(eff.shape, dtype=bool)
        cost = eff.sum(axis=1) - lam * m
    else:
        theta = np.partition(eff, n - 1, axis=1)[:, [n - 1]]
        send, optional = eff < theta, eff == theta
        need = n - send.sum(axis=1)
        cost = eff.sum(axis=1, where=send) + need * theta[:, 0] - lam * m
    del eff
    # a send costs eff at its full option if d <= lam, reduced if d >= lam
    reduced = send & (d > lam_col)
    option = send + reduced.view(np.uint8)
    actions = _SEND_ACTION.take(option * np.uint8(_SEND_ACTION.shape[1]) + levels)
    reduced_left = m - reduced.sum(axis=1)
    unsent = n - send.sum(axis=1)

    # the open slots, row by row in time order: the optional ones and the
    # sends that cost eff at either option
    row, slot = np.nonzero(optional | (send & (d == lam_col)))
    slack = d[row, slot] - lam[row]
    del d
    level = levels[row, slot]
    kind = optional[row, slot].view(np.uint8)
    kind |= (slack <= 0) * np.uint8(2)
    kind |= (slack >= 0) * np.uint8(4)
    kind |= _REDUCED_FIRST[level]
    del slack
    choice, reduced_left = _settle(row, kind, unsent, reduced_left, lam > 0)
    actions[row, slot] = _SEND_ACTION[choice, level]
    return RowSchedules(actions, cost, m - reduced_left, lam)


# An open slot's kind, by bit: 0 optional (else a send due at either
# option), 1 full option, 2 reduced option, 3 reduced before full in the
# tie order (the reduced send's code is the lower, on reduced spectrum)
_REDUCED_FIRST = (_SEND_ACTION[2] < _SEND_ACTION[1]) * np.uint8(8)
# The tie rule's gaps, by bit. Before an open slot, let S be the units
# still to send, t of them the sends due at this slot and after, and R the
# reduced sends still allowed. The open slots from here on can take them iff
# six counts are >= 0: the optional sends owed (S - t), the optional slots
# that may still idle, R, the full-capable slots to spare over the S - R
# sends not reduced, and, when lam* > 0 as the budget is then spent
# exactly, S - R and the reduced-capable slots to spare over R.
_OWED, _IDLE_LEFT, _REDUCED_LEFT, _FULL_SPARE, _FULL_OWED, _REDUCED_SPARE = range(6)
# which kinds count towards the optional slots, the optional slots with the
# full option, the sends due, and the slots with the reduced option
_COUNTED = np.stack([(k & 1, k & 3 == 3, ~k & 1, k >> 2 & 1) for k in range(16)], axis=1)


def _tie_rule() -> np.ndarray:
    """The tie rule's step, at [kind * 64 + the mask of the gaps that have
    run out]: the choice (0 idle, 1 full, 2 reduced) in bits 6-7 and the
    gaps it uses up in bits 0-5. The step takes the first choice, in the
    tie order idle, free, full lease, reduced lease, that uses up no gap
    that has run out (the last choice when each does)."""
    table = np.zeros((16, 64), dtype=np.uint8)
    out = np.arange(64)
    for kind in range(16):
        opt, full, red, red_first = (kind >> bit & 1 for bit in range(4))
        # an idle uses up a slot that may idle and a spare of each option
        # the slot has; a send, a send owed at its quality, an optional send
        # if the slot is optional and a spare of the slot's other option
        idle = 1 << _IDLE_LEFT | full << _FULL_SPARE | red << _REDUCED_SPARE
        sends = [(1, 1 << _FULL_OWED | opt << _OWED | red << _REDUCED_SPARE)] * full
        sends += [(2, 1 << _REDUCED_LEFT | opt << _OWED | full << _FULL_SPARE)] * red
        choices = [(0, idle)] * opt + (sends[::-1] if red_first else sends)
        # from the last choice, which stands where none fits, to the first
        for rank, (choice, uses) in enumerate(choices[::-1]):
            table[kind, (out & uses == 0) | (rank == 0)] = choice << 6 | uses
    return table.ravel()


_TIE_RULE = _tie_rule()


def _settle(row, kind, unsent, reduced_left, priced):
    """The open slots' choices under the tie rule, and each row's reduced
    sends still allowed after them.

    ``row`` and ``kind`` give each open slot's row, in row then time order,
    and its kind; ``unsent`` and ``reduced_left`` are per row, before the
    open slots, and ``priced`` marks the rows with lam* > 0. A gap only
    falls, so once run out it stays out, and a row's choices change only
    where a gap runs out: at most six times. Each round settles every row
    up to its next such slot at once, found by one cumulative sum of the
    gaps each choice uses up and one search.
    """
    rows, size = unsent.size, row.size
    counts = np.bincount(row * 16 + kind, minlength=16 * rows).reshape(rows, 16)
    optional, optional_full, due, red_capable = _COUNTED @ counts.T
    gaps = np.stack([
        unsent, optional - unsent, reduced_left, optional_full - unsent + reduced_left,
        unsent + due - reduced_left, red_capable - reduced_left,
    ])
    never = 6 * (size + 1)  # past any count of gaps used up
    gaps[_FULL_OWED:] = np.where(priced, gaps[_FULL_OWED:], never)

    bounds = np.searchsorted(row, np.arange(rows + 1))
    start, end = bounds[:-1], bounds[1:]
    at = np.arange(size)
    index = kind.astype(np.uint16) << 6
    # the step of slot j at key[j + 1]; key[0] indexes a kind without
    # choices, whose step is 0, so each gap's cumulative count starts at 0
    key = np.zeros(size + 1, dtype=np.uint16)
    offsets = np.arange(0, never, size + 1)[:, None]
    steps = np.empty(size, dtype=np.uint8)
    # one running count over the gaps in turn, so that one search finds
    # where each gap of each row runs out; [g, j] counts gap g used up
    # before slot j, plus every count of the gaps before it
    used = np.empty((6, size + 1), dtype=np.intp)
    while (start < end).any():
        out = np.packbits(gaps <= 0, axis=0, bitorder="little")[0]
        np.add(index, out[row], out=key[1:])
        step = _TIE_RULE.take(key)
        np.copyto(steps, step[1:], where=at >= start[row])
        used[...] = np.unpackbits(step[None], axis=0, count=6, bitorder="little")
        np.cumsum(used, out=used.ravel())
        base = used[:, start]
        stop = np.searchsorted(used.ravel(), base + np.where(gaps > 0, gaps, never))
        stop = np.minimum((stop - offsets).min(axis=0), end)
        gaps -= used[:, stop] - base
        start = stop
    return steps >> 6, gaps[_REDUCED_LEFT]

