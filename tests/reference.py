"""Scalar and loop references that tests replay the production code against.

* Queue algebra for one concentrator: a FIFO ledger of arrival stamps, the
  delay virtual queue and per-packet delays. The engine's vectorized slot
  loop and its closed-form delay totals are replayed against it. Slot order
  (as in the engine): observe state, decide, serve, advance the virtual
  queue, then enqueue the slot's arrivals, so a packet served in its
  arrival slot has delay 0 and decisions never see same-slot arrivals.
* PapMirror: the running-mean purchase-attractiveness prices that
  QualityPolicy computes for every slot from a trace's price arrays.
* lyapunov_decide, static_decide and quality_decide: each policy's rule for
  one concentrator and one slot, as straight-line code. The vectorized
  policies must agree with them, and QUALITY_TABLE is rebuilt from
  quality_decide cell by cell.
* run_codes is the slot loop the engine ran before the policies granted
  packets: each slot a policy returned one Action code per concentrator,
  and packet_grant turned code and spectrum level into packets.
  lyapunov_codes and static_codes are the code-returning rules it ran, over
  a production policy's per-run arrays, and code_rule picks a policy's.
* serve_grant_slots is the grant loop that followed it, before the static
  and deadline-scheduler runs took their service in closed form and the
  threshold policy walked its slots in slot-major blocks; static_grant and
  QualityGrants are the per-slot rules it ran for the first two, and
  lyapunov_step is the rule it ran for the third.
* threshold_actions recovers a threshold run's Action codes from its
  packets served and the scenario, as the engine did before the slot loop
  summed a threshold run's service itself: a slot leased exactly when it
  moved more than the level frees.
* lyapunov_step is the threshold policy's slot step as it ran before the
  step worked in place on float64 rows: it takes the slot's levels and the
  int64 backlog, returns a new int64 grant array and advances the policy's
  Z through mixed int64 and float64 arithmetic.
* summarize is the engine's post-run pass as it was before the pass was
  fused into one row-block loop: each rule's offending (K, T) mask built
  and searched in turn, the bill gathered from a (code, slot) price table,
  and the delay from two cumulative sums. It also keeps the packet-policy
  rule that the fused pass added (a free send that moved more than the
  level's free capacity), so that both report every rogue run alike.
* The offline solvers below each solve a one-row OfflineInstance and
  return a Row (its Action codes, cost and reduced count) that must keep
  every rule of oracle.schedule_violation.
* solve_bruteforce enumerates every schedule of a small offline instance.
* solve_by_bisection is the selection solver as it ran one instance at a
  time, before it solved a block of rows at once: it bisects the budget's
  multiplier over [0, max(0, max(a - b))], evaluating the dual by two
  selections and two exact sums per step, and walks the open slots under
  the production tie rule. It returns the multiplier lam* with the schedule.
* solve_banded_dp is the banded 3-D dynamic program that was the production
  offline solver before the selection solver replaced it. It handles every
  instance, T == n_units included, and shares the production tie rule.
"""

from __future__ import annotations

import math
from collections import Counter, deque
from dataclasses import dataclass, field

import numpy as np

from hpclease.engine import RunMetrics
from hpclease.env import SpectrumLevel, row_blocks
from hpclease.errors import ConfigurationError, InfeasibleError, InvariantViolationError
from hpclease.oracle import OfflineInstance, schedule_violation
from hpclease.policy import (
    IS_REDUCED,
    QUALITY_TABLE,
    Action,
    LyapunovPolicy,
    QualityParams,
    QualityPolicy,
    StaticBurstPolicy,
    StaticParams,
    free_capacities,
)

# ---------------------------------------------------------------------------
# queue algebra


@dataclass(frozen=True)
class ArrivalBatch:
    """Packets arriving at one concentrator at the end of one slot."""

    slot: int
    packets: int

    def __post_init__(self) -> None:
        if self.slot < 0 or self.packets < 0:
            raise ConfigurationError(
                f"arrival batch requires slot >= 0 and packets >= 0, "
                f"got slot={self.slot} packets={self.packets}"
            )


@dataclass(frozen=True)
class ServiceGrant:
    """Realized service for one concentrator in one slot."""

    packets_served: int

    def __post_init__(self) -> None:
        if self.packets_served < 0:
            raise ConfigurationError("packets_served cannot be negative")


@dataclass
class ConcentratorState:
    """Backlog bookkeeping for one concentrator.

    packet_ledger holds [arrival_slot, count] runs in FIFO order; its
    total count always equals q_len. delivered_delays counts served
    packets by their whole-slot delay.
    """

    q_len: int = 0
    z_len: float = 0.0
    packet_ledger: deque = field(default_factory=deque)
    delivered_delays: Counter = field(default_factory=Counter)
    total_arrived: int = 0
    total_served: int = 0
    total_delay_slots: int = 0

    def copy(self) -> "ConcentratorState":
        return ConcentratorState(
            q_len=self.q_len,
            z_len=self.z_len,
            packet_ledger=deque([slot, count] for slot, count in self.packet_ledger),
            delivered_delays=Counter(self.delivered_delays),
            total_arrived=self.total_arrived,
            total_served=self.total_served,
            total_delay_slots=self.total_delay_slots,
        )

    @property
    def y_len(self) -> float:
        """Policy-visible congestion measure: real plus virtual backlog."""
        return self.q_len + self.z_len

    def ledger_count(self) -> int:
        return sum(count for _, count in self.packet_ledger)


def enqueue(state: ConcentratorState, batch: ArrivalBatch) -> ConcentratorState:
    """Append one slot's arrivals; mutates and returns ``state``."""
    if batch.packets > 0:
        state.packet_ledger.append([batch.slot, batch.packets])
        state.q_len += batch.packets
        state.total_arrived += batch.packets
    return state


def serve(state: ConcentratorState, grant: ServiceGrant, now: int) -> ConcentratorState:
    """Remove up to ``grant.packets_served`` oldest packets at slot ``now``.

    Clamps at the current backlog (no underflow) and records each removed
    packet's delay now - arrival_slot. Mutates and returns ``state``.
    """
    remaining = min(state.q_len, grant.packets_served)
    ledger = state.packet_ledger
    while remaining > 0:
        entry = ledger[0]
        take = min(entry[1], remaining)
        delay = now - entry[0]
        state.delivered_delays[delay] += take
        state.total_delay_slots += delay * take
        state.total_served += take
        state.q_len -= take
        remaining -= take
        if take == entry[1]:
            ledger.popleft()
        else:
            entry[1] -= take
    return state


def advance_virtual(
    state: ConcentratorState,
    served: int,
    epsilon: float,
    busy_before_service: bool,
) -> ConcentratorState:
    """Advance the delay virtual queue one slot.

    z <- max(z - served + epsilon * 1[backlog before service > 0], 0).
    The pre-service occupancy flag must be sampled by the caller because
    serve() has already run by the time this executes.
    """
    if epsilon <= 0:
        raise ConfigurationError("epsilon must be positive")
    if served < 0:
        raise ConfigurationError("served cannot be negative")
    bump = epsilon if busy_before_service else 0.0
    state.z_len = max(state.z_len - served + bump, 0.0)
    return state


def littles_law_delay(mean_queue_len: float, mean_arrival_rate: float) -> float:
    """Average delay implied by Little's law, in slots."""
    if mean_arrival_rate <= 0:
        raise ValueError("mean arrival rate must be positive")
    return mean_queue_len / mean_arrival_rate


def measured_mean_delay(state: ConcentratorState) -> float:
    """Mean per-packet delay over everything this concentrator served."""
    if state.total_served == 0:
        return 0.0
    return state.total_delay_slots / state.total_served


# ---------------------------------------------------------------------------
# purchase-attractiveness prices


class PapMirror:
    """Running purchase-attractiveness prices, one posted price pair folded
    in per slot after that slot's decisions. The PAPs are beta_c times the
    mean of every pair observed so far; with no observations both are 0, so
    no price classifies as attractive."""

    def __init__(self, beta_c: float) -> None:
        self.beta_c = beta_c
        self.count = 0
        self.sum_full_microcents = 0
        self.sum_reduced_microcents = 0

    def observe(self, full_microcents: int, reduced_microcents: int) -> None:
        self.count += 1
        self.sum_full_microcents += full_microcents
        self.sum_reduced_microcents += reduced_microcents

    @property
    def pap_full_microcents(self) -> float:
        if self.count == 0:
            return 0.0
        return self.beta_c * self.sum_full_microcents / self.count

    @property
    def pap_reduced_microcents(self) -> float:
        if self.count == 0:
            return 0.0
        return self.beta_c * self.sum_reduced_microcents / self.count


# ---------------------------------------------------------------------------
# scalar policy rules


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


def static_decide(slot: int, params: StaticParams) -> bool:
    """True iff ``slot`` falls inside a purchase burst."""
    if slot < 1:
        return False
    return (slot - 1) % params.period < params.burst_len


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
    full, reduced = prices
    if full <= tracker.pap_full_microcents:
        return Action.BUY_FULL
    if budget_remaining > 0 and reduced <= tracker.pap_reduced_microcents:
        return Action.BUY_REDUCED
    return Action.IDLE


# ---------------------------------------------------------------------------
# the slot loop over Action codes

_IDLE_CODE, _FREE_FULL_CODE, _BUY_FULL_CODE = (
    np.uint8(a) for a in (Action.IDLE, Action.FREE_FULL, Action.BUY_FULL)
)


def packet_grant(capacity: int, reduced_capacity: int) -> np.ndarray:
    """Packets each action may move, indexed [Action code, SpectrumLevel
    code]; a free send on a level that does not admit it moves nothing."""
    grant = np.zeros((len(Action), len(SpectrumLevel)), dtype=np.int64)
    grant[Action.FREE_FULL, SpectrumLevel.REDUCED :] = reduced_capacity, capacity
    grant[Action.FREE_REDUCED, SpectrumLevel.REDUCED] = capacity
    grant[Action.BUY_FULL :] = capacity
    return grant


def _unit(policy: LyapunovPolicy) -> int:
    """A threshold policy's unit: the free capacity of full spectrum."""
    return policy.free_capacity[SpectrumLevel.FULL]


def _free_action(policy, levels):
    """What a busy concentrator does on each level when it does not buy."""
    return np.where(policy.free_capacity[levels] > 0, _FREE_FULL_CODE, _IDLE_CODE)


def lyapunov_codes(policy: LyapunovPolicy, slot, levels, q_len, z_len):
    """LyapunovPolicy's rule as one Action code per concentrator."""
    covered = policy.free_capacity[levels] >= np.minimum(q_len, _unit(policy))
    buying = q_len + z_len > policy.threshold[slot]
    actions = np.where(buying, _BUY_FULL_CODE, _free_action(policy, levels))
    return np.where(q_len > 0, np.where(covered, _FREE_FULL_CODE, actions), _IDLE_CODE)


def threshold_actions(config, serves, levels):
    """A threshold run's (K, T) uint8 Action codes, from its packets served."""
    # a slot bought exactly when it moved more than the level frees, so
    # its code is 2 * bought + moved: BUY_FULL, FREE_FULL or IDLE
    free = free_capacities(config).astype(np.int16)
    codes = np.empty(serves.shape, dtype=np.uint8)
    for block in row_blocks(*serves.shape):
        sent, code = serves[block], codes[block]
        np.greater(sent, free.take(levels[block]), out=code)
        code *= _BUY_FULL_CODE - _FREE_FULL_CODE
        code += sent > 0
    return codes


def static_codes(policy: StaticBurstPolicy, slot, levels, q_len, z_len):
    """StaticBurstPolicy's rule as one Action code per concentrator."""
    actions = _BUY_FULL_CODE if policy.in_burst[slot] else _free_action(policy, levels)
    return np.where(q_len > 0, actions, _IDLE_CODE)


class QualityGrants:
    """QualityPolicy's rule as the engine's grant loop ran it, one slot at a
    time: per concentrator it counts the units sent and the reduced units
    used, decides by one lookup in QUALITY_TABLE, records the slot's codes
    in a (K, T) matrix and grants a unit to every send."""

    def __init__(self, policy: QualityPolicy, k: int, horizon: int):
        self.params, self.price_class = policy.params, policy.price_class
        self.capacity = policy.capacity
        self.sent = np.zeros(k, dtype=np.int64)
        self.reduced_used = np.zeros(k, dtype=np.int64)
        self.codes = np.zeros((k, horizon), dtype=np.uint8)

    def __call__(self, slot, levels, q_len):
        p = self.params
        if not 1 <= slot <= p.deadline:
            return 0
        # 0 cannot send, 1 may send, 2 forced; forced implies can_send
        state = np.add(
            self.sent < min(slot, p.n_units),
            self.sent == p.n_units - (p.deadline - slot + 1),
            dtype=np.uint8,
        )
        cell = 6 * state + 2 * levels + (self.reduced_used < p.quality_budget)
        actions = QUALITY_TABLE[self.price_class[slot]][cell]
        self.codes[:, slot] = actions
        sends = actions != _IDLE_CODE
        self.sent += sends
        self.reduced_used += IS_REDUCED[actions]
        return self.capacity * sends


def static_grant(policy: StaticBurstPolicy):
    """StaticBurstPolicy's rule as the grant loop ran it: a full unit in a
    burst slot, the level's free capacity otherwise."""

    def decide(slot, levels, q_len):
        return policy.capacity if policy.in_burst[slot] else policy.free_capacity[levels]

    return decide


def lyapunov_step(policy: LyapunovPolicy, slot, levels, q_len):
    """The packets each concentrator moves in ``slot``, at most its int64
    backlog ``q_len``; the policy's Z advances past them."""
    grant = policy.free_capacity.take(levels)
    grant[q_len + policy.z > policy.threshold[slot]] = _unit(policy)
    np.minimum(q_len, grant, out=grant)
    # in place, in the order of max(Z - served + epsilon * busy, 0)
    z = policy.z
    z -= grant
    z += policy.epsilon * (q_len > 0)
    np.maximum(z, 0.0, out=z)
    return grant


def serve_grant_slots(decide, trace):
    """The slot loop over packet grants, as it ran every policy before the
    static and deadline-scheduler runs took their service in closed form
    and the threshold policy's loop read slot-major blocks: one strided
    (K, T) column per slot. ``decide(slot, levels, q)`` grants each
    concentrator packets, and the loop serves the smaller of grant and
    backlog. Returns the (K, T) int16 packets served and Q after the last
    slot."""
    q = np.zeros(trace.k, dtype=np.int64)
    serves = np.empty((trace.k, trace.horizon), dtype=np.int16)
    for t in range(trace.horizon):
        served = np.minimum(q, decide(t, trace.levels[:, t], q))
        serves[:, t] = served
        q -= served
        q += trace.arrivals[:, t]
    return serves, q


def code_rule(policy, trace):
    """The code-returning rule of a production policy for a run on ``trace``."""
    if isinstance(policy, LyapunovPolicy):
        return lambda *slot_state: lyapunov_codes(policy, *slot_state)
    if isinstance(policy, StaticBurstPolicy):
        return lambda *slot_state: static_codes(policy, *slot_state)
    grants = QualityGrants(policy, trace.k, trace.horizon)

    def quality_codes(slot, levels, q_len, z_len):
        grants(slot, levels, q_len)
        return grants.codes[:, slot]

    return quality_codes


def run_codes(decide, trace, capacity, reduced_capacity, epsilon):
    """The slot loop over Action codes. ``decide(slot, levels, q, z)``
    returns the slot's codes. Returns the (K, T) uint8 codes, the (K, T)
    int16 packets served, and Q and Z after the last slot."""
    grant = packet_grant(capacity, reduced_capacity)
    q = np.zeros(trace.k, dtype=np.int64)
    z = np.zeros(trace.k, dtype=np.float64)
    decisions = np.empty((trace.k, trace.horizon), dtype=np.uint8)
    serves = np.empty((trace.k, trace.horizon), dtype=np.int16)
    for t in range(trace.horizon):
        level = trace.levels[:, t]
        actions = decide(t, level, q, z)
        served = np.minimum(q, grant[actions, level])
        decisions[:, t] = actions
        serves[:, t] = served
        busy = q > 0
        q -= served
        np.maximum(z - served + epsilon * busy, 0.0, out=z)
        q += trace.arrivals[:, t]
    return decisions, serves, q, z


# ---------------------------------------------------------------------------
# the post-run pass, rule by rule


def summarize(params, config, trace, decisions, serves, q) -> RunMetrics:
    """Check a finished run and account for it, as the engine did before
    its post-run pass became one loop over blocks of rows."""
    k, horizon = trace.k, trace.horizon
    levels, arrivals = trace.levels, trace.arrivals
    run_name = f"{params.label} seed {trace.seed}"
    check_decisions(run_name, params, config, decisions, serves, levels)
    total_arrived = int(arrivals.sum())
    total_served = int(serves.sum())
    if total_arrived != total_served + int(q.sum()):
        raise InvariantViolationError(
            f"{run_name}: packet conservation broken: "
            f"{total_arrived} arrived != {total_served} served + {int(q.sum())} queued"
        )

    # a code is IDLE exactly where nothing moved, so every other code is a send
    reduced = int(np.count_nonzero(decisions == Action.FREE_REDUCED))
    reduced += int(np.count_nonzero(decisions == Action.BUY_REDUCED))
    # micro-cents one send costs, indexed [Action code, slot]
    charge = np.zeros((len(Action), horizon), dtype=np.int64)
    charge[Action.BUY_FULL] = trace.price_full
    charge[Action.BUY_REDUCED] = trace.price_reduced
    cost_per_slot = np.zeros(horizon, dtype=np.int64)
    cost_per_conc = np.empty(k, dtype=np.int64)
    total_delay = 0
    for block in row_blocks(k, horizon):
        paid = charge[decisions[block], np.arange(horizon)]
        cost_per_slot += paid.sum(axis=0)
        cost_per_conc[block] = paid.sum(axis=1)
        # each packet waits one slot per slot end at which it has arrived
        # and is not yet served; only the first S[T-1] arrivals ever leave
        departed = np.cumsum(serves[block], axis=1, dtype=np.int64)
        waiting = np.cumsum(arrivals[block], axis=1, dtype=np.int64)
        np.minimum(waiting, departed[:, -1:], out=waiting)
        waiting -= departed
        total_delay += int(waiting.sum())
    cost_series_fleet = np.cumsum(cost_per_slot)
    backlog = np.zeros(horizon, dtype=np.int64)
    net = arrivals.sum(axis=0, dtype=np.int64) - serves.sum(axis=0, dtype=np.int64)
    np.cumsum(net[:-1], out=backlog[1:])

    return RunMetrics(
        params=params,
        seed=trace.seed,
        config_digest=trace.config_digest,
        k=k,
        horizon=horizon,
        cost_total_microcents=int(cost_series_fleet[-1]),
        cost_per_concentrator=cost_per_conc,
        cost_series_fleet=cost_series_fleet,
        purchases_per_slot=np.count_nonzero(
            decisions >= Action.BUY_FULL, axis=0
        ).astype(np.int32),
        queue_series_mean=backlog / k,
        final_queue=q - arrivals[:, -1],
        total_delay_slots=total_delay,
        total_arrived=total_arrived,
        total_served=total_served,
        units_sent_full=int(np.count_nonzero(decisions)) - reduced,
        units_sent_reduced=reduced,
    )


def violations(params, config, decisions, serves, levels):
    """Each per-slot rule a run must keep, with its (K, T) offending mask."""
    yield "free transmission without free spectrum", (
        (decisions == Action.FREE_FULL) & (levels == SpectrumLevel.NONE)
    )
    yield "reduced free transmission without reduced spectrum", (
        (decisions == Action.FREE_REDUCED) & (levels != SpectrumLevel.REDUCED)
    )
    if not isinstance(params, QualityParams):
        yield "free send moved more than the level's free capacity", (
            (decisions == Action.FREE_FULL) & (serves > free_capacities(config)[levels])
        )
        return
    yield "free full unit without full spectrum", (
        (decisions == Action.FREE_FULL) & (levels != SpectrumLevel.FULL)
    )
    yield "unit transmission not backed by a full unit of backlog", (
        (decisions != Action.IDLE) & (serves != config.unit_size_packets)
    )
    missed = np.zeros(decisions.shape, dtype=bool)
    on_time = np.count_nonzero(decisions[:, : params.deadline + 1], axis=1)
    missed[:, params.deadline] = on_time < params.n_units
    yield "quality policy missed its deadline", missed
    reduced = (decisions == Action.FREE_REDUCED) | (decisions == Action.BUY_REDUCED)
    exceeded = np.cumsum(reduced, axis=1) > params.quality_budget
    yield f"quality budget of {params.quality_budget} exceeded", exceeded


def check_decisions(run_name, params, config, decisions, serves, levels) -> None:
    """Raise at the first slot, then concentrator, that broke a rule."""
    for rule, offending in violations(params, config, decisions, serves, levels):
        slots = np.flatnonzero(offending.any(axis=0))
        if slots.size:
            t = int(slots[0])
            i = int(np.flatnonzero(offending[:, t])[0])
            raise InvariantViolationError(
                f"{run_name}: {rule} at slot {t}, concentrator {i}"
            )


# ---------------------------------------------------------------------------
# offline solvers, each over a one-row OfflineInstance


@dataclass(frozen=True)
class Row:
    """One row's schedule: its (T,) Action codes and their totals."""

    actions: np.ndarray
    cost: int
    reduced_count: int


def _checked(instance: OfflineInstance, row: Row) -> Row:
    """``row``, once it keeps every rule of schedule_violation for the
    one-row ``instance`` (InvariantViolationError if not)."""
    broken = schedule_violation(
        instance.levels, instance.price_full_microcents,
        instance.price_reduced_microcents, instance.n_units, instance.quality_budget,
        row.actions[None], np.array([row.cost]), np.array([row.reduced_count]),
    )
    if broken is not None:
        raise InvariantViolationError(broken[1])
    return row


_BRUTE_FORCE_MAX_SLOTS = 12


def solve_bruteforce(instance: OfflineInstance) -> Row:
    """Exhaustive minimum over all feasible schedules; small instances only."""
    (levels,) = instance.levels
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
        level = int(levels[t])
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
    actions = np.asarray(best_actions, dtype=np.uint8)
    return _checked(instance, Row(actions, int(best_cost), sum(reduced_mask)))


# the action of a slot by [option (0 idle, 1 full, 2 reduced), SpectrumLevel]
_SEND_ACTION = np.array(
    [[Action.IDLE] * 3,
     [Action.BUY_FULL, Action.BUY_FULL, Action.FREE_FULL],
     [Action.BUY_REDUCED, Action.FREE_REDUCED, Action.BUY_REDUCED]],
    dtype=np.uint8,
)


def solve_by_bisection(instance: OfflineInstance) -> tuple[Row, int]:
    """The optimal schedule under the tie rule and the budget's multiplier
    lam*, one instance at a time: the dual L(lam) = (sum of the N smallest
    min(a, b + lam)) - lam * M peaks at the least integer lam* where
    L(lam + 1) <= L(lam), and the walk over the slots it leaves open must
    cost L(lam*)."""
    (levels,) = instance.levels
    t_total, n, m = instance.horizon, instance.n_units, instance.quality_budget
    if n == 0:
        return _checked(instance, Row(np.zeros(t_total, dtype=np.uint8), 0, 0)), 0
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

    # schedule_violation recomputes the cost: equal to the dual bound, optimal
    return _checked(instance, Row(actions, dual(lam), m - reduced_left)), lam


# choice codes, ordered by tie-break preference (argmin picks the lowest)
_IDLE, _FREE, _PAID_FULL, _PAID_REDUCED = 0, 1, 2, 3


def solve_banded_dp(instance: OfflineInstance) -> Row:
    """Minimum-cost feasible schedule by dynamic programming.

    State: (slot, units sent, reduced used). Units-sent is banded: with s
    sent after t slots, feasibility forces t - (T - N) <= s <= t, so only
    the slack u = t - s in [0, T - N] is materialized. Values roll slot by
    slot; choices are kept as one byte per state for reconstruction. Ties
    prefer idle, then free, then a full-price lease, then a reduced lease,
    resolving earlier slots first.
    """
    (levels,) = instance.levels
    t_total = instance.horizon
    n = instance.n_units
    m_budget = instance.quality_budget
    if n == 0:
        return _checked(instance, Row(np.zeros(t_total, dtype=np.uint8), 0, 0))

    width = t_total - n + 1  # slack axis size
    m_axis = m_budget + 1

    inf = np.inf
    choices = np.empty((t_total, width, m_axis), dtype=np.uint8)
    # value[u, m]: min cost-to-go from the start of the current slot
    value = np.full((width, m_axis), inf)
    value[t_total - n, :] = 0.0  # at t = T only s = N survives

    candidates = np.empty((4, width, m_axis))
    for t in range(t_total - 1, -1, -1):
        level = int(levels[t])
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
        level = int(levels[t])
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
    return _checked(instance, Row(actions, cost, used))
