"""Simulation driver for a fleet of concentrators.

The policy is built once per run from the trace, so its price rules are
per-slot arrays before the first slot. How a run is served depends on
whether its grants read the backlog. The threshold policy's do, so it runs
in a slot loop that carries only the backlog Q of each concentrator: each
slot the policy serves the smaller of its grant and the backlog, keeping
whatever else it reads from slot to slot (its virtual queues) itself, and
the loop enqueues the slot's arrivals. The static baseline and the deadline
scheduler never read the backlog, so each grants every slot of the run at
once, as a (K, T) matrix, and the engine serves that matrix in closed form:
the backlog after each slot's service follows the Lindley recursion, one
prefix sum and one running minimum per row. Everything is vectorized
across the fleet, and a step that needs an int64 per cell works in blocks
of rows.

Everything else runs once, after the service. The policy turns the
(concentrator, slot) service matrix into Action codes; then come the
invariant checks over codes and service (each error names the policy
label, seed, first offending slot and concentrator), the cost accounting,
the fleet's mean backlog per slot, and the total packet delay. A run's
RunMetrics keeps only these summaries, never the codes or the service
matrix. Service is FIFO within a concentrator, so the total delay is the
area between its cumulative arrival and service curves (the sample-path
argument behind Little's law), computed from per-slot counts and never per
packet.

Costs are integer micro-cents throughout, so runs are reproducible to the
last digit across platforms: a ScenarioConfig bounds prices when it is
built, and a Trace bounds its own, so that no cost sum can leave the
exactly representable range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import ScenarioConfig
from .env import SpectrumLevel, Trace, generate_trace, row_blocks, to_dollars
from .errors import ConfigurationError, InvariantViolationError
from .oracle import instance_from_trace, solve_dp
from .policy import (
    Action,
    BasePolicy,
    LyapunovParams,
    LyapunovPolicy,
    PolicyParams,
    QualityParams,
    QualityPolicy,
    StaticBurstPolicy,
    StaticParams,
)


def service_capacity(config: ScenarioConfig) -> int:
    """Maximum packets one concentrator can move per slot (one full unit)."""
    return int(config.unit_size_packets)

def reduced_capacity(config: ScenarioConfig) -> int:
    """Free packets per slot on reduced-level spectrum, for packet policies."""
    # guard against float dust in the product before flooring
    return int(math.floor(config.reduced_fraction * config.unit_size_packets + 1e-9))


def is_unit_granular(config: ScenarioConfig) -> bool:
    """True when backlog moves in whole data units, making a run mappable
    onto an offline scheduling instance."""
    try:
        _check_unit_alignment(config)
    except ConfigurationError:
        return False
    return True


def _check_unit_alignment(config: ScenarioConfig) -> None:
    if config.arrival_law != "deterministic":
        raise ConfigurationError(
            "unit-granular scheduling needs deterministic arrivals"
        )
    if config.mean_arrival < 1:
        raise ConfigurationError("unit-granular scheduling needs arrivals")
    if config.unit_size_packets != config.mean_arrival:
        raise ConfigurationError(
            "unit-granular scheduling needs unit_size_packets == mean_arrival "
            f"(got {config.unit_size_packets} != {config.mean_arrival})"
        )


def make_policy(
    params: PolicyParams, config: ScenarioConfig, trace: Trace
) -> BasePolicy:
    """Build the policy that ``params`` configures for one run on ``trace``."""
    unit = service_capacity(config)
    if isinstance(params, QualityParams):
        policy = QualityPolicy(params, unit, trace.price_full, trace.price_reduced)
        _check_unit_alignment(config)
        if params.deadline > config.horizon - 1:
            raise ConfigurationError(
                "quality deadline exceeds the last serviceable slot "
                f"({config.horizon - 1})"
            )
        return policy
    capacities = unit, reduced_capacity(config)
    if isinstance(params, LyapunovParams):
        epsilon = config.epsilon if params.epsilon is None else params.epsilon
        return LyapunovPolicy(
            params, *capacities, trace.price_full, trace.k, float(epsilon)
        )
    if isinstance(params, StaticParams):
        return StaticBurstPolicy(params, *capacities, trace.horizon)
    raise ConfigurationError(f"not a policy parameter block: {params!r}")


@dataclass(eq=False)
class RunMetrics:
    """What one run produced, in integer-exact form; no field is (K, T)."""

    params: PolicyParams
    seed: int
    k: int
    horizon: int
    cost_total_microcents: int
    cost_per_concentrator: np.ndarray      # (K,) int64, final totals
    cost_series_fleet: np.ndarray          # (T,) int64, cumulative
    purchases_per_slot: np.ndarray         # (T,) int32, charged leases
    queue_series_mean: np.ndarray          # (T,) float64, pre-service mean
    final_queue: np.ndarray                # (K,) int64, post-service last slot
    total_delay_slots: int                 # summed over delivered packets
    total_arrived: int
    total_served: int
    units_sent_full: int
    units_sent_reduced: int

    @property
    def policy_kind(self) -> str:
        return self.params.kind

    @property
    def policy_label(self) -> str:
        return self.params.label

    @property
    def mean_queue_len(self) -> float:
        """Time- and fleet-averaged pre-service backlog, packets."""
        return float(self.queue_series_mean.mean()) if self.horizon else 0.0

    @property
    def final_queue_mean(self) -> float:
        return float(self.final_queue.mean())

    @property
    def measured_mean_delay(self) -> float:
        """Mean slots a delivered packet waited, exact for FIFO service."""
        return self.total_delay_slots / self.total_served if self.total_served else 0.0

    @property
    def empirical_arrival_rate(self) -> float:
        return self.total_arrived / (self.k * self.horizon)

    @property
    def littles_delay(self) -> float:
        """Delay implied by Little's law from the run's own averages."""
        rate = self.empirical_arrival_rate
        return self.mean_queue_len / rate if rate else 0.0

    @property
    def cost_total_dollars(self) -> float:
        return to_dollars(self.cost_total_microcents)

    @property
    def workload_complete(self) -> bool:
        """True when nothing serviceable was left behind."""
        return bool(np.all(self.final_queue == 0))


def run(
    config: ScenarioConfig,
    params: PolicyParams,
    trace: Trace | None = None,
) -> RunMetrics:
    """Simulate one policy over one trace (drawn from config.seed if absent).

    queue_series_mean[t] is the fleet's backlog before slot t's service,
    the cumulative arrivals minus the cumulative service through slot t - 1,
    summed in int64 and divided by k. It equals the mean of the backlog
    vector at that point while the fleet backlog stays below 2**53; above
    that the int64 sum is the more exact of the two.
    """
    if trace is None:
        trace = generate_trace(config, config.seed)
    if trace.k != config.k_concentrators or trace.horizon != config.horizon:
        raise ConfigurationError(
            f"trace is {trace.k}x{trace.horizon}, config wants "
            f"{config.k_concentrators}x{config.horizon}"
        )
    policy = make_policy(params, config, trace)
    serves, q = _serve(policy, trace)
    decisions = policy.actions(serves, trace.levels)
    return _summarize(params, trace, service_capacity(config), decisions, serves, q)


def _serve(policy: BasePolicy, trace: Trace):
    """The (K, T) int16 packets served, and Q after the last slot: a slot
    loop for the threshold policy, whose grants read the backlog, and one
    pass over the grants fixed in advance for the other policies."""
    if isinstance(policy.params, LyapunovParams):
        return _serve_slots(policy, trace)
    return _serve_grants(policy.grants(trace.levels), trace.arrivals)


def _serve_slots(policy: BasePolicy, trace: Trace):
    """The slot loop: the policy serves each slot from the backlog Q."""
    q = np.zeros(trace.k, dtype=np.int64)
    serves = np.empty((trace.k, trace.horizon), dtype=np.int16)
    levels, arrivals = trace.levels, trace.arrivals
    for t in range(trace.horizon):
        served = policy.decide_slot(t, levels[:, t], q)
        serves[:, t] = served
        q -= served
        q += arrivals[:, t]
    return serves, q


def _serve_grants(grants: np.ndarray, arrivals: np.ndarray):
    """Serve min(Q, grant) in every slot of a (K, T) int16 grant matrix; the
    packets served overwrite the grants, and Q after the last slot is
    returned with them.

    The backlog u_t after slot t's service obeys the Lindley recursion
    u_t = max(u_{t-1} + a_{t-1} - g_t, 0), with u_{-1} = a_{-1} = 0. With
    S_t the prefix sum of a_{t-1} - g_t and m_t the running minimum of
    min(S_t, 0), u_t = S_t - m_t: slot t serves its grant less the part an
    empty queue left unused, g_t - (m_{t-1} - m_t), and Q after the last
    slot is u_{T-1} + a_{T-1}.
    """
    k, horizon = grants.shape
    q = np.empty(k, dtype=np.int64)
    for block in row_blocks(k, horizon):
        m = np.zeros(grants[block].shape, dtype=np.int64)
        m[:, 1:] = arrivals[block, :-1]
        m -= grants[block]
        np.cumsum(m, axis=1, out=m)
        q[block] = m[:, -1] + arrivals[block, -1]
        np.minimum(m, 0, out=m)
        np.minimum.accumulate(m, axis=1, out=m)
        q[block] -= m[:, -1]
        grants[block] += np.diff(m, axis=1, prepend=0)
    return grants, q


def _summarize(params, trace, unit, decisions, serves, q) -> RunMetrics:
    """Check a finished run and account for it, from its (K, T) Action
    codes and packets served and its final Q."""
    k, horizon = trace.k, trace.horizon
    levels, arrivals = trace.levels, trace.arrivals
    run_name = f"{params.label} seed {trace.seed}"
    _check_decisions(run_name, params, decisions, serves, levels, unit)
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
    # blocks of rows, so no (K, T) int64 matrix is ever built
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


def _violations(params, decisions, serves, levels, unit):
    """Each per-slot rule a run must keep, with its (K, T) offending mask;
    masks are built one at a time, so only one is alive at once."""
    yield "free transmission without free spectrum", (
        (decisions == Action.FREE_FULL) & (levels == SpectrumLevel.NONE)
    )
    yield "reduced free transmission without reduced spectrum", (
        (decisions == Action.FREE_REDUCED) & (levels != SpectrumLevel.REDUCED)
    )
    if not isinstance(params, QualityParams):
        return
    yield "unit transmission not backed by a full unit of backlog", (
        (decisions != Action.IDLE) & (serves != unit)
    )
    missed = np.zeros(decisions.shape, dtype=bool)
    missed[:, params.deadline] = np.count_nonzero(decisions, axis=1) < params.n_units
    yield "quality policy missed its deadline", missed
    reduced = (decisions == Action.FREE_REDUCED) | (decisions == Action.BUY_REDUCED)
    # running counts only for the rows whose total is over budget
    over = np.flatnonzero(np.count_nonzero(reduced, axis=1) > params.quality_budget)
    exceeded = np.zeros(decisions.shape, dtype=bool)
    exceeded[over] = np.cumsum(reduced[over], axis=1) > params.quality_budget
    yield f"quality budget of {params.quality_budget} exceeded", exceeded


def _check_decisions(run_name, params, decisions, serves, levels, unit) -> None:
    """Raise at the first slot, then concentrator, that broke a rule."""
    for rule, offending in _violations(params, decisions, serves, levels, unit):
        slots = np.flatnonzero(offending.any(axis=0))
        if slots.size:
            t = int(slots[0])
            i = int(np.flatnonzero(offending[:, t])[0])
            raise InvariantViolationError(
                f"{run_name}: {rule} at slot {t}, concentrator {i}"
            )


def derive_quality_params(
    config: ScenarioConfig,
    reference: RunMetrics,
    budget_share: float,
    beta_c: float = 1.0,
) -> QualityParams:
    """Size a deadline-scheduling workload to match a reference run's delay.

    The reference run's Little's-law delay d (whole slots, at least 1)
    becomes the per-unit latency target: units arriving in the last d
    slots can never meet it, so the workload is horizon - d units with
    the last serviceable slot as the deadline. The quality budget is the
    requested share of those units, rounded down.
    """
    _check_unit_alignment(config)
    if not 0.0 <= budget_share < 1.0:
        raise ConfigurationError("budget_share must lie in [0, 1)")
    d = max(1, round(reference.littles_delay))
    n_units = config.horizon - d
    if n_units < 1:
        raise ConfigurationError("horizon too short for the derived delay target")
    return QualityParams(
        n_units=n_units,
        deadline=config.horizon - 1,
        quality_budget=int(budget_share * n_units),
        beta_c=beta_c,
    )


def oracle_reference(
    trace: Trace,
    n_units: int,
    quality_budget: int,
) -> np.ndarray:
    """Offline-optimal cost of the (n_units, budget) workload per concentrator."""
    per_conc = np.zeros(trace.k, dtype=np.int64)
    for i in range(trace.k):
        inst = instance_from_trace(trace, i, n_units, quality_budget)
        try:
            per_conc[i] = solve_dp(inst).total_cost_microcents
        except InvariantViolationError as exc:
            raise InvariantViolationError(
                f"oracle seed {trace.seed}, concentrator {i}, n_units {n_units}, "
                f"budget {quality_budget}: {exc}"
            ) from exc
    return per_conc


def oracle_workload(
    config: ScenarioConfig, metrics: RunMetrics
) -> tuple[int, int] | None:
    """The (n_units, quality_budget) offline workload whose schedules a run's
    sends realize, or None if the run is not comparable.

    Comparable means the run maps onto an offline scheduling instance:
    the scenario is unit-granular, and either the policy is the deadline
    scheduler (whose realized sends are a feasible schedule for its own
    workload by construction) or the run drained every serviceable packet
    (then the realized sends are a feasible schedule for the full
    horizon - 1 unit workload at zero quality budget).
    """
    if not is_unit_granular(config):
        return None
    unit = config.unit_size_packets
    if isinstance(metrics.params, QualityParams):
        n_units, spare = divmod(metrics.total_served, unit * metrics.k)
        if spare:
            return None  # pragma: no cover - unit runs serve whole units
        return n_units, metrics.params.quality_budget
    # completion in a unit-granular scenario forces one whole unit
    # through every serviceable slot, so the realized sends form a
    # feasible full-workload schedule with no quality degradation
    if not metrics.workload_complete:
        return None
    n_units = config.horizon - 1
    if metrics.total_served != n_units * unit * metrics.k:
        return None
    return n_units, 0


def check_offline_dominance(metrics: RunMetrics, offline_per_conc: np.ndarray) -> int:
    """The fleet's offline-optimal cost in micro-cents, after checking that
    no concentrator's online cost beats its offline optimum, which would
    mean the accounting or the oracle is wrong (InvariantViolationError)."""
    beaten = np.flatnonzero(metrics.cost_per_concentrator < offline_per_conc)
    if beaten.size:
        i = int(beaten[0])
        raise InvariantViolationError(
            f"{metrics.policy_label} seed {metrics.seed}: online cost "
            f"{metrics.cost_per_concentrator[i]} of concentrator {i} beats the "
            f"offline optimum {offline_per_conc[i]}; oracle or accounting broken"
        )
    return int(offline_per_conc.sum())


def compare_with_oracle(
    config: ScenarioConfig,
    trace: Trace,
    metrics: RunMetrics,
) -> int | None:
    """The fleet's offline-optimal cost in micro-cents for one run's
    oracle_workload, after check_offline_dominance; None if the run is not
    comparable."""
    workload = oracle_workload(config, metrics)
    if workload is None:
        return None
    return check_offline_dominance(metrics, oracle_reference(trace, *workload))
