"""Simulation driver for a fleet of concentrators.

The policy is built once per run from the trace and serves that run (see
``policy``): it returns the (concentrator, slot) Action codes and packets
served, and the backlog after the last slot. Then come the invariant
checks over codes and service (each error names the policy label, seed,
first offending slot and concentrator), the cost accounting, the fleet's
mean backlog per slot, and the total packet delay, all vectorized across
the fleet, in blocks of rows where a step needs an int64 per cell. A run's
RunMetrics keeps only these summaries, never the codes or the service
matrix. Service is FIFO within a concentrator, so the total delay is the
area between its cumulative arrival and service curves (the sample-path
argument behind Little's law), computed from per-slot counts and never per
packet.

compare_with_oracle is the one offline comparison: it takes every run on
one trace, solves each distinct (n_units, quality_budget) workload once
per concentrator, and returns each run's offline optimum and the oracle
row of the batch's loosest workload.

Costs are integer micro-cents throughout, so runs are reproducible to the
last digit across platforms: a ScenarioConfig bounds prices when it is
built, and a Trace bounds its own, so that no cost sum can leave the
exactly representable range.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import ScenarioConfig
from .env import SpectrumLevel, Trace, generate_trace, row_blocks, to_dollars
from .errors import ConfigurationError, InvariantViolationError
from .oracle import instance_from_trace, solve_dp
from .policy import POLICIES, Action, PolicyParams, QualityParams


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
            "unit-granular scheduling needs arrival_law deterministic, "
            f"got {config.arrival_law}"
        )
    # unit_size_packets >= 1, so this also refuses a scenario without arrivals
    if config.unit_size_packets != config.mean_arrival:
        raise ConfigurationError(
            "unit-granular scheduling needs unit_size_packets == mean_arrival "
            f"(got {config.unit_size_packets} != {config.mean_arrival})"
        )


def check_quality_params(config: ScenarioConfig, params: QualityParams) -> None:
    """Refuse a deadline-scheduling workload the scenario cannot run, before
    any trace is drawn."""
    _check_unit_alignment(config)
    if params.deadline > config.horizon - 1:
        raise ConfigurationError(
            f"quality deadline {params.deadline} exceeds the last serviceable "
            f"slot ({config.horizon - 1})"
        )


def make_policy(params: PolicyParams, config: ScenarioConfig, trace: Trace):
    """Build the policy that ``params`` configures for one run on ``trace``:
    the class that POLICIES keys by the block's type, which reads what it
    needs from the block, the scenario and the trace. A deadline-scheduling
    block is first checked against the scenario (check_quality_params)."""
    if type(params) not in POLICIES:
        raise ConfigurationError(f"not a policy parameter block: {params!r}")
    if isinstance(params, QualityParams):
        check_quality_params(config, params)
    return POLICIES[type(params)](params, config, trace)


@dataclass(eq=False)
class RunMetrics:
    """What one run produced, in integer-exact form; no field is (K, T)."""

    params: PolicyParams
    seed: int
    config_digest: str                     # the trace's environment digest
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
    A trace drawn for another scenario (config_digest != config.env_digest())
    raises ConfigurationError; epsilon-only variants share a trace.

    queue_series_mean[t] is the fleet's backlog before slot t's service,
    the cumulative arrivals minus the cumulative service through slot t - 1,
    summed in int64 and divided by k. It equals the mean of the backlog
    vector at that point while the fleet backlog stays below 2**53; above
    that the int64 sum is the more exact of the two.
    """
    if trace is None:
        trace = generate_trace(config, config.seed)
    _check_trace(config, trace)
    decisions, serves, q = make_policy(params, config, trace).serve(trace)
    return _summarize(params, trace, config.unit_size_packets, decisions, serves, q)


def _check_trace(config: ScenarioConfig, trace: Trace) -> None:
    """Refuse a trace that was not drawn for ``config``'s environment."""
    if trace.config_digest != config.env_digest():
        raise ConfigurationError(
            f"trace seed {trace.seed} was drawn for another scenario: an environment "
            "field (k_concentrators, horizon, arrival_law, ...) differs"
        )


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
    # a free unit needs a full free channel, a free packet only some spectrum
    yield "free full unit without full spectrum", (
        (decisions == Action.FREE_FULL) & (levels != SpectrumLevel.FULL)
    )
    yield "unit transmission not backed by a full unit of backlog", (
        (decisions != Action.IDLE) & (serves != unit)
    )
    missed = np.zeros(decisions.shape, dtype=bool)
    on_time = np.count_nonzero(decisions[:, : params.deadline + 1], axis=1)
    missed[:, params.deadline] = on_time < params.n_units
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
    delay: float,
    budget_share: float,
    beta_c: float = 1.0,
    name: str = "budget_share",
) -> QualityParams:
    """Size a deadline-scheduling workload to match a reference run's
    Little's-law ``delay`` d (whole slots, at least 1): units arriving in the
    last d slots can never meet it, so the workload is horizon - d units due
    by the last serviceable slot, and its quality budget is the requested
    share of them, rounded down. A share outside [0, 1) (called ``name`` in
    the error) or a workload the scenario cannot run raises ConfigurationError.

    At delay 1 it checks a share before any trace is drawn. That workload,
    horizon - 1 units, is the loosest any reference gives: only n_units
    depends on the delay, and int(share * n) < n while share < 1, so every
    derivation with at least one unit builds if it does.
    """
    if not 0.0 <= budget_share < 1.0:
        raise ConfigurationError(f"{name} must lie in [0, 1), got {budget_share}")
    n_units = config.horizon - max(1, round(delay))
    if n_units < 1:
        raise ConfigurationError("horizon too short for the derived delay target")
    params = QualityParams(
        n_units=n_units,
        deadline=config.horizon - 1,
        quality_budget=int(budget_share * n_units),
        beta_c=beta_c,
    )
    check_quality_params(config, params)
    return params


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


def compare_with_oracle(
    config: ScenarioConfig,
    trace: Trace,
    runs: list[RunMetrics],
) -> tuple[list[int | None], tuple[str, int] | None]:
    """Every run on ``trace`` against the offline optimum, each distinct
    (n_units, quality_budget) workload solved once.

    Returns each run's fleet offline-optimal cost in micro-cents, None
    when the run is not comparable, and the oracle row (label, micro-cents),
    None off unit-granular scenarios. A run is comparable in a
    unit-granular scenario when it ran the deadline scheduler, whose sends
    are a feasible schedule for its own workload, or drained every
    serviceable packet, which forces one whole unit through every slot from
    1 on: a feasible schedule for the horizon - 1 unit workload at zero
    quality budget. The oracle row solves the loosest workload of the
    batch, the fewest units and the largest budget (less than the units),
    so it lower-bounds every comparable run. A concentrator whose online
    cost beats its offline optimum means the accounting or the oracle is
    wrong (InvariantViolationError).

    A trace drawn for another scenario, or a run whose seed or environment
    digest differs from the trace's, raises ConfigurationError.
    """
    _check_trace(config, trace)
    for m in runs:
        if (m.seed, m.config_digest) != (trace.seed, trace.config_digest):
            raise ConfigurationError(
                f"{m.policy_label} ran on seed {m.seed} of scenario {m.config_digest}, "
                f"not on the compared trace (seed {trace.seed}, {trace.config_digest})"
            )
    if not is_unit_granular(config):
        return [None] * len(runs), None
    solved: dict[tuple[int, int], np.ndarray] = {}

    def offline(workload: tuple[int, int]) -> np.ndarray:
        if workload not in solved:
            solved[workload] = oracle_reference(trace, *workload)
        return solved[workload]

    quality = [m.params for m in runs if isinstance(m.params, QualityParams)]
    n_units = min([config.horizon - 1, *(p.n_units for p in quality)])
    budget = min(n_units - 1, max([0, *(p.quality_budget for p in quality)]))
    fleet: list[int | None] = []
    for metrics in runs:
        params = metrics.params
        if isinstance(params, QualityParams):
            workload = params.n_units, params.quality_budget
        elif metrics.workload_complete:
            workload = config.horizon - 1, 0
        else:
            fleet.append(None)
            continue
        per_conc = offline(workload)
        beaten = np.flatnonzero(metrics.cost_per_concentrator < per_conc)
        if beaten.size:
            i = int(beaten[0])
            raise InvariantViolationError(
                f"{metrics.policy_label} seed {metrics.seed}: online cost "
                f"{metrics.cost_per_concentrator[i]} of concentrator {i} beats the "
                f"offline optimum {per_conc[i]}; oracle or accounting broken"
            )
        fleet.append(int(per_conc.sum()))
    return fleet, (f"oracle[m={budget}]", int(offline((n_units, budget)).sum()))
