"""Simulation driver for a fleet of concentrators.

``run`` simulates one policy over one trace, and ``run_many`` a list of
them over one trace, returning what ``run`` would for each, in input
order. Both serve their runs by one route, ``_serve``, a single run being
a list of one (see ``policy``): one LyapunovPolicy steps a batch of
threshold runs, at most MAX_CELLS cells (runs x K x T), in one slot loop
whose rows carry a run axis, and any other run is served alone, by the
policy built for it from the trace. Each run's (concentrator, slot)
Action codes and packets served, backlog after the last slot and
arrival sums then go to ``run`` for the post-run pass.

The post-run pass has two halves, each over blocks of rows. The arrival
half (_arrival_sums, blocks of about 2**15 cells) reads the trace's
arrivals once for every run of a batch, and once for a single run: the
fleet's arrivals per slot, and each run's sum_t min(A_t, n) over its rows.
The other half (blocks of about 2**16 cells) reads a run's own codes and
service, run by run: the invariant checks (each error names the policy
label, seed, first offending slot and concentrator; every rule is searched
in every block, and the first rule in order that any block broke is
reported), packet conservation, the cost accounting, the fleet's backlog
per slot, and the total packet delay. A slot's bill is its count of full
leases times the full price plus its count of reduced leases times the
reduced price; a concentrator's bill is an exact int64 product of its
lease masks with the price rows, and a block without reduced leases skips
their half. A run's RunMetrics keeps only these summaries, never the codes
or the service matrix. Service is FIFO within a concentrator, so the total
delay is the area between its cumulative arrival and service curves (the
sample-path argument behind Little's law), computed from per-slot counts
and never per packet: with A_t the arrivals through slot t, s_t the
packets served in slot t and n their total, it is
sum_t min(A_t, n) - sum_t s_t (T - t).

compare_with_oracle is the one offline comparison: it takes every run on
one trace, solves each distinct (n_units, quality_budget) workload once
for the whole fleet (oracle_reference, a row block at a time), and returns
each run's offline optimum and the oracle row of the batch's loosest
workload.

Costs are integer micro-cents throughout, so runs are reproducible to the
last digit across platforms: a ScenarioConfig bounds prices when it is
built, and a Trace bounds its own, so that no cost sum can leave the
exactly representable range.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .config import MAX_CELLS, ScenarioConfig
from .env import SpectrumLevel, Trace, generate_trace, row_blocks, to_dollars
from .errors import ConfigurationError, InvariantViolationError
from .oracle import OfflineInstance, solve_dp
from .policy import (
    _BUY_FULL,
    _BUY_REDUCED,
    _FREE_FULL,
    _FREE_REDUCED,
    _IDLE,
    POLICIES,
    LyapunovParams,
    LyapunovPolicy,
    PolicyParams,
    QualityParams,
    free_capacities,
    threshold_actions,
)


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
    *,
    _served: tuple[np.ndarray, np.ndarray, np.ndarray, _ArrivalSums] | None = None,
) -> RunMetrics:
    """Simulate one policy over one trace (drawn from config.seed if absent).
    A trace drawn for another scenario (config_digest != config.env_digest())
    raises ConfigurationError; epsilon-only variants share a trace.

    queue_series_mean[t] is the fleet's backlog before slot t's service,
    the cumulative arrivals minus the cumulative service through slot t - 1,
    summed in int64 and divided by k. It equals the mean of the backlog
    vector at that point while the fleet backlog stays below 2**53; above
    that the int64 sum is the more exact of the two.

    The run is served as a list of one (_serve). ``_served`` is run_many's
    hand-off, the (codes, packets served, Q, arrival sums) that _serve
    yielded for the run: only the post-run pass is then left.
    """
    if trace is None:
        trace = generate_trace(config, config.seed)
    _check_trace(config, trace)
    if _served is None:
        _served = next(_serve(config, [params], trace))
    return _summarize(params, config, trace, *_served)


def run_many(
    config: ScenarioConfig,
    params_seq: Iterable[PolicyParams],
    trace: Trace | None = None,
) -> list[RunMetrics]:
    """Simulate each policy of ``params_seq`` over one trace (drawn from
    config.seed if absent): one RunMetrics per run, in input order, each
    the one ``run`` returns for it.

    The runs are served by _serve, and each run's post-run pass still goes
    through ``run``, in input order, so an error names the same run, seed,
    slot and concentrator as a single run would. A run's Action codes are
    recovered when its own pass starts and freed when it ends.
    """
    params_seq = list(params_seq)  # read once: a batch and its passes both walk it
    if trace is None:
        trace = generate_trace(config, config.seed)
    _check_trace(config, trace)
    served = _serve(config, params_seq, trace)
    return [run(config, p, trace, _served=next(served)) for p in params_seq]


def _serve(config, params_seq, trace):
    """Serve each run of ``params_seq`` on ``trace`` and yield its (codes,
    packets served, Q, arrival sums), in input order. The threshold runs
    are served in batches, in input order, of at most MAX_CELLS cells
    (R * K * T): each batch steps its slots in one loop of a LyapunovPolicy
    dropped when it returns, and sums the trace's arrivals once for all its
    runs (_arrival_sums). A run's codes are recovered only when its turn
    comes. Any other run is served alone, by the policy make_policy builds."""
    k = trace.k
    size = MAX_CELLS // (k * trace.horizon)
    runs = [p for p in params_seq if isinstance(p, LyapunovParams)]
    done = 0  # threshold runs yielded so far
    for params in params_seq:
        if not isinstance(params, LyapunovParams):
            alone = make_policy(params, config, trace).serve(trace)
            yield (*alone, _arrival_sums(trace, alone[1])[0])
            del alone  # before the next run is served
            continue
        r = done % size
        if r == 0:
            serves = q = None  # the last batch's, freed before this one
            batch = tuple(runs[done : done + size])
            serves, q = LyapunovPolicy(batch, config, trace).serve_rows(trace)
            sums = _arrival_sums(trace, serves)
        done += 1
        own = slice(r * k, (r + 1) * k)
        served = serves[own]  # a view; no local holds the run's codes
        yield threshold_actions(config, served, trace.levels), served, q[own], sums[r]


class _ArrivalSums(NamedTuple):
    """The sums of one run's post-run pass that read the trace's arrivals:
    ``capped`` is sum_t min(A_t, n) over the run's rows, with A_t a row's
    arrivals through slot t and n its packets served, and ``per_slot`` the
    trace's (T,) int64 arrivals per slot over the fleet, shared by every
    run of a batch."""

    capped: int
    per_slot: np.ndarray


def _arrival_sums(trace: Trace, serves: np.ndarray) -> list[_ArrivalSums]:
    """The arrival sums of the R runs whose packets served are the rows of
    ``serves``, (R * K, T), run r in rows r * K to (r + 1) * K. Each block
    of rows of the trace's arrivals is read, cast and summed once, however
    many runs there are; only the min against each run's n is per run."""
    k, horizon = trace.k, trace.horizon
    departed = serves.sum(axis=1, dtype=np.int64).reshape(-1, k)
    capped = [0] * len(departed)
    per_slot = np.zeros(horizon, dtype=np.int64)
    # blocks of about 2**15 cells: a batch's running sums and one run's
    # minimum, two int64 blocks, take the memory of one block of the pass
    for block in row_blocks(k, 2 * horizon):
        arrivals = trace.arrivals[block]
        per_slot += arrivals.sum(axis=0, dtype=np.int64)
        arrived = arrivals.astype(np.int64)
        np.cumsum(arrived, axis=1, out=arrived)
        below = np.empty_like(arrived) if len(departed) > 1 else None
        for r, n in enumerate(departed[:-1]):
            capped[r] += int(np.minimum(arrived, n[block, None], out=below).sum())
        # the last run's minimum in place, so that one run needs one block
        capped[-1] += int(np.minimum(arrived, departed[-1, block, None], out=arrived).sum())
        del arrived, below  # before the next block's temporaries
    return [_ArrivalSums(c, per_slot) for c in capped]


def _check_trace(config: ScenarioConfig, trace: Trace) -> None:
    """Refuse a trace that was not drawn for ``config``'s environment."""
    if trace.config_digest != config.env_digest():
        raise ConfigurationError(
            f"trace seed {trace.seed} was drawn for another scenario: an environment "
            "field (k_concentrators, horizon, arrival_law, ...) differs"
        )


# spectrum levels as uint8 scalars, as policy keeps the Action codes
_NONE, _REDUCED, _FULL = (np.uint8(level) for level in SpectrumLevel)


def _summarize(params, config, trace, decisions, serves, q, sums) -> RunMetrics:
    """Check a finished run and account for it, from its (K, T) Action
    codes and packets served, its final Q and its arrival sums, in one
    pass over blocks of rows, so that no (K, T) temporary is ever built."""
    k, horizon = trace.k, trace.horizon
    run_name = f"{params.label} seed {trace.seed}"
    free = free_capacities(config).astype(np.int16)
    leases_full = np.zeros(horizon, dtype=np.int64)
    leases_reduced = np.zeros(horizon, dtype=np.int64)
    cost_per_conc = np.empty(k, dtype=np.int64)
    served_per_slot = np.zeros(horizon, dtype=np.int64)
    # each rule's first offence so far: (slot, concentrator), or None
    first: dict[str, tuple[int, int] | None] = {}
    sent = reduced = 0
    for block in row_blocks(k, horizon):
        codes, served = decisions[block], serves[block]
        rules = _violations(params, free, codes, served, trace.levels[block])
        for rule, offending in rules:
            found = first.setdefault(rule, None)
            if offending.any():
                t = int(offending.any(axis=0).argmax())
                if found is None or t < found[0]:
                    first[rule] = t, block.start + int(offending[:, t].argmax())

        # a uint8 view sums per slot as int32 faster than a bool mask as int64
        full = codes == _BUY_FULL
        leases_full += full.view(np.uint8).sum(axis=0, dtype=np.int32)
        cost_per_conc[block] = full @ trace.price_full
        part = codes == _BUY_REDUCED
        if part.any():  # only the deadline scheduler leases reduced units
            leases_reduced += part.view(np.uint8).sum(axis=0, dtype=np.int32)
            cost_per_conc[block] += part @ trace.price_reduced
            reduced += int(np.count_nonzero(part))
        # a code is IDLE exactly where nothing moved, so every other code is a send
        sent += int(np.count_nonzero(codes))
        reduced += int(np.count_nonzero(codes == _FREE_REDUCED))

        served_per_slot += served.sum(axis=0, dtype=np.int64)

    for rule, found in first.items():
        if found is not None:
            raise InvariantViolationError(
                f"{run_name}: {rule} at slot {found[0]}, concentrator {found[1]}"
            )
    total_arrived, total_served = int(sums.per_slot.sum()), int(served_per_slot.sum())
    if total_arrived != total_served + int(q.sum()):
        raise InvariantViolationError(
            f"{run_name}: packet conservation broken: "
            f"{total_arrived} arrived != {total_served} served + {int(q.sum())} queued"
        )
    cost_series_fleet = np.cumsum(
        leases_full * trace.price_full + leases_reduced * trace.price_reduced
    )
    backlog = np.zeros(horizon, dtype=np.int64)
    net = sums.per_slot - served_per_slot
    np.cumsum(net[:-1], out=backlog[1:])
    # each packet waits one slot per slot end at which it has arrived and
    # is not yet served; only the first n arrivals ever leave, n the row's
    # packets served: sum_t min(A_t, n) - sum_t S_t over the rows, and
    # sum_t S_t = sum_t s_t (T - t), whose sum over the rows needs only
    # the fleet's service per slot
    remaining = np.arange(horizon, 0, -1, dtype=np.int64)
    total_delay = sums.capped - int(served_per_slot @ remaining)

    return RunMetrics(
        params=params,
        seed=trace.seed,
        config_digest=trace.config_digest,
        k=k,
        horizon=horizon,
        cost_total_microcents=int(cost_series_fleet[-1]),
        cost_per_concentrator=cost_per_conc,
        cost_series_fleet=cost_series_fleet,
        purchases_per_slot=(leases_full + leases_reduced).astype(np.int32),
        queue_series_mean=backlog / k,
        final_queue=q - trace.arrivals[:, -1],
        total_delay_slots=total_delay,
        total_arrived=total_arrived,
        total_served=total_served,
        units_sent_full=sent - reduced,
        units_sent_reduced=reduced,
    )


def _violations(params, free, decisions, serves, levels):
    """Each per-slot rule a block of rows must keep, in the order they are
    reported, with its offending mask; masks are built one at a time, so
    only one is alive at once. ``free`` is the free capacity of each
    spectrum level."""
    yield "free transmission without free spectrum", (
        (decisions == _FREE_FULL) & (levels == _NONE)
    )
    yield "reduced free transmission without reduced spectrum", (
        (decisions == _FREE_REDUCED) & (levels != _REDUCED)
    )
    if not isinstance(params, QualityParams):
        # a lease relabelled as a free send would drop its price from the bill
        yield "free send moved more than the level's free capacity", (
            (decisions == _FREE_FULL) & (serves > free.take(levels))
        )
        return
    # a free unit needs a full free channel, a free packet only some spectrum
    yield "free full unit without full spectrum", (
        (decisions == _FREE_FULL) & (levels != _FULL)
    )
    yield "unit transmission not backed by a full unit of backlog", (
        (decisions != _IDLE) & (serves != free[_FULL])
    )
    missed = np.zeros(decisions.shape, dtype=bool)
    on_time = np.count_nonzero(decisions[:, : params.deadline + 1], axis=1)
    missed[:, params.deadline] = on_time < params.n_units
    yield "quality policy missed its deadline", missed
    reduced = (decisions == _FREE_REDUCED) | (decisions == _BUY_REDUCED)
    # running counts only for the rows whose total is over budget
    over = np.flatnonzero(np.count_nonzero(reduced, axis=1) > params.quality_budget)
    exceeded = np.zeros(decisions.shape, dtype=bool)
    exceeded[over] = np.cumsum(reduced[over], axis=1) > params.quality_budget
    yield f"quality budget of {params.quality_budget} exceeded", exceeded


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
    """Offline-optimal cost of the (n_units, budget) workload per concentrator,
    over slots 1 to T - 1 (OfflineInstance's default window), solved and
    checked by solve_dp a row block at a time."""
    per_conc = np.empty(trace.k, dtype=np.int64)
    for block in row_blocks(trace.k, trace.horizon - 1):
        instance = OfflineInstance(trace, block, n_units, quality_budget)
        per_conc[block] = solve_dp(instance).cost
    return per_conc


def compare_with_oracle(
    config: ScenarioConfig,
    trace: Trace,
    runs: Iterable[RunMetrics],
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
    runs = list(runs)  # read once: the checks, the workloads and the costs walk it
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
