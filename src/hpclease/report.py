"""Aggregation of run metrics into sweep summaries and serialized tables.

Costs are stored in integer micro-cents and reported in dollars at
micro-cent precision (8 decimal places). Emission is deterministic:
identical inputs produce byte-identical CSV/JSON/dat output.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .env import to_dollars
from .errors import ConfigurationError
from .engine import RunMetrics

AXIS_V_FACTOR = "v_factor"
AXIS_QUALITY_BUDGET = "quality_budget"

_AXES = (AXIS_V_FACTOR, AXIS_QUALITY_BUDGET)


@dataclass(frozen=True)
class SweepPoint:
    axis_value: float
    cost_mean_microcents: float
    cost_std_microcents: float
    queue_mean: float
    delay_mean: float
    oracle_cost_microcents: float | None = None


@dataclass(frozen=True)
class SweepResult:
    """One aggregated sweep: points sorted by axis value."""

    axis: str
    seed_count: int
    points: tuple[SweepPoint, ...]
    v_star: float | None = None

    def __post_init__(self) -> None:
        if self.axis not in _AXES:
            raise ConfigurationError(f"unknown sweep axis {self.axis!r}")
        if self.seed_count < 1:
            raise ConfigurationError("a sweep needs at least one seed")
        values = [p.axis_value for p in self.points]
        if values != sorted(values):
            raise ConfigurationError("sweep points must be sorted by axis value")


def _points(
    axis: str,
    runs_by_value: dict[float, list[RunMetrics]],
    oracle_by_value: dict[float, list[int]] | None = None,
) -> tuple[int, tuple[SweepPoint, ...]]:
    """The seed count every value of ``axis`` shares and its sorted
    SweepPoints, each with its value's mean offline cost when
    ``oracle_by_value`` is given."""
    counts = {len(runs) for runs in runs_by_value.values()}
    if len(counts) != 1 or 0 in counts:
        raise ConfigurationError(f"every {axis} value needs the same nonzero seed count")
    points = []
    for value in sorted(runs_by_value):
        runs = runs_by_value[value]
        costs = np.array([r.cost_total_microcents for r in runs], dtype=np.float64)
        oracle = None if oracle_by_value is None else oracle_by_value[value]
        points.append(
            SweepPoint(
                axis_value=float(value),
                cost_mean_microcents=float(costs.mean()),
                cost_std_microcents=float(costs.std(ddof=1)) if len(costs) > 1 else 0.0,
                queue_mean=float(np.mean([r.final_queue_mean for r in runs])),
                delay_mean=float(np.mean([r.measured_mean_delay for r in runs])),
                oracle_cost_microcents=None if oracle is None else float(np.mean(oracle)),
            )
        )
    return counts.pop(), tuple(points)


def v_sweep_summary(runs_by_v: dict[float, list[RunMetrics]]) -> SweepResult:
    """Aggregate a cost-weight sweep and locate the best zero-backlog point.

    v_star is the smallest axis value whose mean final queue is zero and
    whose mean cost is minimal among all such values; None when no value
    empties the queue (reported, not an error).
    """
    if len(runs_by_v) < 2:
        raise ConfigurationError("a sweep needs at least two distinct axis values")
    count, points = _points(AXIS_V_FACTOR, runs_by_v)
    drained = [p for p in points if p.queue_mean == 0.0]
    v_star = None
    if drained:
        best = min(p.cost_mean_microcents for p in drained)
        v_star = min(p.axis_value for p in drained if p.cost_mean_microcents == best)
    return SweepResult(AXIS_V_FACTOR, count, points, v_star)


def quality_sweep_summary(
    runs_by_budget: dict[int, list[RunMetrics]],
    oracle_costs_by_budget: dict[int, list[int]] | None = None,
) -> SweepResult:
    """Aggregate a quality-budget sweep, optionally pairing each budget with
    the offline-optimal cost on the same traces."""
    if not runs_by_budget:
        raise ConfigurationError("empty sweep")
    if oracle_costs_by_budget is not None:
        missing = sorted(set(runs_by_budget) - set(oracle_costs_by_budget))
        if missing:
            raise ConfigurationError(
                f"oracle baseline missing for budgets {missing}"
            )
    count, points = _points(AXIS_QUALITY_BUDGET, runs_by_budget, oracle_costs_by_budget)
    return SweepResult(AXIS_QUALITY_BUDGET, count, points)


def _point_row(point: SweepPoint, with_oracle: bool) -> list[str]:
    row = [
        f"{point.axis_value:.10g}",
        f"{to_dollars(point.cost_mean_microcents):.8f}",
        f"{to_dollars(point.cost_std_microcents):.8f}",
        f"{point.queue_mean:.6f}",
        f"{point.delay_mean:.6f}",
    ]
    if with_oracle:
        row.append(
            ""
            if point.oracle_cost_microcents is None
            else f"{to_dollars(point.oracle_cost_microcents):.8f}"
        )
    return row


def emit(result: SweepResult, format: str) -> bytes:
    """Serialize a sweep. Formats: csv, json, dat (gnuplot-friendly)."""
    with_oracle = any(p.oracle_cost_microcents is not None for p in result.points)
    header = ["axis_value", "cost_mean", "cost_std", "queue_mean", "delay_mean"]
    if with_oracle:
        header.append("oracle_cost")

    if format == "csv":
        lines = [",".join(header)]
        for p in result.points:
            lines.append(",".join(_point_row(p, with_oracle)))
        return ("\n".join(lines) + "\n").encode("ascii")

    if format == "dat":
        lines = [
            f"# axis: {result.axis}  seeds: {result.seed_count}",
            "# " + " ".join(header),
        ]
        for p in result.points:
            lines.append(" ".join(_point_row(p, with_oracle)))
        return ("\n".join(lines) + "\n").encode("ascii")

    if format == "json":
        doc = {
            "axis": result.axis,
            "seed_count": result.seed_count,
            "v_star": result.v_star,
            "points": [
                {
                    "axis_value": p.axis_value,
                    "cost_mean_dollars": round(to_dollars(p.cost_mean_microcents), 8),
                    "cost_std_dollars": round(to_dollars(p.cost_std_microcents), 8),
                    "queue_mean": p.queue_mean,
                    "delay_mean": p.delay_mean,
                    "oracle_cost_dollars": (
                        None
                        if p.oracle_cost_microcents is None
                        else round(to_dollars(p.oracle_cost_microcents), 8)
                    ),
                }
                for p in result.points
            ],
        }
        return (
            json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
        ).encode("ascii")

    raise ConfigurationError(f"unknown output format {format!r}")


def run_series_csv(metrics: RunMetrics) -> bytes:
    """Per-slot time series of one run: cost so far, backlog, leases."""
    lines = ["slot,cost_dollars,queue_mean,purchases"]
    columns = (
        metrics.cost_series_fleet.tolist(),
        metrics.queue_series_mean.tolist(),
        metrics.purchases_per_slot.tolist(),
    )
    for t, (cost, queue, bought) in enumerate(zip(*columns)):
        lines.append(f"{t},{to_dollars(cost):.8f},{queue:.6f},{bought}")
    return ("\n".join(lines) + "\n").encode("ascii")


def run_summary(metrics: RunMetrics) -> dict:
    """Machine-readable end-of-run summary."""
    return {
        "policy": metrics.policy_label,
        "policy_kind": metrics.policy_kind,
        "seed": metrics.seed,
        "k_concentrators": metrics.k,
        "horizon": metrics.horizon,
        "cost_dollars": round(metrics.cost_total_dollars, 8),
        "cost_microcents": metrics.cost_total_microcents,
        "final_queue_mean": metrics.final_queue_mean,
        "mean_queue_len": metrics.mean_queue_len,
        "measured_mean_delay": metrics.measured_mean_delay,
        "littles_law_delay": metrics.littles_delay,
        "purchases": int(metrics.purchases_per_slot.sum()),
        "units_sent_full": metrics.units_sent_full,
        "units_sent_reduced": metrics.units_sent_reduced,
        "workload_complete": metrics.workload_complete,
    }


def comparison_table_csv(
    rows: list[tuple[RunMetrics, int | None]],
    oracle_row: tuple[str, int] | None = None,
) -> bytes:
    """Side-by-side policy table. Each row pairs a run with the offline-optimal
    cost of its workload in micro-cents, or None when the run is not
    comparable (incomplete workload or non-unit scenario), which leaves the
    oracle columns blank. The ratio is online over offline cost: 1 when both
    are 0, inf when only the offline cost is. oracle_row, when
    given, appends an offline optimum as (label, cost_microcents), as
    engine.compare_with_oracle returns it."""
    lines = [
        "policy,cost_dollars,cost_microcents,final_queue_mean,delay_mean,"
        "workload_complete,oracle_cost_dollars,oracle_ratio"
    ]
    for metrics, offline in rows:
        oracle_cost = ""
        oracle_ratio = ""
        if offline is not None:
            online = metrics.cost_total_microcents
            if offline:
                ratio = online / offline
            else:
                ratio = 1.0 if online == 0 else math.inf
            oracle_cost = f"{to_dollars(offline):.8f}"
            oracle_ratio = f"{ratio:.6f}"
        lines.append(
            ",".join(
                [
                    metrics.policy_label,
                    f"{metrics.cost_total_dollars:.8f}",
                    str(metrics.cost_total_microcents),
                    f"{metrics.final_queue_mean:.6f}",
                    f"{metrics.measured_mean_delay:.6f}",
                    "true" if metrics.workload_complete else "false",
                    oracle_cost,
                    oracle_ratio,
                ]
            )
        )
    if oracle_row is not None:
        label, cost = oracle_row
        lines.append(
            f"{label},{to_dollars(cost):.8f},{cost},0.000000,,true,,"
        )
    return ("\n".join(lines) + "\n").encode("ascii")
