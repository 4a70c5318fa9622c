"""Command-line interface.

Subcommands: run, compare, sweep-v, sweep-quality, oracle, gen-trace.
Exit codes: 0 success, 2 usage error, 3 bad configuration or input format,
4 infeasible instance, 5 internal invariant violation. Diagnostics go to
stderr; data goes to stdout only with `-o -`.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from dataclasses import MISSING, fields
from statistics import fmean
from typing import get_args

import numpy as np

from .config import ScenarioConfig
from .engine import (
    RunMetrics,
    check_quality_params,
    compare_with_oracle,
    derive_quality_params,
    run,
)
from .env import generate_trace, load_trace, save_trace, to_dollars
from .errors import ConfigurationError, InfeasibleError, InvariantViolationError
from .oracle import instance_from_trace, solve_dp
from .policy import Action, LyapunovParams, PolicyParams, QualityParams, StaticParams
from . import report

OUT_DIR_ENV = "HPCLEASE_OUT_DIR"

# the bundled evaluation setup: 60 concentrators, 10,000 slots, 5 packets
# per slot, per-packet prices uniform on [0.1, 1.0] cents
PRESETS: dict[str, ScenarioConfig] = {
    "reference": ScenarioConfig(seed=101),
}

STATIC_SCHEME_1 = StaticParams(period=1000, burst_len=200)
STATIC_SCHEME_2 = StaticParams(period=1000, burst_len=150)

DEFAULT_V_GRID = [float(v) for v in np.logspace(0.0, 4.0, 10)]
DEFAULT_BUDGET_SHARES = [0.0, 0.1, 0.2, 0.3]


def _key_value(text: str) -> tuple[str, object]:
    if "=" not in text:
        raise argparse.ArgumentTypeError(
            f"override {text!r} is not of the form key=value"
        )
    key, _, raw = text.partition("=")
    try:
        value: object = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    return key.strip(), value


def _float_list(text: str) -> list[float]:
    try:
        return [float(part) for part in text.split(",") if part.strip() != ""]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad number list {text!r}") from exc


def _seed_list(text: str) -> list[int]:
    try:
        parts = [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad seed list {text!r}") from exc
    if not parts:
        raise argparse.ArgumentTypeError("empty seed list")
    return parts


def _subcommand(subs, name: str, handler, help: str) -> argparse.ArgumentParser:
    """A subparser with the shared scenario flags whose namespace carries
    ``handler``, the function that `main` calls with it."""
    sub = subs.add_parser(name, help=help)
    sub.set_defaults(handler=handler)
    sub.add_argument("--config", dest="config_path", help="scenario JSON file")
    sub.add_argument(
        "--preset",
        choices=sorted(PRESETS),
        help="bundled scenario to start from, instead of --config "
        "(default: reference)",
    )
    sub.add_argument(
        "--set",
        dest="overrides",
        type=_key_value,
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override a scenario field (repeatable)",
    )
    sub.add_argument("--seed", type=int, help="base seed, overrides the scenario")
    sub.add_argument(
        "-o",
        "--out",
        help="output directory, or - for stdout (default: "
        f"${OUT_DIR_ENV} or the working directory)",
    )
    return sub


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="hpclease",
        description="Leased-channel simulator for smart-grid concentrator fleets",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p_run = _subcommand(subs, "run", _cmd_run, "simulate one policy on one trace")
    p_run.add_argument(
        "--policy", default="lyapunov", choices=["lyapunov", "static", "quality"]
    )
    p_run.add_argument("--v-factor", type=float)
    p_run.add_argument("--period", type=int)
    p_run.add_argument("--burst-len", type=int)
    p_run.add_argument("--n-units", type=int)
    p_run.add_argument("--deadline", type=int)
    p_run.add_argument("--quality-budget", type=int)
    p_run.add_argument(
        "--budget-share",
        type=float,
        help="derive the quality workload from a reference run at --v-factor",
    )
    p_run.add_argument("--beta-c", type=float)

    p_cmp = _subcommand(
        subs, "compare", _cmd_compare, "matched-trace policy table with offline reference"
    )
    p_cmp.add_argument("--v-factor", type=float)
    p_cmp.add_argument(
        "--budget-share",
        type=float,
        help="also run the quality policy at this budget share",
    )
    p_cmp.add_argument("--beta-c", type=float)

    p_sv = _subcommand(
        subs, "sweep-v", _cmd_sweep_v, "cost-weight sweep, aggregated over seeds"
    )
    p_sv.add_argument(
        "--v",
        dest="v_values",
        type=_float_list,
        help="comma-separated grid (default: 10 log-spaced points in [1, 1e4])",
    )
    p_sv.add_argument(
        "--seeds",
        type=_seed_list,
        help="count (one number) or explicit comma-separated seed list",
    )
    p_sv.add_argument("--format", default="csv", choices=["csv", "json", "dat"])

    p_sq = _subcommand(
        subs,
        "sweep-quality",
        _cmd_sweep_quality,
        "quality-budget sweep at a matched delay target",
    )
    p_sq.add_argument(
        "--budgets",
        dest="budget_shares",
        type=_float_list,
        help="comma-separated budget shares (default: 0,0.1,0.2,0.3)",
    )
    p_sq.add_argument("--v-factor", type=float)
    p_sq.add_argument("--beta-c", type=float)
    p_sq.add_argument("--seeds", type=_seed_list)
    p_sq.add_argument("--with-oracle", action="store_true")
    p_sq.add_argument("--format", default="csv", choices=["csv", "json", "dat"])

    p_or = _subcommand(subs, "oracle", _cmd_oracle, "solve one offline instance exactly")
    p_or.add_argument("--trace", dest="trace_path", help="saved trace file")
    p_or.add_argument("--n-units", type=int, required=True)
    p_or.add_argument("--quality-budget", type=int, default=0)
    p_or.add_argument("--concentrator", type=int, default=0)
    p_or.add_argument("--first-slot", type=int, default=1)
    p_or.add_argument("--last-slot", type=int)

    _subcommand(subs, "gen-trace", _cmd_gen_trace, "draw and save a scenario trace")
    return parser.parse_args(argv)


def _scenario(spec: argparse.Namespace) -> ScenarioConfig:
    if spec.config_path and spec.preset:
        raise ConfigurationError(
            "--config and --preset each name the scenario to start from; give one"
        )
    if spec.config_path:
        try:
            with open(spec.config_path, "rb") as fh:
                data = json.load(fh)
        except OSError as exc:
            raise ConfigurationError(f"cannot read {spec.config_path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigurationError(
                f"{spec.config_path} is not valid JSON: {exc}"
            ) from exc
        cfg = ScenarioConfig.from_dict(data)
    else:
        cfg = PRESETS[spec.preset or "reference"]
    changes = dict(spec.overrides)
    if spec.seed is not None:
        changes["seed"] = spec.seed
    if changes:
        cfg = cfg.with_overrides(**changes)
    return cfg


def _seeds(spec: argparse.Namespace, cfg: ScenarioConfig) -> list[int]:
    """--seeds as a list: one number is a count of seeds from the base seed
    (5 when the flag is absent), more are the seeds themselves."""
    if spec.seeds is not None and len(spec.seeds) > 1:
        if min(spec.seeds) < 0:
            raise ConfigurationError("--seeds must be nonnegative")
        if len(set(spec.seeds)) < len(spec.seeds):
            raise ConfigurationError(f"--seeds repeats a seed: {spec.seeds}")
        return spec.seeds
    count = 5 if spec.seeds is None else spec.seeds[0]
    if count < 1:
        raise ConfigurationError(f"--seeds: seed count must be at least 1, got {count}")
    return [cfg.seed + i for i in range(count)]


def _out_dir(spec: argparse.Namespace) -> str:
    if spec.out is not None:
        return spec.out
    return os.environ.get(OUT_DIR_ENV, ".")


def _write(spec: argparse.Namespace, filename: str, payload: bytes) -> None:
    """Atomic file write, or stdout when the output target is '-'."""
    target = _out_dir(spec)
    if target == "-":
        sys.stdout.buffer.write(payload)
        sys.stdout.buffer.flush()
        return
    os.makedirs(target, exist_ok=True)
    path = os.path.join(target, filename)
    fd, tmp = tempfile.mkstemp(dir=target, prefix=filename + ".")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
    print(f"wrote {path}", file=sys.stderr)


def _json_bytes(doc: object) -> bytes:
    return (json.dumps(doc, sort_keys=True, indent=2) + "\n").encode("ascii")


def _given(spec: argparse.Namespace, *names: str) -> dict[str, object]:
    """The named flags that were given, as keyword arguments: a policy flag
    defaults to None, and one left out takes its parameter block's default."""
    return {n: getattr(spec, n) for n in names if getattr(spec, n) is not None}


def _fields(block: type) -> list[str]:
    return [f.name for f in fields(block)]


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


# each --policy's parameter block; run's policy flags are the blocks' fields
# and --budget-share, with which the quality policy derives its workload
_BLOCKS = {block.kind: block for block in get_args(PolicyParams)}
_RUN_FLAGS = [*(name for b in _BLOCKS.values() for name in _fields(b)), "budget_share"]


def _policy_params(spec: argparse.Namespace, cfg: ScenarioConfig) -> PolicyParams:
    """The parameter block --policy names, built (and so checked) before any
    trace is drawn; a flag that its policy does not read is refused. With
    --budget-share, which derives the quality fields that have no default,
    it is the reference threshold run's block, from which _cmd_run derives
    the quality workload."""
    block = _BLOCKS[spec.policy]
    reads = _fields(block)
    if block is QualityParams:
        reads.append("budget_share")
        if spec.budget_share is not None:
            reads += _fields(LyapunovParams)
    unread = ", ".join(_flag(n) for n in _given(spec, *_RUN_FLAGS) if n not in reads)
    if unread:
        raise ConfigurationError(f"--policy {spec.policy} does not read {unread}")
    if block is not QualityParams:
        return block(**_given(spec, *reads))
    workload = [f.name for f in fields(block) if f.default is MISSING]
    given = [_flag(n) for n in _given(spec, *workload)]
    if spec.budget_share is not None:
        if given:
            raise ConfigurationError(
                "--budget-share derives the quality workload and conflicts "
                f"with {', '.join(given)}"
            )
        derive_quality_params(cfg, 1, spec.budget_share, **_given(spec, "beta_c"))
        return LyapunovParams(**_given(spec, *_fields(LyapunovParams)))
    if len(given) < len(workload):
        raise ConfigurationError(
            f"--policy quality: quality policy needs {'/'.join(map(_flag, workload))} "
            "or --budget-share"
        )
    params = QualityParams(**_given(spec, *_fields(block)))
    check_quality_params(cfg, params)
    return params


def _cmd_run(spec: argparse.Namespace) -> int:
    cfg = _scenario(spec)
    params = _policy_params(spec, cfg)
    trace = generate_trace(cfg, cfg.seed)
    if spec.budget_share is not None:
        delay = run(cfg, params, trace).littles_delay
        params = derive_quality_params(
            cfg, delay, spec.budget_share, **_given(spec, "beta_c")
        )
    metrics = run(cfg, params, trace)
    summary = report.run_summary(metrics)
    _write(spec, "run_summary.json", _json_bytes(summary))
    if _out_dir(spec) != "-":
        _write(spec, "run_series.csv", report.run_series_csv(metrics))
    return 0


def _cmd_compare(spec: argparse.Namespace) -> int:
    if spec.budget_share is None and spec.beta_c is not None:
        raise ConfigurationError("compare reads --beta-c only with --budget-share")
    cfg = _scenario(spec)
    policies = [
        LyapunovParams(**_given(spec, "v_factor")),
        STATIC_SCHEME_1,
        STATIC_SCHEME_2,
    ]
    beta_c = _given(spec, "beta_c")
    if spec.budget_share is not None:
        derive_quality_params(cfg, 1, spec.budget_share, **beta_c)
    trace = generate_trace(cfg, cfg.seed)
    results = [run(cfg, p, trace) for p in policies]
    if spec.budget_share is not None:
        delay = results[0].littles_delay
        params = derive_quality_params(cfg, delay, spec.budget_share, **beta_c)
        results.append(run(cfg, params, trace))
    offline, oracle_row = compare_with_oracle(cfg, trace, results)
    rows = list(zip(results, offline))
    _write(spec, "comparison.csv", report.comparison_table_csv(rows, oracle_row))
    return 0


def _cmd_sweep_v(spec: argparse.Namespace) -> int:
    cfg = _scenario(spec)
    seeds = _seeds(spec, cfg)
    grid = spec.v_values if spec.v_values is not None else DEFAULT_V_GRID
    if len(set(grid)) != len(grid):
        raise ConfigurationError(f"--v: duplicate values in the sweep grid {grid}")
    if len(grid) < 2:
        raise ConfigurationError("--v: a sweep needs at least two distinct axis values")
    policies = [LyapunovParams(v_factor=v) for v in grid]
    runs_by_v: dict[float, list[RunMetrics]] = {v: [] for v in grid}
    for seed in seeds:
        trace = generate_trace(cfg, seed)
        for params in policies:
            runs_by_v[params.v_factor].append(run(cfg, params, trace))
    result = report.v_sweep_summary(runs_by_v)
    _write(spec, f"sweep_v.{spec.format}", report.emit(result, spec.format))
    return 0


def _cmd_sweep_quality(spec: argparse.Namespace) -> int:
    cfg = _scenario(spec)
    seeds = _seeds(spec, cfg)
    shares = DEFAULT_BUDGET_SHARES if spec.budget_shares is None else spec.budget_shares
    if not shares:
        raise ConfigurationError("--budgets: empty sweep")
    if len(set(shares)) != len(shares):
        raise ConfigurationError(f"--budgets: duplicate shares in the sweep {shares}")
    beta_c = _given(spec, "beta_c")
    for share in shares:
        derive_quality_params(cfg, 1, share, name="--budgets budget_share", **beta_c)
    runs_by_share: dict[float, list[RunMetrics]] = {share: [] for share in shares}
    oracle_by_share: dict[float, list[int]] = {share: [] for share in shares}
    reference_params = LyapunovParams(**_given(spec, "v_factor"))
    for seed in seeds:
        trace = generate_trace(cfg, seed)
        delay = run(cfg, reference_params, trace).littles_delay
        runs: dict[int, RunMetrics] = {}
        for share in shares:
            params = derive_quality_params(cfg, delay, share, **beta_c)
            budget = params.quality_budget
            if budget in runs:
                raise ConfigurationError(
                    f"--budgets: budget shares collide at {budget} reduced units "
                    f"of n_units {params.n_units}"
                )
            runs[budget] = run(cfg, params, trace)
            runs_by_share[share].append(runs[budget])
        if spec.with_oracle:
            offline, _ = compare_with_oracle(cfg, trace, list(runs.values()))
            for share, cost in zip(shares, offline):
                oracle_by_share[share].append(cost)
    # one point per share, at its mean budget over the seeds; shares that
    # never collide on a seed have distinct means
    axis = [fmean(m.params.quality_budget for m in r) for r in runs_by_share.values()]
    result = report.quality_sweep_summary(
        dict(zip(axis, runs_by_share.values())),
        dict(zip(axis, oracle_by_share.values())) if spec.with_oracle else None,
    )
    _write(spec, f"sweep_quality.{spec.format}", report.emit(result, spec.format))
    return 0


def _cmd_oracle(spec: argparse.Namespace) -> int:
    if spec.trace_path:
        # the trace file fixes the scenario, so no scenario flag is read
        unread = [
            flag for flag, value in [
                ("--config", spec.config_path), ("--preset", spec.preset),
                ("--set", spec.overrides), ("--seed", spec.seed is not None),
            ] if value
        ]
        if unread:
            raise ConfigurationError(f"--trace does not read {', '.join(unread)}")
        try:
            with open(spec.trace_path, "rb") as fh:
                trace = load_trace(fh.read())
        except OSError as exc:
            raise ConfigurationError(
                f"cannot read {spec.trace_path}: {exc}"
            ) from exc
    else:
        cfg = _scenario(spec)
        trace = generate_trace(cfg, cfg.seed)
    c = spec.concentrator
    instance = instance_from_trace(
        trace, slice(c, c + 1), spec.n_units, spec.quality_budget,
        spec.first_slot, spec.last_slot,
    )
    schedule = solve_dp(instance)
    cost, actions = int(schedule.cost[0]), schedule.actions[0]
    doc = {
        "concentrator": c,
        "first_slot": spec.first_slot,
        "last_slot": spec.first_slot + instance.horizon - 1,
        "n_units": spec.n_units,
        "quality_budget": spec.quality_budget,
        "cost_microcents": cost,
        "cost_dollars": round(to_dollars(cost), 8),
        "reduced_count": int(schedule.reduced_count[0]),
        "sends": int(np.count_nonzero(actions != Action.IDLE)),
        "action_codes": actions.tolist(),
        "action_legend": {str(int(a)): a.name.lower() for a in Action},
    }
    _write(spec, "oracle.json", _json_bytes(doc))
    return 0


def _cmd_gen_trace(spec: argparse.Namespace) -> int:
    cfg = _scenario(spec)
    trace = generate_trace(cfg, cfg.seed)
    _write(spec, f"trace_{cfg.seed}.json", save_trace(trace))
    return 0


def main(argv: list[str] | None = None) -> int:
    spec = parse_args(argv)
    try:
        return spec.handler(spec)
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except InfeasibleError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 4
    except InvariantViolationError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
