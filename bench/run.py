"""Benchmark of the hpclease CLI: three workloads, end to end and per layer.

Usage (from the repository root):

    python3 bench/run.py --workload sweep_v --seed 101 --seconds 40 --trace 0

Each workload is one ``hpclease.cli.main(argv)`` call of one to two and a
half seconds, made in this process from a single thread, with its outputs
written to a temporary directory under ``bench/results/`` and checked. The
run repeats the call until ``--seconds`` would be exceeded (at least
twice).

Times are reported in reference seconds. A shared host's speed drifts by up
to 1.5x over minutes as other tenants come and go, so before every call the
run times a fixed calibration loop, and it scales its times by the loop's
reference time over the loop's measured time (see ``calibration_sample``).
Raw wall times are printed in the report as well. With ``--trace 1`` the
run wraps the program's public functions (see ``tracer.py``), alternating
traced and untraced calls, and reports raw per-layer numbers instead.

Stdout holds a human-readable report, then, as its last line, one JSON
object ``{"correct", "attempted", "failed", "metrics"}``. The exit code is
0 only if every call succeeded and every check passed.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from typing import Callable

from tracer import Tracer

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(BENCH_DIR, "results")
PROBE = os.path.join(BENCH_DIR, "probe_setup.py")
EXPECTED = os.path.join(BENCH_DIR, "expected_outputs.json")

# the seed whose output digests are pinned in expected_outputs.json
DEFAULT_SEED = 101
SETUP_SAMPLES = 11
# The calibration loop's median time over 445 samples taken in 10 minutes on
# the reference host (see README.md), so that a time in reference seconds
# reads about what it takes there at the host's typical speed.
CALIBRATION_REF_S = 0.100
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_ref_s": "s",
    "conc_slots_per_ref_s": "1/s",
    "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    "env.generate_trace_s": "s",
    "env.generate_trace_calls": "count",
    "policy.decide_slot_s": "s",
    "policy.decide_slot_calls": "count",
    "policy.decide_slot_us": "us",
    "policy.decide_slot_us_tail": "us",
    "engine.run_s": "s",
    "engine.run_calls": "count",
    "engine.run_self_s": "s",
    "engine.slot_overhead_us": "us",
    "engine.delay_reconstruction_s": "s",
    "engine.compare_with_oracle_s": "s",
    "engine.conc_slots": "count",
    "engine.leases": "count",
    "oracle.solve_dp_s": "s",
    "oracle.solve_dp_calls": "count",
    "oracle.forced_calls": "count",
    "oracle.dp_states": "count",
    "oracle.validate_schedule_s": "s",
    "oracle.distinct_instance_share": "share",
    "report.emit_s": "s",
    "report.output_bytes": "bytes",
    "cli.unattributed_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}
# counts that must repeat exactly across the traced calls of one run
EXACT_COUNTS = (
    "engine.conc_slots",
    "engine.leases",
    "policy.decide_slot_calls",
    "oracle.solve_dp_calls",
    "oracle.forced_calls",
    "oracle.dp_states",
)


class BenchError(Exception):
    """The benchmark cannot run here (missing program, failed probe)."""


# --- output checks ---------------------------------------------------------


def _csv_rows(payload: bytes, header: str) -> list[list[str]]:
    lines = payload.decode("ascii").splitlines()
    if not lines or lines[0] != header:
        raise ValueError(f"unexpected header {lines[:1]}")
    return [line.split(",") for line in lines[1:]]


def _check_sweep_v(w: "Workload", files: dict[str, bytes]) -> None:
    rows = _csv_rows(
        files["sweep_v.csv"], "axis_value,cost_mean,cost_std,queue_mean,delay_mean"
    )
    if len(rows) != w.runs:
        raise ValueError(f"{len(rows)} grid points, expected {w.runs}")
    for row in rows:
        if len(row) != 5 or float(row[1]) <= 0:
            raise ValueError(f"bad sweep row {row}")


def _check_wide_fleet(w: "Workload", files: dict[str, bytes]) -> None:
    summary = json.loads(files["run_summary.json"])
    if (summary["k_concentrators"], summary["horizon"]) != (w.k, w.horizon):
        raise ValueError("summary describes another fleet size")
    rows = _csv_rows(files["run_series.csv"], "slot,cost_dollars,queue_mean,purchases")
    if len(rows) != w.horizon:
        raise ValueError(f"{len(rows)} series rows, expected {w.horizon}")
    if sum(int(row[3]) for row in rows) != summary["purchases"]:
        raise ValueError("series purchases disagree with the summary")
    if rows[-1][1] != f"{summary['cost_microcents'] / 1e8:.8f}":
        raise ValueError("series final cost disagrees with the summary")


def _check_quality_oracle(w: "Workload", files: dict[str, bytes]) -> None:
    rows = _csv_rows(
        files["sweep_quality.csv"],
        "axis_value,cost_mean,cost_std,queue_mean,delay_mean,oracle_cost",
    )
    if len(rows) != w.runs - 1:  # one reference run plus one per budget
        raise ValueError(f"{len(rows)} budget rows, expected {w.runs - 1}")
    for row in rows:
        if float(row[5]) > float(row[1]):
            raise ValueError(f"offline cost above online cost in {row}")


@dataclasses.dataclass(frozen=True)
class Workload:
    """One CLI invocation at a stated input size."""

    name: str
    argv: tuple[str, ...]  # without --seed and -o
    outputs: tuple[str, ...]  # primary output files, digested
    runs: int  # online engine runs per invocation
    k: int
    horizon: int
    check: Callable[["Workload", dict[str, bytes]], None]
    # layer times whose sum should dominate the traced wall time, and the share
    dominant: tuple[tuple[str, ...], float]

    @property
    def conc_slots(self) -> int:
        return self.runs * self.k * self.horizon


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "sweep_v",
            (
                "sweep-v", "--preset", "reference", "--seeds", "1",
                "--set", "horizon=1000",
            ),
            ("sweep_v.csv",),
            runs=10,
            k=60,
            horizon=1000,
            check=_check_sweep_v,
            dominant=(("policy.decide_slot_s", "engine.run_self_s"), 0.5),
        ),
        Workload(
            "wide_fleet",
            (
                "run", "--preset", "reference", "--policy", "lyapunov",
                "--v-factor", "100", "--set", "k_concentrators=1000",
                "--set", "arrival_law=poisson", "--set", "horizon=2000",
            ),
            ("run_summary.json", "run_series.csv"),
            runs=1,
            k=1000,
            horizon=2000,
            check=_check_wide_fleet,
            dominant=(("engine.delay_reconstruction_s", "env.generate_trace_s"), 0.25),
        ),
        Workload(
            "quality_oracle",
            (
                "sweep-quality", "--preset", "reference", "--with-oracle",
                "--v-factor", "8", "--set", "k_concentrators=12",
                "--set", "horizon=1000", "--seeds", "1",
            ),
            ("sweep_quality.csv",),
            runs=5,
            k=12,
            horizon=1000,
            check=_check_quality_oracle,
            dominant=(("oracle.solve_dp_s",), 0.5),
        ),
    )
}


# --- running the program ---------------------------------------------------


def pin_threads() -> None:
    """One BLAS/OpenMP thread, for this process and the probes it starts.
    Must run before numpy is imported."""
    for var in THREAD_VARS:
        os.environ[var] = "1"


def load_cli():
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    try:
        from hpclease import cli
    except ImportError as exc:
        raise BenchError(f"cannot import hpclease from {SRC}: {exc}") from exc
    return cli


def machine_record() -> dict[str, str]:
    import numpy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": str(len(os.sched_getaffinity(0))),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "threads": ",".join(f"{v}={os.environ.get(v)}" for v in THREAD_VARS),
    }


def setup_sample(argv: list[str]) -> float:
    """Seconds from launching a fresh interpreter to the CLI's first trace
    draw (see probe_setup.py)."""
    launched = time.monotonic()
    proc = subprocess.run(
        [sys.executable, PROBE, *argv],
        capture_output=True,
        text=True,
        timeout=120,
        cwd=ROOT,
    )
    if proc.returncode != 0:
        raise BenchError(f"setup probe failed: {proc.stderr.strip()[-500:]}")
    return float(proc.stdout.split()[-1]) - launched


def calibration_sample() -> float:
    """Seconds taken by a fixed loop like the program's hot loops: interpreter
    work with operations on 64-element arrays, as in a slot of the online
    policies, then steps on a 4 x 4 x 300 array, as in a slot of the
    offline DP. The program's code is not involved, so the time measures
    only the host's current speed."""
    import numpy as np

    start = time.perf_counter()
    a = np.linspace(0.0, 1.0, 64)
    b = np.ones(64)
    total = 0.0
    recent: dict[int, float] = {}
    for i in range(12_000):
        c = a * 1.0001 + b
        total += float(c[int(c.argmax())])
        recent[i & 255] = total
        total += sum([x * 2 for x in range(20)]) * 1e-9
    value = np.linspace(0.0, 1.0, 4 * 300).reshape(4, 300)
    cand = np.empty((4, 4, 300))
    for _ in range(1000):
        cand.fill(np.inf)
        cand[0, :3, :] = value[1:, :]
        cand[1] = 1.5 + value
        cand[2, :, :299] = 0.5 + value[:, 1:]
        best = cand.min(axis=0)
        cand.argmin(axis=0).astype(np.uint8)
        value = best * 0.5
    return time.perf_counter() - start


@dataclasses.dataclass
class Invocation:
    traced: bool
    wall_s: float
    digests: dict[str, str]
    output_bytes: int
    problem: str | None
    tracer: Tracer | None = None
    calibration_s: float = 0.0  # the calibration loop, timed just before


def invoke(cli, workload: Workload, argv: list[str], traced: bool) -> Invocation:
    """One CLI call into a fresh output directory; checks what it wrote."""
    tracer = Tracer() if traced else None
    os.makedirs(RESULTS, exist_ok=True)
    out = tempfile.mkdtemp(prefix="out-", dir=RESULTS)
    try:
        gc.collect()
        if tracer is not None:
            tracer.install()
        try:
            start = time.perf_counter()
            try:
                code = cli.main([*argv, "-o", out])
            except Exception:  # a crash is a failed call, not a failed run
                traceback.print_exc()
                code = "an exception"
            wall = time.perf_counter() - start
        finally:
            if tracer is not None:
                tracer.remove()
        files = {}
        output_bytes = 0
        for name in sorted(os.listdir(out)):
            with open(os.path.join(out, name), "rb") as fh:
                payload = fh.read()
            output_bytes += len(payload)
            if name in workload.outputs:
                files[name] = payload
    finally:
        shutil.rmtree(out, ignore_errors=True)

    problem = None
    if code != 0:
        problem = f"the CLI exited with {code}"
    elif set(files) != set(workload.outputs):
        problem = f"outputs {sorted(files)}, expected {sorted(workload.outputs)}"
    else:
        try:
            workload.check(workload, files)
        except (ValueError, KeyError, IndexError) as exc:
            problem = f"output check: {exc}"
    digests = {name: hashlib.sha256(data).hexdigest() for name, data in files.items()}
    return Invocation(traced, wall, digests, output_bytes, problem, tracer)


def _plan(trace: bool):
    """Kinds of call in order: a fixed minimum, then a repeating cycle."""
    if trace:
        return (False, True, True), (False, True)
    return (False, False), (False,)


def measure(
    cli,
    workload: Workload,
    seed: int,
    seconds: float,
    trace: bool,
    pinned: dict[str, str] | None = None,
) -> dict:
    """Run the workload for about ``seconds`` and return the raw results."""
    argv = [*workload.argv, "--seed", str(seed)]
    setup: list[float] = []
    first, cycle = _plan(trace)
    calls: list[Invocation] = []
    start = time.perf_counter()
    deadline = start + seconds
    while True:
        # set-up samples are spread evenly over the run, not taken in a burst
        due = SETUP_SAMPLES * (time.perf_counter() - start) / max(seconds, 1e-9)
        while not trace and len(setup) < min(SETUP_SAMPLES, 1 + due):
            setup.append(setup_sample(argv))
        n = len(calls)
        traced = first[n] if n < len(first) else cycle[(n - len(first)) % len(cycle)]
        if n >= len(first):
            same_kind = [c.wall_s for c in calls if c.traced == traced]
            if time.perf_counter() + statistics.median(same_kind) > deadline:
                break
        calibration = 0.0 if trace else calibration_sample()
        calls.append(invoke(cli, workload, argv, traced))
        calls[-1].calibration_s = calibration

    reference = pinned
    for call in calls:
        if call.problem is not None:
            continue
        if reference is None:
            reference = call.digests
        elif call.digests != reference:
            call.problem = "output digests differ: " + json.dumps(call.digests)
    return {
        "workload": workload,
        "seed": seed,
        "setup": setup,
        "calls": calls,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


# --- metrics ---------------------------------------------------------------


def _tail(samples: list[float]) -> tuple[float, str] | None:
    """Highest percentile with at least ten samples beyond it."""
    n = len(samples)
    if n < 11:
        return None
    return sorted(samples)[n - 11], f"p{100 * (n - 10) / n:.6g} of {n}"


def _layers(call: Invocation) -> dict[str, float]:
    tracer = call.tracer
    total, self_time, calls, top = tracer.totals()
    counts = tracer.counts
    solves = calls.get("oracle.solve_dp", 0)
    slots = counts["engine.slots"]
    return {
        "env.generate_trace_s": total.get("env.generate_trace", 0.0),
        "env.generate_trace_calls": calls.get("env.generate_trace", 0),
        "policy.decide_slot_s": total.get("policy.decide_slot", 0.0),
        "policy.decide_slot_calls": calls.get("policy.decide_slot", 0),
        "engine.run_s": total.get("engine.run", 0.0),
        "engine.run_calls": calls.get("engine.run", 0),
        "engine.run_self_s": self_time.get("engine.run", 0.0),
        "engine.slot_overhead_us": (
            1e6 * self_time.get("engine.run", 0.0) / slots if slots else 0.0
        ),
        "engine.delay_reconstruction_s": total.get("engine.delay_reconstruction", 0.0),
        "engine.compare_with_oracle_s": total.get("engine.compare_with_oracle", 0.0),
        "engine.conc_slots": counts["engine.conc_slots"],
        "engine.leases": counts["engine.leases"],
        "oracle.solve_dp_s": total.get("oracle.solve_dp", 0.0),
        "oracle.solve_dp_calls": solves,
        "oracle.forced_calls": counts["oracle.forced_calls"],
        "oracle.dp_states": counts["oracle.dp_states"],
        "oracle.validate_schedule_s": total.get("oracle.validate_schedule", 0.0),
        "oracle.distinct_instance_share": (
            tracer.distinct_instances / solves if solves else 0.0
        ),
        "report.emit_s": total.get("report.emit", 0.0),
        "report.output_bytes": call.output_bytes,
        "cli.unattributed_s": call.wall_s - top,
        "trace.wall_s": call.wall_s,
    }


def summarize(raw: dict) -> dict:
    """Metrics, notes and correctness from one run's raw results."""
    workload: Workload = raw["workload"]
    calls: list[Invocation] = raw["calls"]

    def timed(traced: bool) -> list[Invocation]:
        # if every call of a kind failed, its timings are still reported,
        # and the run is marked incorrect
        kind = [c for c in calls if c.traced == traced]
        return [c for c in kind if c.problem is None] or kind

    plain = [c.wall_s for c in timed(False)]
    problems = [f"call {i + 1}: {c.problem}" for i, c in enumerate(calls) if c.problem]
    notes: dict[str, str] = {}
    metrics: dict[str, float] = {}

    if raw["setup"]:
        units = END_TO_END_UNITS
        # the host's slowdown over the run: total call time over total
        # calibration time, each loop run just before its call
        timed_calls = timed(False)
        calibration = [c.calibration_s for c in timed_calls]
        host = statistics.fmean(calibration) / CALIBRATION_REF_S
        wall_ref = sum(plain) / sum(calibration) * CALIBRATION_REF_S
        setup = statistics.median(raw["setup"])
        metrics["setup_s"] = setup / host
        metrics["wall_ref_s"] = wall_ref
        metrics["conc_slots_per_ref_s"] = workload.conc_slots / wall_ref
        metrics["peak_rss_mb"] = raw["peak_rss_mb"]
        notes["setup_s"] = (
            f"median of {len(raw['setup'])} fresh interpreters, {setup:.4f} s raw"
        )
        tail = _tail(plain)
        notes["wall_ref_s"] = (
            f"mean of {len(plain)} calls; raw median {statistics.median(plain):.4f} s, "
            f"fastest {min(plain):.4f} s"
            + (f", {tail[1]} {tail[0]:.4f} s" if tail else "")
            + f"; host slowdown {host:.3f}"
        )
        notes["conc_slots_per_ref_s"] = (
            f"{workload.conc_slots} concentrator-slots per call"
        )
    else:
        units = PER_LAYER_UNITS
        traced = timed(True)
        layers = [_layers(c) for c in traced]
        for name, value in layers[0].items():
            if units[name] in ("count", "bytes"):
                metrics[name] = value
            else:
                metrics[name] = statistics.median(v[name] for v in layers)
        for name in EXACT_COUNTS:
            seen = sorted({v[name] for v in layers})
            if len(seen) > 1:
                problems.append(f"{name} differs across traced calls: {seen}")
        if metrics["engine.conc_slots"] != workload.conc_slots:
            problems.append(
                f"engine.conc_slots {metrics['engine.conc_slots']}, "
                f"expected {workload.conc_slots}"
            )
        decide = [d for c in traced for d in c.tracer.durations("policy.decide_slot")]
        tail = _tail(decide)
        metrics["policy.decide_slot_us"] = 1e6 * statistics.median(decide) if decide else 0.0
        metrics["policy.decide_slot_us_tail"] = 1e6 * tail[0] if tail else 0.0
        notes["policy.decide_slot_us"] = f"median of {len(decide)} calls"
        notes["policy.decide_slot_us_tail"] = tail[1] if tail else "too few calls"
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - statistics.median(plain)
        notes["layers"] = f"times and shares are medians over {len(traced)} traced calls"
        names, share = workload.dominant
        got = sum(metrics[n] for n in names) / metrics["trace.wall_s"]
        notes["dominant"] = (
            f"{' + '.join(names)} = {got:.3f} of traced wall "
            f"({'above' if got > share else 'NOT above'} {share})"
        )
        missing = sorted({m for c in traced for m in c.tracer.missing})
        if missing:
            notes["missing"] = "not traced, absent from the program: " + ", ".join(missing)

    return {
        "metrics": {name: metrics[name] for name in units},
        "units": units,
        "notes": notes,
        "problems": problems,
        "attempted": len(calls),
        "failed": sum(1 for c in calls if c.problem is not None),
    }


def render(raw: dict, summary: dict, machine: dict[str, str]) -> list[str]:
    """The report: human-readable lines, then the JSON result line."""
    workload: Workload = raw["workload"]
    lines = [
        f"workload {workload.name}: hpclease {' '.join(workload.argv)} --seed {raw['seed']}",
        "machine: " + " ".join(f"{k}={v}" for k, v in machine.items()),
    ]
    failed_share = summary["failed"] / summary["attempted"]
    lines.append(
        f"  {'failed_share':34s} {failed_share:>16.6g} {'share':7s} "
        f"{summary['failed']} of {summary['attempted']} calls"
    )
    for name, value in summary["metrics"].items():
        unit = summary["units"][name]
        shown = f"{value:>16d}" if isinstance(value, int) else f"{value:>16.6g}"
        lines.append(f"  {name:34s} {shown} {unit:7s} {summary['notes'].get(name, '')}")
    for key in ("layers", "dominant", "missing"):
        if key in summary["notes"]:
            lines.append(f"{key}: {summary['notes'][key]}")
    lines.extend(f"problem: {p}" for p in summary["problems"])
    result = {
        "correct": not summary["problems"],
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {
            name: {"value": value, "unit": summary["units"][name]}
            for name, value in summary["metrics"].items()
        },
    }
    lines.append(json.dumps(result))
    return lines


def write_spans(raw: dict, machine: dict[str, str]) -> str:
    """All spans of a traced run, one CSV line each."""
    path = os.path.join(RESULTS, f"spans_{raw['workload'].name}.csv")
    os.makedirs(RESULTS, exist_ok=True)
    with open(path, "w", encoding="ascii") as fh:
        fh.write("# " + json.dumps({"seed": raw["seed"], **machine}) + "\n")
        fh.write("call,span,parent,name,start_s,end_s\n")
        for number, call in enumerate(raw["calls"]):
            if call.tracer is None:
                continue
            for i, (name, parent, start, end) in enumerate(call.tracer.spans):
                fh.write(f"{number},{i},{parent},{name},{start:.9f},{end:.9f}\n")
    return path


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    pin_threads()
    try:
        cli = load_cli()
        with open(EXPECTED, encoding="ascii") as fh:
            expected = json.load(fh)
        workload = WORKLOADS[args.workload]
        pinned = expected[workload.name] if args.seed == DEFAULT_SEED else None
        machine = machine_record()
        raw = measure(cli, workload, args.seed, args.seconds, bool(args.trace), pinned)
    except (BenchError, OSError, KeyError) as exc:
        print(f"benchmark cannot run: {exc!r}", file=sys.stderr)
        return 2
    summary = summarize(raw)
    if args.trace:
        print(f"spans: {os.path.relpath(write_spans(raw, machine), ROOT)}")
    print("\n".join(render(raw, summary, machine)))
    return 0 if not summary["problems"] else 1


if __name__ == "__main__":
    sys.exit(main())
