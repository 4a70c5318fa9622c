"""Quick self-test of the benchmark at tiny input sizes.

Usage (from the repository root): python3 bench/selftest.py

Runs every workload, shrunk to a few concentrators and slots, once untraced
and once traced. Checks that the report prints every metric of
BENCHMARK.json, and failed_share, by name with its unit; that the result
line holds exactly those metrics; and that every output and count check
passed. Then checks that a wrong pinned digest fails every call. Takes
about half a minute.
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys

import run

# extra CLI arguments (later --set values win) and the sizes they give
TINY = {
    "sweep_v": (
        ("--v", "1,100", "--set", "k_concentrators=4", "--set", "horizon=200"),
        {"runs": 2, "k": 4, "horizon": 200},
    ),
    "wide_fleet": (
        ("--set", "k_concentrators=50", "--set", "horizon=300"),
        {"k": 50, "horizon": 300},
    ),
    "quality_oracle": (
        ("--set", "k_concentrators=3", "--set", "horizon=200"),
        {"k": 3, "horizon": 200},
    ),
}


def tiny(name: str) -> run.Workload:
    extra, sizes = TINY[name]
    workload = run.WORKLOADS[name]
    return dataclasses.replace(workload, argv=workload.argv + extra, **sizes)


def report_units(lines: list[str]) -> dict[str, str]:
    """Metric name -> unit, from the report's indented metric lines."""
    return {
        parts[0]: parts[2]
        for parts in (line.split() for line in lines if line.startswith("  "))
    }


def main() -> int:
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="ascii") as fh:
        bench = json.load(fh)
    run.pin_threads()
    cli = run.load_cli()
    machine = run.machine_record()
    failures = []

    for name in TINY:
        for trace, listed in ((False, bench["end_to_end"]), (True, bench["per_layer"])):
            label = f"{name} trace={int(trace)}"
            raw = run.measure(cli, tiny(name), run.DEFAULT_SEED, 0, trace)
            lines = run.render(raw, run.summarize(raw), machine)
            result = json.loads(lines[-1])
            expected = {m["name"]: m["unit"] for m in listed}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != expected:
                failures.append(f"{label}: result metrics {got} != {expected}")
            printed = report_units(lines[:-1])
            for metric, unit in {**expected, "failed_share": "share"}.items():
                if printed.get(metric) != unit:
                    failures.append(f"{label}: report prints {metric} as {printed.get(metric)}")
            if not result["correct"] or result["failed"]:
                failures.append(f"{label}: not correct: {lines[-2]}")
            print(f"{label}: {result['attempted']} calls checked", flush=True)

    workload = tiny("wide_fleet")
    wrong = {output: "0" * 64 for output in workload.outputs}
    summary = run.summarize(run.measure(cli, workload, run.DEFAULT_SEED, 0, False, wrong))
    if summary["failed"] != summary["attempted"] or not summary["problems"]:
        failures.append("a wrong pinned digest did not fail the calls")

    for failure in failures:
        print(f"FAIL {failure}")
    print("selftest " + ("failed" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
