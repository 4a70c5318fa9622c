"""The benchmark's traced mode against the program as it is.

`bench/run.py --trace 1` wraps the package's public functions with
`bench/tracer.py` and exits 1 when a traced call fails or when the
`engine.conc_slots` it counts differs from the workload's size. Each
workload runs here once at the self-test's tiny size under the same
wrappers, so a change that breaks that contract fails tier-1 first. So
does a slot loop that stops calling `decide_slot` through the policy
instance, once per slot of each batch of runs, where the benchmark's
per-slot span wraps it, and a run that skips `engine.run`, whose return
value the tracer counts. Nothing is written under `bench/`.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from hpclease import cli

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load_bench():
    """bench's tracer, run and selftest modules, loaded by path; run imports
    tracer and selftest imports run by name, so each is registered while
    the next one loads."""
    loaded = {}
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # no __pycache__ under bench/
    try:
        for name in ("tracer", "run", "selftest"):
            spec = importlib.util.spec_from_file_location(name, BENCH / f"{name}.py")
            loaded[name] = sys.modules[name] = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(loaded[name])
    finally:
        sys.dont_write_bytecode = dont_write
        for name in loaded:
            del sys.modules[name]
    return loaded["tracer"], loaded["run"], loaded["selftest"]


tracer, bench_run, selftest = _load_bench()

# one traced decide_slot per slot of every batch of threshold runs:
# sweep_v's two weights share one batch over 200 slots, wide_fleet's one run
# takes 300, and quality_oracle's reference run 200 (its deadline-scheduler
# runs have no slot loop)
DECIDE_SLOT_CALLS = {"sweep_v": 200, "wide_fleet": 300, "quality_oracle": 200}


@pytest.mark.parametrize("name", sorted(selftest.TINY))
def test_traced_workload_counts_every_conc_slot(name, tmp_path):
    workload = selftest.tiny(name)
    argv = [*workload.argv, "--seed", str(bench_run.DEFAULT_SEED), "-o", str(tmp_path)]
    traced = tracer.Tracer()
    traced.install()
    try:
        code = cli.main(argv)
    finally:
        traced.remove()
    assert code == 0
    # the spans and counters the benchmark reports all have their target
    for target in ("engine.run", "engine.compare_with_oracle", "oracle.solve_dp"):
        assert target not in traced.missing
    assert traced.counts["engine.conc_slots"] == workload.conc_slots
    calls = traced.totals()[2]
    assert calls.get("policy.decide_slot", 0) == DECIDE_SLOT_CALLS[name]
    # a batch steps its runs together, but each run's post-run pass still
    # passes through engine.run, once
    assert calls["engine.run"] == workload.runs
