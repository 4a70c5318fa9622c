"""Schema-driven CLI fuzz: scenarios drawn from the published config schema,
and one step outside it, crossed with each subcommand's flags, at small
fleets (k <= 3, horizon <= 60).

Every call the parser accepts must exit 0, 3 or 4 without a traceback; an
exit-0 output must parse, and an exit-3 message must name a config or
policy field, or a flag of the argv."""

import contextlib
import csv
import dataclasses
import io
import json
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hpclease import LyapunovParams, QualityParams, ScenarioConfig, StaticParams, cli
from hpclease.env import load_trace

SCHEMA = json.loads(
    (
        Path(__file__).resolve().parent.parent / "docs" / "schema"
        / "scenario_config.schema.json"
    ).read_text()
)
SIZE_CAPS = {"k_concentrators": 3, "horizon": 60}
FIELDS = {
    f.name
    for cls in (ScenarioConfig, LyapunovParams, StaticParams, QualityParams)
    for f in dataclasses.fields(cls)
}


def schema_value(name: str) -> st.SearchStrategy:
    """Values of one scenario field within its schema, k and horizon capped,
    and one step outside it: an integer past either bound, or a string
    outside the enum."""
    prop = SCHEMA["properties"][name]
    if "enum" in prop:
        return st.one_of(st.sampled_from(prop["enum"]), st.just("uniform"))
    if prop["type"] == "integer":
        low, high = prop["minimum"], prop.get("maximum")
        past = st.sampled_from([low - 1] + ([] if high is None else [high + 1]))
        if name in SIZE_CAPS:
            return st.one_of(st.integers(low, SIZE_CAPS[name]), past)
        return st.one_of(st.integers(low, low + 12), st.integers(low, high), past)
    low, high = prop.get("exclusiveMinimum", 0), prop.get("exclusiveMaximum")
    if high is not None:
        return st.floats(low, high, exclude_min=True, exclude_max=True)
    return st.one_of(
        st.floats(low, 2.0, exclude_min=True),
        st.floats(low, exclude_min=True, allow_infinity=False),
    )


@st.composite
def scenario_args(draw) -> list[str]:
    """--set flags for k, horizon and a random subset of the other fields."""
    others = sorted(set(SCHEMA["properties"]) - set(SIZE_CAPS))
    names = [*SIZE_CAPS, *draw(st.lists(st.sampled_from(others), unique=True, max_size=4))]
    args = []
    for name in names:
        args += ["--set", f"{name}={json.dumps(draw(schema_value(name)))}"]
    if draw(st.booleans()):
        args.append(f"--seed={draw(st.integers(-1, 10**6))}")
    return args


def number(strategy) -> st.SearchStrategy:
    return strategy.map(repr)


SMALL_INT = number(st.integers(-2, 70))
ANY_FLOAT = number(
    st.one_of(st.floats(-0.5, 2.0), st.floats(), st.sampled_from([0.0, 1.0]))
)


def listed(strategy, **sizes) -> st.SearchStrategy:
    return st.lists(strategy, **sizes).map(lambda values: ",".join(map(repr, values)))


SEEDS = st.one_of(
    number(st.integers(0, 3)), listed(st.integers(-1, 9), min_size=2, max_size=3)
)
GRID = listed(st.floats(-1.0, 1e4), max_size=4)
SHARES = listed(st.floats(0.0, 1.2), max_size=4)
FORMAT = st.sampled_from(["csv", "json", "dat"])

# each subcommand's own flags and the values they are drawn from
FLAGS = {
    "run": {
        "--policy": st.sampled_from(["lyapunov", "static", "quality"]),
        "--v-factor": ANY_FLOAT, "--period": SMALL_INT, "--burst-len": SMALL_INT,
        "--n-units": SMALL_INT, "--deadline": SMALL_INT, "--quality-budget": SMALL_INT,
        "--budget-share": ANY_FLOAT, "--beta-c": ANY_FLOAT,
    },
    "compare": {
        "--v-factor": ANY_FLOAT, "--budget-share": ANY_FLOAT, "--beta-c": ANY_FLOAT,
    },
    "sweep-v": {"--v": GRID, "--seeds": SEEDS, "--format": FORMAT},
    "sweep-quality": {
        "--budgets": SHARES, "--v-factor": ANY_FLOAT, "--beta-c": ANY_FLOAT,
        "--seeds": SEEDS, "--with-oracle": st.just(None), "--format": FORMAT,
    },
    "oracle": {
        "--quality-budget": SMALL_INT, "--concentrator": SMALL_INT,
        "--first-slot": SMALL_INT, "--last-slot": SMALL_INT,
    },
    "gen-trace": {},
}


@st.composite
def argvs(draw, command: str) -> list[str]:
    argv = [command] + draw(scenario_args())
    if command == "oracle":
        argv.append(f"--n-units={draw(SMALL_INT)}")
    flags = FLAGS[command]
    chosen = draw(st.lists(st.sampled_from(sorted(flags)), unique=True)) if flags else []
    for flag in chosen:
        value = draw(flags[flag])
        # --flag=value, so that argparse reads "-inf" or "-1e-05" as a value
        argv.append(flag if value is None else f"{flag}={value}")
    return argv


def names_a_field_or_flag(message: str, argv: list[str]) -> bool:
    """Whether ``message`` names a config or policy field, or a flag of
    ``argv`` as written (--budget-share) or as its field (budget_share)."""
    flags = {arg.partition("=")[0] for arg in argv if arg.startswith("--")} - {"--set"}
    fields = FIELDS | {flag[2:].replace("-", "_") for flag in flags}
    words = set(re.findall(r"\w+", message))
    return bool(words & fields) or any(flag in message for flag in flags)


def check_outputs(out: Path) -> None:
    """Every file an exit-0 call wrote parses as its format."""
    files = sorted(out.iterdir())
    assert files
    for path in files:
        data = path.read_bytes()
        if path.name.startswith("trace_"):
            load_trace(data)
        elif path.suffix == ".json":
            json.loads(data)
        elif path.suffix == ".csv":
            rows = list(csv.reader(io.StringIO(data.decode("ascii"))))
            assert len({len(row) for row in rows}) == 1, path.name
        else:
            assert path.suffix == ".dat", path.name
            for line in data.decode("ascii").splitlines():
                if not line.startswith("#"):
                    [float(token) for token in line.split()]


@pytest.mark.parametrize("command", sorted(FLAGS))
@settings(max_examples=25, deadline=None, derandomize=True)
@given(data=st.data())
def test_cli_exits_cleanly_on_schema_configs(command, data):
    argv = data.draw(argvs(command), label="argv")
    stderr = io.StringIO()
    with tempfile.TemporaryDirectory() as out, contextlib.redirect_stderr(stderr):
        rc = cli.main([*argv, "-o", out])
        if rc == 0:
            check_outputs(Path(out))
    message = stderr.getvalue()
    assert rc in (0, 3, 4), message
    if rc == 3:
        assert names_a_field_or_flag(message, argv), message
