"""Golden outputs: the sha256 of every primary file each subcommand writes.

Small scenarios (3 concentrators, 120 slots, reference preset otherwise)
keep the suite fast while still exercising every policy, the comparison
table, both sweeps, the oracle and the trace format. Any change to these
digests is a change to what the CLI prints, byte for byte.
"""

import hashlib

import pytest

from hpclease import cli

SMALL = ["--set", "horizon=120", "--set", "k_concentrators=3"]

GOLDEN = {
    "run-lyapunov": (
        ["run", "--policy", "lyapunov", "--v-factor", "10"],
        {
            "run_summary.json": "d9a2bb2789e5ee425b977ed7632faf78a5e846007e449ad79a1f1265f7b56ec9",
            "run_series.csv": "06d4c3f8dc828fe6308ff5b6c77966db647c7a195415cd1ee563b61e2e7c84cb",
        },
    ),
    "run-static": (
        ["run", "--policy", "static", "--period", "40", "--burst-len", "10"],
        {
            "run_summary.json": "16f4d6d1f4f2dc236ae7cfffa71179b30ad93658586c5de0de5783b020803398",
            "run_series.csv": "7406e831fef326da0ea8c88f61ba81a1460779e3786c257955431f2848feb8b4",
        },
    ),
    "run-quality": (
        ["run", "--policy", "quality", "--budget-share", "0.2"],
        {
            "run_summary.json": "7e57700c9708858d6d8d7a283a9f8359608e45a1e2c9bd1807bd89d306c44cfd",
            "run_series.csv": "4cf010eee17ef7b8f1269f2bea611a269b0c37d7fc6569e619dad5840a505d94",
        },
    ),
    "compare": (
        ["compare", "--budget-share", "0.2"],
        {"comparison.csv": "5335ad353d1b6333cadeca82119ed76dd810e56b937411b276ba1d57adb21cbd"},
    ),
    "sweep-v": (
        ["sweep-v", "--seeds", "2"],
        {"sweep_v.csv": "f5121018c5520747b939ae417a6ac5634b12d93a71a609ad176a579f27b232c1"},
    ),
    "sweep-quality": (
        ["sweep-quality", "--with-oracle", "--seeds", "2"],
        {"sweep_quality.csv": "a6b90483d30d8006bf5a5a480ea4bb62546008bdae752ce45b8407af0540e22e"},
    ),
    "oracle": (
        ["oracle", "--n-units", "50", "--quality-budget", "5"],
        {"oracle.json": "ea39b47a2abb3d815283dacdf68fd30ea9378ec27d438b87621233e04f99865a"},
    ),
    "gen-trace": (
        ["gen-trace"],
        {"trace_101.json": "ca989728f891b38efc1c225ecb010de1584d77459a8acddcbde829c8fe8ee4bb"},
    ),
}


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_cli_output_digests(case, tmp_path):
    argv, expected = GOLDEN[case]
    assert cli.main([*argv, *SMALL, "-o", str(tmp_path)]) == 0
    written = sorted(p.name for p in tmp_path.iterdir())
    assert written == sorted(expected)
    digests = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in written
    }
    assert digests == expected
