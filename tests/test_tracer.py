"""Smoke test of perfbench/traced.py, the span tracer behind the benchmark.

The tracer wraps package functions and methods by name and reads the memo
caches by attribute name, so a refactor that moves a traced method or
renames a cache fails here first."""

import json
import os
import subprocess
import sys
from array import array
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def traced(tmp_path, cli_args):
    """Run the tracer on one CLI command, which must exit 0; the spans
    header and the family names of the spans that fired."""
    spans = tmp_path / "spans"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "traced.py"), str(spans),
         "smoke", "--out", str(tmp_path / "report.json")] + cli_args,
        capture_output=True, text=True, cwd=tmp_path, env=env)
    assert proc.returncode == 0, proc.stderr
    header = json.loads((tmp_path / "spans.json").read_text())
    families = array("i")
    with open(tmp_path / "spans.bin", "rb") as handle:
        families.fromfile(handle, header["count"])
    return header, {header["names"][f] for f in families}


@pytest.mark.parametrize("cli_args, caches, fired", [
    (["--m", "1", "--n", "1", "-L", "3", "-K", "3", "verify", "centers"],
     ["rtt.nf_cache.entries", "rtt.pair_cache.entries",
      "current.nf_cache.entries"],
     {"rtt.multiply", "current.CurrentAlgebra.multiply",
      "centers.build_quotient"}),
    (["--m", "1", "--n", "1", "-L", "2", "-T", "3", "verify", "classical"],
     ["current.nf_cache.entries"],
     {"current.CurrentAlgebra.multiply", "current.classical_suite"}),
])
def test_tracer_runs_and_reads_the_caches(tmp_path, cli_args, caches, fired):
    header, families = traced(tmp_path, cli_args)
    for key in caches:
        assert header["caches"][key] > 0, key
    assert fired <= families
    assert "cli.write_report" in families


WORKLOADS = json.loads(
    (ROOT / "perfbench" / "workloads.json").read_text())["workloads"]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_benchmark_workload_fires_its_expected_spans(tmp_path, name):
    """Each benchmark workload, run with its own argv, reaches every layer
    that perfbench/run.py --trace 1 requires of it."""
    spec = WORKLOADS[name]
    _, families = traced(tmp_path, spec["argv"])
    missing = sorted(set(spec["expected_spans"]) - families)
    assert not missing, missing
