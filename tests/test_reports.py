"""The committed reports are a golden gate: regenerating every desk-scale run
must reproduce each report payload exactly (only the header may differ)."""

import importlib.util
import json
import pathlib

from yangian2 import cli

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _script(name):
    path = ROOT / "scripts" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_golden_reports(tmp_path):
    runs = _script("run_verification").RUNS
    assert len(runs) == len(list((ROOT / "reports").glob("*.json")))
    for label, prefix, command in runs:
        out = tmp_path / f"{label}.json"
        assert cli.main([*prefix, "--out", str(out), *command]) == 0, label
        got = json.loads(out.read_text())["report"]
        committed = json.loads((ROOT / "reports" / f"{label}.json").read_text())
        assert got == committed["report"], label


def test_dimension_table(capsys):
    script = _script("dimension_table")
    assert script.main() == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()
            if line.split()[:1] and line.split()[0].isdigit()]
    assert len(rows) == sum(top + 1 for _, _, top in script.SHAPES)
    assert all(row[-1] == "True" for row in rows)


# a seconds-long stand-in for the frontier ladder
TINY_FRONTIER = [
    ("quotient-1-1-L4", ["--m", "1", "--n", "1", "-L", "4"], ["quotient-dim"]),
    ("centers-1-1-L3", ["--m", "1", "--n", "1", "-L", "3", "-K", "3"],
     ["verify", "centers"]),
    ("drinfeld-2-1-L3", ["--m", "2", "--n", "1", "-L", "3", "-K", "3"],
     ["verify", "drinfeld"]),
    ("classical-1-1-L2-T3", ["--m", "1", "--n", "1", "-L", "2", "-T", "3"],
     ["verify", "classical"]),
]


def test_frontier_script(tmp_path, monkeypatch):
    script = _script("frontier")
    assert [label for label, _, _ in script.ROWS] == [
        "quotient-1-1-L12", "quotient-2-1-L8", "quotient-2-2-L6",
        "quotient-2-2-L7", "quotient-3-1-L7",
        "centers-1-1-L10", "centers-2-1-L7", "centers-2-2-L6",
        "drinfeld-2-2-L7", "drinfeld-3-1-L7", "drinfeld-2-2-L8",
        "classical-2-2-L4-T8", "classical-3-2-L4-T6", "nf-1-1-L97",
        "pbw-super-2-1-L8", "pbw-2-1-L8", "gauss-1-1-K14"]
    monkeypatch.setattr(script, "ROWS", TINY_FRONTIER)
    assert script.main(["--label", "tiny", "--out-dir", str(tmp_path)]) == 0
    doc = json.loads((tmp_path / "BENCH_frontier_tiny.json").read_text())
    assert [row["label"] for row in doc["rows"]] == [
        label for label, _, _ in TINY_FRONTIER]
    for row, (label, prefix, command) in zip(doc["rows"], TINY_FRONTIER):
        assert row["argv"] == [*prefix, *command]
        assert row["exit"] == 0
        assert row["wall_s"] > 0 and row["peak_rss_mib"] > 0
        # the fresh process wrote the payload an in-process run writes
        out = tmp_path / f"{label}.json"
        assert cli.main([*prefix, "--out", str(out), *command]) == 0
        payload = json.loads(out.read_text())["report"]
        assert row["payload_sha256"] == script.payload_digest(payload)


def test_frontier_script_failing_row(tmp_path, monkeypatch):
    script = _script("frontier")
    monkeypatch.setattr(script, "ROWS",
                        [("bad-order", ["-L", "3", "-K", "-1"], ["gauss"])])
    assert script.main(["--label", "bad", "--out-dir", str(tmp_path)]) == 1
    [row] = json.loads((tmp_path / "BENCH_frontier_bad.json").read_text())["rows"]
    assert row["exit"] == 2
    assert row["payload_sha256"] is None
    assert row["error"] == "error: series order K must satisfy 0 <= K <= L"
