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
    assert all(row[-1] == "one-sided" for row in rows)
