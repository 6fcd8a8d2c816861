"""The committed reports are a golden gate: regenerating every desk-scale run
must reproduce each report payload exactly (only the header may differ)."""

import importlib.util
import json
import pathlib

from yangian2 import cli

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _runs():
    path = ROOT / "scripts" / "run_verification.py"
    spec = importlib.util.spec_from_file_location("run_verification", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.RUNS


def test_golden_reports(tmp_path):
    runs = _runs()
    assert len(runs) == len(list((ROOT / "reports").glob("*.json")))
    for label, prefix, command in runs:
        out = tmp_path / f"{label}.json"
        assert cli.main([*prefix, "--out", str(out), *command]) == 0, label
        got = json.loads(out.read_text())["report"]
        committed = json.loads((ROOT / "reports" / f"{label}.json").read_text())
        assert got == committed["report"], label
