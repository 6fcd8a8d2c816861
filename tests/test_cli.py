import json
import subprocess
import sys

import pytest

from yangian2 import centers, cli
from yangian2.report import Report


def reorder(args, tmp_path, name):
    """CLI wants global flags before the subcommand; splice --out in front."""
    out = tmp_path / name
    return ["--out", str(out)] + args, out


def run(args, tmp_path, name="report.json"):
    argv, out = reorder(args, tmp_path, name)
    code = cli.main(argv)
    doc = json.loads(out.read_text()) if out.exists() else None
    return code, doc


def test_verify_drinfeld_exit_zero(tmp_path, capsys):
    code, doc = run(["--m", "1", "--n", "1", "-L", "3", "-K", "3",
                     "verify", "drinfeld"], tmp_path)
    assert code == 0
    payload = doc["report"]
    assert payload["suite"] == "drinfeld-relations"
    assert payload["totals"]["failures"] == 0
    families = payload["totals"]["by_id"]
    for fam in [f"D{k}" for k in range(1, 18)]:
        assert fam in families
    assert families["D16"]["vacuous"] is True
    captured = capsys.readouterr()
    assert "drinfeld-relations" in captured.out


def test_report_schema(tmp_path):
    code, doc = run(["--m", "1", "--n", "1", "-L", "2", "quotient-dim"], tmp_path)
    assert code == 0
    assert set(doc) == {"header", "report"}
    assert "generated_at" in doc["header"]
    payload = doc["report"]
    assert set(payload) == {"suite", "config", "instances", "totals"}
    inst = payload["instances"][0]
    assert inst["id"] == "dimension"
    assert inst["pass"] is True
    assert inst["params"] == {"dim_full": 19, "ideal_rank": 2,
                              "dim_super": 17, "expected": 17}


def test_nf_output(tmp_path, capsys):
    code, doc = run(["--m", "1", "--n", "1", "-L", "3",
                     "nf", "t[2,1,2]*t[1,2,1]"], tmp_path)
    assert code == 0
    out = capsys.readouterr().out
    assert "t[1,1,2] + t[1,2,1]*t[2,1,2] + t[2,2,2]" in out


def test_nf_deep_word(tmp_path, capsys):
    code, _ = run(["--m", "1", "--n", "1", "-L", "64",
                   "nf", "t[2,2,1]^32*t[1,2,1]^32"], tmp_path)
    assert code == 0
    out = capsys.readouterr().out
    assert "*".join(["t[1,2,1]"] * 32 + ["t[2,2,1]"] * 32) in out


def test_superscript_beyond_packing_width(tmp_path, capsys):
    code, _ = run(["-L", "300", "nf", "t[1,1,256]"], tmp_path)
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


def test_determinism(tmp_path):
    args = ["--m", "1", "--n", "1", "-L", "3", "--seed", "5", "fuzz",
            "--samples", "25"]
    _, doc1 = run(args, tmp_path, "a.json")
    _, doc2 = run(args, tmp_path, "b.json")
    assert json.dumps(doc1["report"], sort_keys=True) == \
        json.dumps(doc2["report"], sort_keys=True)


def test_gauss_command(tmp_path):
    code, doc = run(["--m", "1", "--n", "1", "-L", "2", "gauss"], tmp_path)
    assert code == 0
    values = {(i["id"], json.dumps(i["params"], sort_keys=True)): i.get("value")
              for i in doc["report"]["instances"]}
    assert values[("d", json.dumps({"i": 1, "r": 1}, sort_keys=True))] == "t[1,1,1]"
    assert ("e", json.dumps({"i": 1, "j": 2, "r": 2}, sort_keys=True)) in values


def test_pbw_command(tmp_path):
    code, doc = run(["--m", "1", "--n", "1", "-L", "2", "pbw"], tmp_path)
    assert code == 0
    ranks = [i for i in doc["report"]["instances"] if i["id"] == "rank"]
    assert ranks[0]["params"]["rank"] == 19
    code2, doc2 = run(["--m", "1", "--n", "1", "-L", "2", "pbw", "--super"],
                      tmp_path, "super.json")
    assert code2 == 0
    ranks2 = [i for i in doc2["report"]["instances"] if i["id"] == "rank"]
    assert ranks2[0]["params"]["rank"] == 17


def test_verify_centers_and_classical(tmp_path):
    code, _ = run(["--m", "1", "--n", "1", "-L", "3", "verify", "centers"],
                  tmp_path)
    assert code == 0
    code2, _ = run(["--m", "1", "--n", "1", "-L", "2", "-T", "4",
                    "verify", "classical"], tmp_path, "cl.json")
    assert code2 == 0


@pytest.mark.parametrize("shape, builds", [
    (["--m", "1", "--n", "1", "-L", "4", "-K", "4"], 1),   # shadow bound = cap
    (["--m", "2", "--n", "1", "-L", "4", "-K", "3"], 2),   # shadow bound 3 < cap
])
def test_verify_centers_quotient_builds(tmp_path, monkeypatch, shape, builds):
    bounds = []
    build = centers.build_quotient

    def counting(alg, bound, tab):
        bounds.append(bound)
        return build(alg, bound, tab)

    monkeypatch.setattr(centers, "build_quotient", counting)
    code, _ = run(shape + ["verify", "centers"], tmp_path)
    assert code == 0
    assert len(bounds) == builds


def test_verify_centers_refuses_short_series(tmp_path, capsys):
    """K = 2 < L/2 would drop the odd squares with r = 3 and fail the
    dimension check falsely; the run is refused as a usage error."""
    code, doc = run(["--m", "1", "--n", "1", "-L", "6", "-K", "2",
                     "verify", "centers"], tmp_path)
    assert code == 2 and doc is None
    assert "order >= 3" in capsys.readouterr().err


SMALL_CENTER_RUNS = [(m, n, cap, order)
                     for m, n in [(1, 1), (2, 1), (1, 2)]
                     for cap in range(1, 5)
                     for order in range(cap // 2, cap + 1)]


@pytest.mark.parametrize("m, n, cap, order", SMALL_CENTER_RUNS)
def test_verify_centers_at_small_order(tmp_path, m, n, cap, order):
    """Every K >= L/2 runs, including K <= 1, where the b series have no
    b_i^(2) (K = 1) or not even b_i^(1) (K = 0)."""
    code, doc = run(["--m", str(m), "--n", str(n), "-L", str(cap),
                     "-K", str(order), "verify", "centers"], tmp_path)
    assert code == 0
    ids = doc["report"]["totals"]["by_id"]
    assert ("b1-vanishes" in ids) == (order >= 1)


@pytest.mark.parametrize("shape, expr, top", [
    (["-L", "3"], "e[1,3,3]", 2),
    (["-L", "3"], "f[3,1,3]", 2),
    (["-L", "2", "-K", "2"], "e[1,3,2]", 1),
    (["-L", "2", "-K", "2"], "f[3,1,2]", 1),
])
def test_higher_root_past_its_top_is_usage_error(tmp_path, capsys, shape,
                                                 expr, top):
    code, doc = run(["--m", "2", "--n", "1"] + shape + ["nf", expr], tmp_path)
    assert code == 2 and doc is None
    assert f"top superscript {top}" in capsys.readouterr().err


def test_quotient_dim_reads_series_to_half_the_cap(tmp_path):
    """quotient-dim builds its table at order L/2 whatever K is; only the
    echoed config differs."""
    shape = ["--m", "1", "--n", "1", "-L", "6"]
    code1, short = run(shape + ["-K", "1", "quotient-dim"], tmp_path, "k1.json")
    code6, full = run(shape + ["-K", "6", "quotient-dim"], tmp_path, "k6.json")
    assert code1 == code6 == 0
    (check,) = short["report"]["instances"]
    assert check["pass"]
    assert check["params"] == {"dim_full": 990, "ideal_rank": 345,
                               "dim_super": 645, "expected": 645}
    assert short["report"]["config"]["K"] == 1
    short["report"]["config"]["K"] = 6
    assert short["report"] == full["report"]


def test_usage_errors(tmp_path):
    # K > L violates the coupling constraint
    code = cli.main(["--m", "1", "--n", "1", "-L", "2", "-K", "3",
                     "--out", str(tmp_path / "x.json"), "gauss"])
    assert code == 2
    # unknown subcommand
    code2 = cli.main(["--m", "1", "nonsense"])
    assert code2 == 2
    # parse errors surface as usage errors
    code3 = cli.main(["--m", "1", "--n", "1", "--out", str(tmp_path / "y.json"),
                      "nf", "t[1,2,0]"])
    assert code3 == 2


@pytest.mark.parametrize("command", [["gauss"], ["pbw"], ["verify", "drinfeld"]])
def test_negative_order_is_usage_error(tmp_path, capsys, command):
    out = tmp_path / "neg.json"
    code = cli.main(["--m", "1", "--n", "1", "-L", "3", "-K", "-1",
                     "--out", str(out), *command])
    assert code == 2
    assert not out.exists()
    assert capsys.readouterr().err.splitlines() == [
        "error: series order K must satisfy 0 <= K <= L"]


@pytest.mark.parametrize("command, line", [
    (["verify", "drinfeld", "--budget", "-5"], "error: --budget must be >= 0"),
    (["fuzz", "--samples", "-3"], "error: --samples must be >= 0"),
], ids=["budget", "samples"])
def test_negative_count_is_usage_error(tmp_path, capsys, command, line):
    out = tmp_path / "neg.json"
    code = cli.main(["--m", "1", "--n", "1", "-L", "3", "--out", str(out),
                     *command])
    assert code == 2
    assert not out.exists()
    assert capsys.readouterr().err.splitlines() == [line]


@pytest.mark.parametrize("suite", ["centers", "classical"])
def test_budget_outside_drinfeld_is_usage_error(tmp_path, capsys, suite):
    out = tmp_path / "budget.json"
    code = cli.main(["--m", "1", "--n", "1", "-L", "3", "--out", str(out),
                     "verify", suite, "--budget", "99"])
    assert code == 2
    assert not out.exists()
    assert capsys.readouterr().err.splitlines() == [
        f"error: --budget applies only to verify drinfeld, not verify {suite}"]


def test_failure_exit_code(tmp_path, monkeypatch):
    def fake_run(cfg, args):
        report = Report("forced")
        report.add("always-fails", {}, False, witness="witness")
        return report
    monkeypatch.setattr(cli, "run_command", fake_run)
    code = cli.main(["--m", "1", "--n", "1",
                     "--out", str(tmp_path / "f.json"), "gauss"])
    assert code == 1


@pytest.mark.parametrize("error,line", [
    (RecursionError("maximum recursion depth"),
     "internal error: RecursionError: maximum recursion depth"),
    (RuntimeError("unexpected\nstate"),
     "internal error: RuntimeError: unexpected state"),
])
def test_internal_error_exit_code(tmp_path, monkeypatch, capsys, error, line):
    def broken_run(cfg, args):
        raise error
    monkeypatch.setattr(cli, "run_command", broken_run)
    out = tmp_path / "i.json"
    code = cli.main(["--m", "1", "--n", "1", "--out", str(out), "gauss"])
    assert code == 3
    assert not out.exists()
    assert capsys.readouterr().err.splitlines() == [line]


def test_config_file_precedence(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("m=1\nn=1\nL=2\nseed=9\n# comment\n")
    out = tmp_path / "from_file.json"
    code = cli.main(["--config", str(cfg), "--out", str(out), "quotient-dim"])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["report"]["config"]["L"] == 2
    # flags override the file
    out2 = tmp_path / "override.json"
    code2 = cli.main(["--config", str(cfg), "-L", "1", "--out", str(out2),
                      "quotient-dim"])
    assert code2 == 0
    doc2 = json.loads(out2.read_text())
    assert doc2["report"]["config"]["L"] == 1


def test_bad_config_file(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("bogus=1\n")
    code = cli.main(["--config", str(cfg), "gauss"])
    assert code == 2


def test_module_invocation_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "yangian2.cli", "--help"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "verify" in proc.stdout
