"""What a command pays at start-up, and the plain value classes on its path.

Each CLI command runs in a fresh process that compiles the package from
source when no bytecode is cached, so the CLI and the package root import
only what a command runs: the modules behind drinfeld, centers and the DSL,
and dataclasses with its inspect/ast imports, load with the commands that
use them.  The classes on every command's path are plain classes that keep
the value semantics they had as dataclasses."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import yangian2
from yangian2 import cli
from yangian2.report import Check, Report
from yangian2.rtt import Shape
from yangian2.series import YMatrix, YSeries

ROOT = Path(__file__).resolve().parents[1]

HEAVY = ["yangian2.drinfeld", "yangian2.series", "yangian2.centers",
         "yangian2.dsl", "dataclasses"]

PROBE = """
import json, sys
heavy = {heavy!r}
seen = {{}}
import yangian2
seen["package"] = [m for m in sys.modules if m.startswith("yangian2.")]
import yangian2.cli
from yangian2 import CurrentAlgebra, RTTAlgebra, Shape
seen["import"] = [m for m in heavy if m in sys.modules]
code = yangian2.cli.main(["--m", "1", "--n", "1", "-L", "2", "-T", "3",
                          "--out", {out!r}, "verify", "classical"])
seen["classical"] = [m for m in heavy if m in sys.modules]
seen["code"] = code
print(json.dumps(seen))
"""


def test_classical_command_loads_no_heavy_module(tmp_path):
    """A fresh interpreter without cached bytecode: importing the package
    loads none of its modules, and neither importing the CLI with the
    package's algebra classes nor running verify classical loads
    drinfeld, series, centers, dsl or dataclasses."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    script = PROBE.format(heavy=HEAVY, out=str(tmp_path / "report.json"))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, cwd=tmp_path, env=env)
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout.splitlines()[-1])
    assert seen == {"package": [], "import": [], "classical": [], "code": 0}


NF_HEAVY = ["yangian2.drinfeld", "yangian2.series", "yangian2.centers",
            "yangian2.current", "yangian2.dsl", "dataclasses"]

NF_PROBE = """
import json, sys
import yangian2.cli
code = yangian2.cli.main(["--m", "1", "--n", "1", "-L", "2", "-K", "2",
                          "--out", {out!r}, "nf", {expr!r}])
print(json.dumps({{"loaded": [m for m in {heavy!r} if m in sys.modules],
                  "code": code}}))
"""


@pytest.mark.parametrize("expr, loaded", [
    ("t[1,2,1]*t[2,1,1]", ["yangian2.dsl"]),
    ("d[1,1]", ["yangian2.drinfeld", "yangian2.series", "yangian2.dsl",
                "dataclasses"]),
])
def test_nf_loads_the_tables_its_atoms_read(tmp_path, expr, loaded):
    """A fresh interpreter: nf on t atoms loads the DSL and none of the
    modules behind the Drinfeld and center tables; a d atom loads drinfeld
    (and series and dataclasses with it), but not centers or current."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    script = NF_PROBE.format(heavy=NF_HEAVY, out=str(tmp_path / "report.json"),
                             expr=expr)
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, cwd=tmp_path, env=env)
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout.splitlines()[-1])
    assert seen == {"loaded": loaded, "code": 0}


def test_every_export_resolves_and_is_listed():
    listed = dir(yangian2)
    for name in yangian2.__all__:
        value = getattr(yangian2, name)
        assert value.__name__ == name
        assert name in listed
    assert "__version__" in listed
    with pytest.raises(AttributeError, match="no attribute 'nonexistent'"):
        yangian2.nonexistent  # noqa: B018


def test_star_import_takes_the_exports():
    namespace: dict = {}
    exec("from yangian2 import *", namespace)
    assert set(yangian2.__all__) <= set(namespace)


# -- Shape -------------------------------------------------------------------------


def test_shape_equality_and_hash():
    a, b = Shape(2, 1, 5), Shape(m=2, n=1, cap=5)
    assert a == b and hash(a) == hash(b)
    assert len({a, b, Shape(1, 2, 5)}) == 2
    assert a != Shape(2, 1, 6) and a != Shape(1, 2, 5)
    assert a != (2, 1, 5)
    assert repr(a) == "Shape(m=2, n=1, cap=5)"


def test_shape_is_immutable():
    shape = Shape(1, 1, 3)
    with pytest.raises(AttributeError):
        shape.cap = 4
    with pytest.raises(AttributeError):
        shape.extra = 1
    with pytest.raises(AttributeError):
        del shape.m
    assert (shape.m, shape.n, shape.cap) == (1, 1, 3)


@pytest.mark.parametrize("args, message", [
    ((0, 1, 3), "block sizes m, n must be positive"),
    ((1, 0, 3), "block sizes m, n must be positive"),
    ((1, 1, 0), "degree cap must be positive"),
    ((1, 1, 256), "degree cap and block size must stay below 256"),
    ((200, 56, 3), "degree cap and block size must stay below 256"),
])
def test_shape_messages(args, message):
    with pytest.raises(ValueError) as info:
        Shape(*args)
    assert str(info.value) == message


# -- series values -----------------------------------------------------------------


def test_series_values_are_immutable(alg11):
    one = YSeries(alg11, (alg11.one(), alg11.zero()))
    matrix = YMatrix(((one,),))
    with pytest.raises(AttributeError):
        one.coeffs = ()
    with pytest.raises(AttributeError):
        matrix.entries = ()
    assert matrix == YMatrix(((YSeries(alg11, (alg11.one(), alg11.zero())),),))
    assert hash(matrix) == hash(YMatrix(((one,),)))
    assert matrix != ((one,),)
    assert repr(matrix) == "YMatrix(entries=((" + repr(one) + ",),))"


# -- Check and Report ----------------------------------------------------------------


def test_check_equality_and_repr():
    check = Check("d1", {"i": 1}, True)
    assert check == Check("d1", {"i": 1}, True, None, None)
    assert check != Check("d1", {"i": 1}, True, value="vacuous")
    assert check != Check("d1", {"i": 2}, True)
    assert check != ("d1", {"i": 1}, True, None, None)
    assert repr(check) == ("Check(check_id='d1', params={'i': 1}, ok=True, "
                           "witness=None, value=None)")
    with pytest.raises(TypeError):
        hash(check)


def test_report_defaults_and_equality():
    a, b = Report("suite"), Report("suite")
    assert a.config == {} and a.checks == [] and a.config is not b.config
    a.add("x", {}, 1, value="v")
    assert a.checks == [Check("x", {}, True, None, "v")]
    assert a != b
    b.add("x", {}, True, value="v")
    assert a == b
    assert repr(a) == f"Report(suite='suite', config={{}}, checks={a.checks!r})"


# -- RunConfig -------------------------------------------------------------------------


def test_run_config_resolves_defaults():
    cfg = cli.RunConfig(m=2, n=1, cap=4).resolved()
    assert cfg == cli.RunConfig(2, 1, 4, 4, 5, 0, "report.json")
    assert cfg != cli.RunConfig(2, 1, 4)
    assert repr(cfg) == ("RunConfig(m=2, n=1, cap=4, order=4, trunc=5, "
                         "seed=0, out='report.json')")


@pytest.mark.parametrize("kwargs, message", [
    ({"m": 0}, "m and n must be >= 1"),
    ({"n": 0}, "m and n must be >= 1"),
    ({"order": 4}, "series order K must satisfy 0 <= K <= L"),
    ({"order": -1}, "series order K must satisfy 0 <= K <= L"),
    ({"trunc": 3}, "truncation T must satisfy T >= L + 1"),
])
def test_run_config_errors(kwargs, message):
    with pytest.raises(ValueError) as info:
        cli.RunConfig(**{"cap": 3, **kwargs}).resolved()
    assert str(info.value) == message

