"""What a command pays at start-up, and the value classes on its path.

Each CLI command runs in a fresh process that compiles the package from
source when no bytecode is cached, so the CLI and the package root import
only what a command runs: the modules behind drinfeld, centers, current
and the DSL load with the commands that use them.  Every value class is a
report.Record, so no command loads dataclasses, or the inspect and ast it
imports."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import yangian2
from yangian2 import cli
from yangian2.centers import CenterTable, PSquare, QuotientModel
from yangian2.drinfeld import DrinfeldTable
from yangian2.report import Check, Report
from yangian2.rtt import Shape
from yangian2.series import YMatrix, YSeries

ROOT = Path(__file__).resolve().parents[1]

# every command imports these, and the package root itself
CORE = ["yangian2", "yangian2.cli", "yangian2.errors", "yangian2.linalg",
        "yangian2.report", "yangian2.rtt"]

LOADED = """
import json, sys
def loaded():
    return {"modules": sorted(m for m in sys.modules
                              if m.split(".")[0] == "yangian2"),
            "dataclasses": "dataclasses" in sys.modules}
"""


def fresh_interpreter(tmp_path, code: str) -> dict:
    """Run LOADED and then code in a fresh interpreter that compiles the
    package from source; return the JSON object it prints last."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "-c", LOADED + code],
                          capture_output=True, text=True, cwd=tmp_path,
                          env=env)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_package_import_loads_only_the_core(tmp_path):
    """Importing the package loads none of its modules; importing the CLI
    and the package's algebra classes loads the core and current."""
    seen = fresh_interpreter(tmp_path, """
import yangian2
package = loaded()
import yangian2.cli
from yangian2 import CurrentAlgebra, RTTAlgebra, Shape
print(json.dumps([package, loaded()]))
""")
    assert seen == [{"modules": ["yangian2"], "dataclasses": False},
                    {"modules": sorted(CORE + ["yangian2.current"]),
                     "dataclasses": False}]


DRINFELD = ["yangian2.drinfeld", "yangian2.series"]

# each command at a tiny shape -> the package modules beyond CORE that it
# loads: the README's import table
COMMAND_MODULES = [
    pytest.param(["nf", "t[1,2,1]*t[2,1,1]"], ["yangian2.dsl"], id="nf-t"),
    pytest.param(["nf", "d[1,1]"], ["yangian2.dsl"] + DRINFELD, id="nf-d"),
    pytest.param(["nf", "c[1]"], ["yangian2.centers", "yangian2.dsl"]
                 + DRINFELD, id="nf-c"),
    pytest.param(["gauss"], DRINFELD, id="gauss"),
    pytest.param(["pbw"], DRINFELD, id="pbw"),
    pytest.param(["quotient-dim"], ["yangian2.centers"] + DRINFELD,
                 id="quotient-dim"),
    pytest.param(["fuzz", "--samples", "2"], [], id="fuzz"),
    pytest.param(["verify", "drinfeld"], DRINFELD, id="verify-drinfeld"),
    pytest.param(["verify", "centers"],
                 ["yangian2.centers", "yangian2.current"] + DRINFELD,
                 id="verify-centers"),
    pytest.param(["verify", "classical"], ["yangian2.current"],
                 id="verify-classical"),
]


def test_the_import_table_covers_every_command():
    covered = {argv[1] if argv[0] == "verify" else argv[0]
               for argv, _ in (p.values for p in COMMAND_MODULES)}
    assert covered == set(cli.COMMANDS) | set(cli.VERIFY_SUITES)


@pytest.mark.parametrize("argv, extra", COMMAND_MODULES)
def test_command_loads_only_its_modules(tmp_path, argv, extra):
    """A fresh interpreter without cached bytecode: each command loads the
    core and exactly the modules it runs, and never dataclasses."""
    seen = fresh_interpreter(tmp_path, f"""
import yangian2.cli
code = yangian2.cli.main(["--m", "1", "--n", "1", "-L", "2", "-K", "2",
                          "-T", "3", "--out", "report.json", *{argv!r}])
print(json.dumps({{"loaded": loaded(), "code": code}}))
""")
    assert seen == {"loaded": {"modules": sorted(CORE + extra),
                               "dataclasses": False},
                    "code": 0}


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



# -- the table records -------------------------------------------------------------


def test_table_records_compare_field_by_field(alg11):
    x = alg11.gen(1, 2, 1)
    square = PSquare("e", 1, 2, 1, 1, x)
    assert square == PSquare("e", 1, 2, 1, 1, alg11.gen(1, 2, 1))
    assert square != PSquare("f", 1, 2, 1, 1, x)
    assert square != ("e", 1, 2, 1, 1, x)
    tab = DrinfeldTable(alg11, 2)
    assert tab == DrinfeldTable(alg11, 2, {}, {}, {}, {}, None, None)
    assert tab != DrinfeldTable(alg11, 3)
    assert tab.d == {} and tab.d is not DrinfeldTable(alg11, 2).d
    table = CenterTable(tab, [x], {1: [x]}, [square])
    assert table == CenterTable(DrinfeldTable(alg11, 2), [x], {1: [x]},
                                [square])
    assert table != CenterTable(tab, [x], {1: []}, [square])
    assert table.__eq__(tab) is NotImplemented
    fields = (alg11, 2, None, [], None, 3, 1, 2, 2, True, None, ())
    quotient = QuotientModel(*fields)
    assert quotient == QuotientModel(*fields)
    assert quotient != QuotientModel(*fields[:-1], (x,))
    with pytest.raises(TypeError):
        QuotientModel(*fields[:-1])


def test_table_records_repr_and_hash(alg11):
    x = alg11.gen(1, 2, 1)
    square = PSquare("e", 1, 2, 1, 1, x)
    tab = DrinfeldTable(alg11, 2)
    table = CenterTable(tab, [x], {}, [square])
    quotient = QuotientModel(alg11, 2, None, [], None, 3, 1, 2, 2, True,
                             None, ())
    assert repr(square) == ("PSquare(kind='e', i=1, j=2, r=1, parity=1, "
                            f"element={x!r})")
    assert repr(tab) == (f"DrinfeldTable(alg={alg11!r}, order=2, d={{}}, "
                         "dprime={}, e={}, f={}, t=None, gauss=None)")
    assert repr(table) == (f"CenterTable(tab={tab!r}, c=[{x!r}], b={{}}, "
                           f"squares=[{square!r}])")
    assert repr(quotient) == (
        f"QuotientModel(alg={alg11!r}, bound=2, columns=None, split=[], "
        "echelon=None, dim_full=3, ideal_rank=1, dim_super=2, "
        "expected_super=2, certificate_ok=True, noncentral=None, "
        "odd_squares=())")
    for record in (square, tab, table, quotient):
        with pytest.raises(TypeError):
            hash(record)
