"""Run one yangian2 CLI command with spans around the calls into each layer.

Usage: python3 perfbench/traced.py SPANS RUN_ID CLI_ARG...

The tracer wraps the functions listed in FAMILIES from outside the package:
no package file changes.  A module that imported a function by name holds its
own reference (``cli`` imports ``build_table`` and ``gauss_decompose``,
``drinfeld`` imports ``series_inv``, ``centers`` imports ``series_mul``), so
every binding of the original in every package module is replaced, and the
run refuses to start if one is left.  Methods are replaced on their class.
The recursive rewriter ``_nf_word`` is not wrapped: straightening is measured
through ``multiply`` and the cache sizes.

Each span holds a family, a start, an end, its parent span and an integer
value taken from the result (see MEASURE).  Spans stay in memory and are
written when the command ends: SPANS.json holds the run id, the family names,
the span count and the cache sizes read from the algebras that ``multiply``
was called on; SPANS.bin holds the five arrays FIELDS in that order.
"""

from __future__ import annotations

import importlib
import json
import pkgutil
import sys
import time
from array import array

# span family -> (module, qualified name of the function that defines it)
FAMILIES = {
    "rtt.multiply": ("rtt", "RTTAlgebra.multiply"),
    "rtt.pbw_monomials": ("rtt", "RTTAlgebra.pbw_monomials"),
    "series.gauss_decompose": ("series", "gauss_decompose"),
    "series.series_inv": ("series", "series_inv"),
    "series.series_mul": ("series", "series_mul"),
    "series.matrix_mul": ("series", "matrix_mul"),
    "drinfeld.build_table": ("drinfeld", "build_table"),
    "drinfeld.verify_drinfeld_relations": ("drinfeld", "verify_drinfeld_relations"),
    "centers.build_quotient": ("centers", "build_quotient"),
    "centers.freeness_shadow_report": ("centers", "freeness_shadow_report"),
    "centers.QuotientModel.reduce": ("centers", "QuotientModel.reduce"),
    "centers.centrality_report": ("centers", "centrality_report"),
    "centers.independence_check": ("centers", "independence_check"),
    "linalg.BitEchelon.add": ("linalg", "BitEchelon.add"),
    "linalg.BitEchelon.reduce": ("linalg", "BitEchelon.reduce"),
    "current.classical_suite": ("current", "classical_suite"),
    "current.invariants_dimension": ("current", "invariants_dimension"),
    "current.CurrentAlgebra.multiply": ("current", "CurrentAlgebra.multiply"),
    "cli.write_report": ("cli", "write_report"),
}

# the integer a span keeps from its function's result
MEASURE = {
    "linalg.BitEchelon.add": lambda row: 1 if row else 0,
    "centers.build_quotient": lambda quotient: quotient.ideal_rank,
    "drinfeld.verify_drinfeld_relations":
        lambda report: sum(1 for c in report.checks if c.value != "vacuous"),
}

# families whose first argument is an algebra whose caches are read at the end
CAPTURE = {"rtt.multiply": "rtt", "current.CurrentAlgebra.multiply": "current"}

FIELDS = (("family", "i"), ("parent", "i"), ("start", "d"), ("end", "d"),
          ("value", "q"))


class Tracer:
    def __init__(self) -> None:
        self.family = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.value = array("q")
        self.open = [-1]
        self.algebras: dict[str, dict[int, object]] = {"rtt": {}, "current": {}}

    def wrap(self, fid: int, fn, measure, capture):
        family, parent, start, end, value = (self.family, self.parent,
                                             self.start, self.end, self.value)
        open_spans = self.open
        captured = self.algebras[capture] if capture else None
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(family)
            family.append(fid)
            parent.append(open_spans[-1])
            end.append(0.0)
            value.append(0)
            open_spans.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                open_spans.pop()
            if measure is not None:
                value[idx] = measure(result)
            if captured is not None:
                captured.setdefault(id(args[0]), args[0])
            return result

        return wrapper

    def cache_entries(self, kind: str, key: str) -> int:
        """Entries in every dict attribute named like *key* of the captured algebras."""
        return sum(len(v) for alg in self.algebras[kind].values()
                   for name, v in vars(alg).items()
                   if key in name and isinstance(v, dict))

    def write(self, path: str, run_id: str) -> None:
        header = {
            "run_id": run_id,
            "names": list(FAMILIES),
            "count": len(self.family),
            "caches": {
                "rtt.nf_cache.entries": self.cache_entries("rtt", "nf_cache"),
                "rtt.pair_cache.entries": self.cache_entries("rtt", "pair_cache"),
                "current.nf_cache.entries": self.cache_entries("current", "nf_cache"),
            },
        }
        with open(path + ".bin", "wb") as handle:
            for field, _ in FIELDS:
                getattr(self, field).tofile(handle)
        with open(path + ".json", "w", encoding="utf-8") as handle:
            json.dump(header, handle)


def package_modules() -> list:
    import yangian2

    return [yangian2] + [importlib.import_module(f"yangian2.{info.name}")
                         for info in pkgutil.iter_modules(yangian2.__path__)]


def install(tracer: Tracer) -> None:
    """Replace every binding of each traced function in the package."""
    modules = package_modules()
    originals = []
    for fid, (family, (module_name, qualname)) in enumerate(FAMILIES.items()):
        owner = importlib.import_module(f"yangian2.{module_name}")
        *outer, attr = qualname.split(".")
        for name in outer:
            owner = getattr(owner, name)
        original = vars(owner)[attr]
        wrapper = tracer.wrap(fid, original, MEASURE.get(family),
                              CAPTURE.get(family))
        originals.append(original)
        setattr(owner, attr, wrapper)
        if not outer:
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, name, wrapper)
    left = [f"{module.__name__}.{name}" for module in modules
            for name, value in vars(module).items()
            if any(value is original for original in originals)]
    if left:
        raise RuntimeError(f"unwrapped references left: {left}")


def main() -> int:
    spans, run_id, cli_args = sys.argv[1], sys.argv[2], sys.argv[3:]
    tracer = Tracer()
    install(tracer)
    from yangian2 import cli
    try:
        return cli.main(cli_args)
    finally:
        tracer.write(spans, run_id)


if __name__ == "__main__":
    raise SystemExit(main())
