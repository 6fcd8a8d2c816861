"""Exact computation in the characteristic-2 super Yangian and its parent.

The package provides the RTT straightening engine (rtt), truncated series
and Gauss decomposition (series), Drinfeld generators and the relation
verifier (drinfeld), center generators with the odd-square quotient and
the classical bridge (centers), the truncated current Lie superalgebra
oracle (current), and a small expression DSL plus CLI (dsl, cli).

The names in __all__ are loaded on first access (PEP 562), so importing
the package, or one of its modules, compiles only the modules in use.
"""

import importlib

__version__ = "0.1.0"

# exported name -> the module that defines it
_EXPORTS = {
    "CurrentAlgebra": "current",
    "DrinfeldTable": "drinfeld",
    "Element": "rtt",
    "RTTAlgebra": "rtt",
    "Shape": "rtt",
    "YMatrix": "series",
    "YSeries": "series",
    "build_table": "drinfeld",
    "drinfeld_generators": "drinfeld",
    "gauss_decompose": "series",
    "higher_roots": "drinfeld",
    "t_matrix": "series",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)


def __dir__() -> list:
    return sorted(set(globals()) | set(__all__))
