"""Exact computation in the characteristic-2 super Yangian and its parent.

The package provides the RTT straightening engine (rtt), truncated series
and Gauss decomposition (series), Drinfeld generators and the relation
verifier (drinfeld), center generators with the odd-square quotient and
the classical bridge (centers), the truncated current Lie superalgebra
oracle (current), and a small expression DSL plus CLI (dsl, cli).
"""

from .current import CurrentAlgebra
from .drinfeld import DrinfeldTable, build_table, drinfeld_generators, higher_roots
from .rtt import Element, RTTAlgebra, Shape
from .series import YMatrix, YSeries, gauss_decompose, t_matrix

__version__ = "0.1.0"

__all__ = [
    "CurrentAlgebra",
    "DrinfeldTable",
    "Element",
    "RTTAlgebra",
    "Shape",
    "YMatrix",
    "YSeries",
    "build_table",
    "drinfeld_generators",
    "gauss_decompose",
    "higher_roots",
    "t_matrix",
]
