#!/usr/bin/env python3
"""Print PBW dimension tables for small shapes.

For each shape and degree bound the table shows the full ordered-monomial
count, the rank of the odd-square ideal, the resulting quotient dimension,
the ordered-supermonomial count the quotient must match, and whether the
quotient's dimension certificate holds.
"""

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from yangian2 import RTTAlgebra, Shape, build_table  # noqa: E402
from yangian2.centers import build_quotient  # noqa: E402

SHAPES = [(1, 1, 5), (2, 1, 4), (1, 2, 4), (2, 2, 3)]


def main() -> int:
    ok = True
    for m, n, top in SHAPES:
        alg = RTTAlgebra(Shape(m, n, top + 1))
        tab = build_table(alg, top)
        print(f"shape ({m},{n})")
        print(f"  {'L':>2} {'dim':>6} {'ideal':>6} {'quotient':>9} "
              f"{'supercount':>10} {'match':>6}")
        for bound in range(top + 1):
            q = build_quotient(alg, bound, tab)
            match = q.certificate_ok
            ok = ok and match
            print(f"  {bound:>2} {q.dim_full:>6} {q.ideal_rank:>6} "
                  f"{q.dim_super:>9} {q.expected_super:>10} "
                  f"{str(match):>6}")
        print()
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
