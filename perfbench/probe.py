"""Set-up probe: import the package the way the CLI does and build one algebra.

Usage: python3 perfbench/probe.py {rtt|current} M N BOUND

BOUND is the degree cap L for ``rtt`` and the truncation T for ``current``.
Once the algebra exists the probe prints the imported package's file and
exits; run.py times a fresh process from spawn to that line (set-up time).
No straightening happens here, and neither does building a Drinfeld table:
users pay that on every command, so it belongs to the verdict time.
"""

import sys

import yangian2
import yangian2.cli  # noqa: F401  (the CLI's whole import graph)
from yangian2.current import CurrentAlgebra
from yangian2.rtt import RTTAlgebra, Shape


def main() -> None:
    kind, m, n, bound = sys.argv[1], *map(int, sys.argv[2:5])
    if kind == "rtt":
        RTTAlgebra(Shape(m, n, bound))
    elif kind == "current":
        CurrentAlgebra(m, n, bound)
    else:
        raise SystemExit(f"unknown algebra kind {kind!r}")
    print(yangian2.__file__, flush=True)


if __name__ == "__main__":
    main()
