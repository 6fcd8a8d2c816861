#!/usr/bin/env python3
"""Run every verification suite at desk scale and collect JSON reports.

Writes one report per (shape, suite) into reports/ and prints a summary
table.  Exit status is nonzero if any suite recorded a failure.
"""

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from yangian2 import cli  # noqa: E402

RUNS = [
    # (label, argv prefix, subcommand argv)
    ("drinfeld-1-1", ["--m", "1", "--n", "1", "-L", "5", "-K", "5"],
     ["verify", "drinfeld", "--budget", "5"]),
    ("drinfeld-2-1", ["--m", "2", "--n", "1", "-L", "5", "-K", "5"],
     ["verify", "drinfeld", "--budget", "5"]),
    ("centers-1-1", ["--m", "1", "--n", "1", "-L", "4", "-K", "4"],
     ["verify", "centers"]),
    ("centers-2-1", ["--m", "2", "--n", "1", "-L", "4", "-K", "3"],
     ["verify", "centers"]),
    ("centers-1-1-L6", ["--m", "1", "--n", "1", "-L", "6", "-K", "6"],
     ["verify", "centers"]),
    ("classical-1-1", ["--m", "1", "--n", "1", "-L", "4", "-T", "5"],
     ["verify", "classical"]),
    ("classical-2-1", ["--m", "2", "--n", "1", "-L", "3", "-T", "5"],
     ["verify", "classical"]),
    ("classical-2-2", ["--m", "2", "--n", "2", "-L", "3", "-T", "4"],
     ["verify", "classical"]),
    ("pbw-1-1", ["--m", "1", "--n", "1", "-L", "4", "-K", "4"], ["pbw"]),
    ("pbw-super-1-1", ["--m", "1", "--n", "1", "-L", "4", "-K", "4"],
     ["pbw", "--super"]),
    ("pbw-2-1", ["--m", "2", "--n", "1", "-L", "5", "-K", "5"], ["pbw"]),
    ("pbw-super-2-1", ["--m", "2", "--n", "1", "-L", "5", "-K", "5"],
     ["pbw", "--super"]),
    ("quotient-1-1", ["--m", "1", "--n", "1", "-L", "4", "-K", "4"],
     ["quotient-dim"]),
    ("quotient-2-1", ["--m", "2", "--n", "1", "-L", "3", "-K", "3"],
     ["quotient-dim"]),
    ("quotient-1-1-L7", ["--m", "1", "--n", "1", "-L", "7", "-K", "7"],
     ["quotient-dim"]),
    ("quotient-2-2-L4", ["--m", "2", "--n", "2", "-L", "4", "-K", "4"],
     ["quotient-dim"]),
    ("fuzz-1-1", ["--m", "1", "--n", "1", "-L", "4", "--seed", "20240604"],
     ["fuzz", "--samples", "1000"]),
    ("gauss-2-1", ["--m", "2", "--n", "1", "-L", "4", "-K", "4"], ["gauss"]),
]


def main() -> int:
    out_dir = pathlib.Path(__file__).resolve().parent.parent / "reports"
    out_dir.mkdir(exist_ok=True)
    worst = 0
    for label, prefix, command in RUNS:
        out = out_dir / f"{label}.json"
        print(f"=== {label} ===")
        code = cli.main([*prefix, "--out", str(out), *command])
        worst = max(worst, code)
        print()
    print("all reports in", out_dir)
    return worst


if __name__ == "__main__":
    raise SystemExit(main())
