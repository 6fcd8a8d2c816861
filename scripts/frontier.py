#!/usr/bin/env python3
"""Run the frontier ladder of CLI commands and record what each one cost.

Each row is one ``yangian2.cli`` command run to completion in a fresh Python
process, one at a time.  For every row the script records its argv, its wall
time from spawn to exit, its peak RSS from ``os.wait4``, its exit status and the SHA-256 of its report payload in canonical JSON (the
same digest ``perfbench/run.py`` computes; the header is left out).  The rows
go to BENCH_frontier_<label>.json.

The peak RSS is that process's ``ru_maxrss``, which is the larger of the
row's own peak and this script's RSS when it spawned the row: the forked
child holds this script's pages until it execs, and the kernel keeps that
high-water mark across exec.  A row that peaks below this script's own RSS
reads that RSS.

Usage, from the repository root:

    python3 scripts/frontier.py --label NAME [--src DIR] [--out-dir DIR]

--src is the package source to run (default: this checkout's src/), so one
script can measure another checkout; --out-dir defaults to the repository
root.  Exit status is 0 when every row exited 0, else 1.
"""

import argparse
import hashlib
import json
import os
import pathlib
import subprocess
import sys
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent

# (label, argv prefix, subcommand argv): the new-frontier rows of the ROADMAP
# baseline table
ROWS = [
    ("quotient-1-1-L12", ["--m", "1", "--n", "1", "-L", "12"], ["quotient-dim"]),
    ("quotient-2-1-L8", ["--m", "2", "--n", "1", "-L", "8"], ["quotient-dim"]),
    ("quotient-2-2-L6", ["--m", "2", "--n", "2", "-L", "6"], ["quotient-dim"]),
    ("quotient-2-2-L7", ["--m", "2", "--n", "2", "-L", "7"], ["quotient-dim"]),
    ("quotient-3-1-L7", ["--m", "3", "--n", "1", "-L", "7"], ["quotient-dim"]),
    ("centers-1-1-L10", ["--m", "1", "--n", "1", "-L", "10", "-K", "10"],
     ["verify", "centers"]),
    ("centers-2-1-L7", ["--m", "2", "--n", "1", "-L", "7", "-K", "7"],
     ["verify", "centers"]),
    ("centers-2-2-L6", ["--m", "2", "--n", "2", "-L", "6", "-K", "6"],
     ["verify", "centers"]),
    ("drinfeld-2-2-L7", ["--m", "2", "--n", "2", "-L", "7", "-K", "7"],
     ["verify", "drinfeld"]),
    ("drinfeld-3-1-L7", ["--m", "3", "--n", "1", "-L", "7", "-K", "7"],
     ["verify", "drinfeld"]),
    ("drinfeld-2-2-L8", ["--m", "2", "--n", "2", "-L", "8", "-K", "8"],
     ["verify", "drinfeld"]),
    ("classical-2-2-L4-T8", ["--m", "2", "--n", "2", "-L", "4", "-T", "8"],
     ["verify", "classical"]),
    ("classical-3-2-L4-T6", ["--m", "3", "--n", "2", "-L", "4", "-T", "6"],
     ["verify", "classical"]),
    ("nf-1-1-L97", ["--m", "1", "--n", "1", "-L", "97"],
     ["nf", "t[2,2,1]^48*t[1,2,1]^49"]),
    ("pbw-super-2-1-L8", ["--m", "2", "--n", "1", "-L", "8", "-K", "8"],
     ["pbw", "--super"]),
    ("pbw-2-1-L8", ["--m", "2", "--n", "1", "-L", "8", "-K", "8"], ["pbw"]),
    ("gauss-1-1-K14", ["--m", "1", "--n", "1", "-L", "14", "-K", "14"],
     ["gauss"]),
]


def payload_digest(payload: dict) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def run_row(src: pathlib.Path, label: str, prefix: list, command: list,
            workdir: pathlib.Path) -> dict:
    """Run one CLI command in a fresh process and measure it."""
    report = workdir / "report.json"
    report.unlink(missing_ok=True)
    argv = [sys.executable, "-m", "yangian2.cli", *prefix, "--out", str(report),
            *command]
    env = dict(os.environ, PYTHONPATH=str(src))
    with open(workdir / "stderr.txt", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=workdir, env=env,
                                stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    row = {"label": label, "argv": [*prefix, *command],
           "wall_s": round(wall, 3),
           "peak_rss_mib": round(usage.ru_maxrss / 1024, 1),
           "exit": proc.returncode, "payload_sha256": None}
    if report.exists():
        row["payload_sha256"] = payload_digest(
            json.loads(report.read_text(encoding="utf-8"))["report"])
    if proc.returncode:
        lines = (workdir / "stderr.txt").read_text(errors="replace").splitlines()
        row["error"] = lines[-1] if lines else ""
    return row


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--src", default=str(ROOT / "src"))
    parser.add_argument("--out-dir", default=str(ROOT))
    args = parser.parse_args(argv)
    src = pathlib.Path(args.src).resolve()
    rows = []
    with tempfile.TemporaryDirectory() as tmp:
        for label, prefix, command in ROWS:
            row = run_row(src, label, prefix, command, pathlib.Path(tmp))
            rows.append(row)
            print(f"{label:<22} {row['wall_s']:>8.2f} s "
                  f"{row['peak_rss_mib']:>8.1f} MiB  exit {row['exit']}",
                  flush=True)
    doc = {"label": args.label, "python": sys.version.split()[0], "rows": rows}
    out = pathlib.Path(args.out_dir) / f"BENCH_frontier_{args.label}.json"
    out.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    print(f"written to {out}")
    return 0 if all(row["exit"] == 0 for row in rows) else 1


if __name__ == "__main__":
    raise SystemExit(main())
