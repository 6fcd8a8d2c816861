"""Record the correctness gate's reference results into workloads.json.

Usage, from the repository root, on the commit the gate should compare
against:

    python3 perfbench/record.py [WORKLOAD ...]

For each workload (default: all) and each CLI seed in the seed pool, the
command must exit 0 with no failed check; its instance count and payload
digest are then written to workloads.json.  The instance count must be the
same for every seed.
"""

from __future__ import annotations

import json
import sys

from run import BENCH, OUT, SPEC, cli_args, execute, payload_digest, read_payload


def record(name: str) -> None:
    spec = SPEC["workloads"][name]
    counts = set()
    digests = {}
    for cli_seed in range(SPEC["seed_pool"]):
        report = OUT / "report.json"
        report.unlink(missing_ok=True)
        argv = [sys.executable, "-m", "yangian2.cli",
                *cli_args(spec, cli_seed, report)]
        wall, code, _, stderr = execute(argv)
        if code != 0:
            raise SystemExit(f"{name} seed {cli_seed}: exit {code}\n{stderr}")
        payload = read_payload(report)
        if payload["totals"]["failures"]:
            raise SystemExit(f"{name} seed {cli_seed}: failed checks")
        counts.add(payload["totals"]["instances"])
        digests[str(cli_seed)] = payload_digest(payload)
        print(f"{name} seed {cli_seed}: {wall:.2f} s, "
              f"{payload['totals']['instances']} instances", flush=True)
    if len(counts) != 1:
        raise SystemExit(f"{name}: instance count varies with the seed: {counts}")
    spec["instances"] = counts.pop()
    spec["digests"] = digests


def main() -> None:
    OUT.mkdir(exist_ok=True)
    for name in sys.argv[1:] or sorted(SPEC["workloads"]):
        record(name)
        with open(BENCH / "workloads.json", "w", encoding="utf-8") as handle:
            json.dump(SPEC, handle, indent=2)
            handle.write("\n")


if __name__ == "__main__":
    main()
