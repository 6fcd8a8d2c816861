"""Time-to-verdict benchmark for the yangian2 CLI.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

A closed loop with one client: one CLI command at a time, each in a fresh
Python process started only after the previous one has exited, so at most
two processes (this one and the command) are alive.  A new command starts
only while it is predicted, from the median command so far, to end within S
seconds of the first; at least one runs.  The workloads and the seed
commit's results are in perfbench/workloads.json.

Every command goes through the correctness gate (``gate``).  The CLI seed is
N modulo the seed pool of workloads.json, which holds the seed commit's
payload digest for each seed in the pool.

--trace 0 reports the end-to-end metrics, with tracing off:
  verdict_s    median wall seconds from spawning a command to its exit
  cpu_s        median user+sys CPU seconds of that command's own process
  peak_rss_mb  median peak RSS of that command's own process, in MiB
  setup_s      median seconds from spawning a fresh process until the package
               is imported and the workload's algebra is built (probe.py),
               probed before every command so the probes span the run
--trace 1 alternates an untraced command with a traced one (traced.py) and
reports the per-layer metrics, each the median over the traced commands (a
measured value, never an average of two); trace.overhead_s is the median
traced wall time minus the median untraced one.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  Without the package source under src/ the
benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from array import array
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SPEC = json.loads((BENCH / "workloads.json").read_text(encoding="utf-8"))
PROBES_PER_COMMAND = 3
MIN_PROBES = 9

sys.path.insert(0, str(BENCH))
from traced import FAMILIES, FIELDS  # noqa: E402


class BenchError(RuntimeError):
    """The benchmark itself cannot run; no result is printed."""


@dataclass
class Sample:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    error: str | None  # None when the command passed the gate


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def execute(argv: list[str]) -> tuple[float, int, object, str]:
    """Run argv to completion from the repository root.

    Returns wall seconds, exit code, the rusage of that one process (from
    wait4, so earlier children cannot leak into its peak RSS) and its stderr.
    """
    stdout_path, stderr_path = OUT / "stdout.txt", OUT / "stderr.txt"
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(),
                                stdin=subprocess.DEVNULL, stdout=out, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    stderr = stderr_path.read_text(encoding="utf-8", errors="replace")
    return wall, proc.returncode, usage, stderr


def payload_digest(payload: dict) -> str:
    """SHA-256 of the report payload in canonical JSON (the header is left out)."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def read_payload(path: Path) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)["report"]


def cli_args(spec: dict, cli_seed: int, report: Path) -> list[str]:
    return ["--seed", str(cli_seed), "--out", str(report.relative_to(ROOT)),
            *spec["argv"]]


def gate(spec: dict, cli_seed: int, code: int, stderr: str, report: Path) -> str | None:
    """Why a command failed the correctness gate, or None when it passed.

    A command passes when it exits 0, reports no failed check, has the seed
    commit's instance count, and its payload has the seed commit's digest.
    """
    if "Traceback" in stderr or code not in (0, 1):
        last = stderr.strip().splitlines()[-1:] or [""]
        return f"crashed (exit {code}): {last[0]}"
    if code == 1:
        return "assertion failed (exit 1)"
    try:
        payload = read_payload(report)
        totals = payload["totals"]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return f"no readable report: {exc}"
    if totals["failures"]:
        return f"{totals['failures']} failed checks"
    if totals["instances"] != spec["instances"]:
        return f"{totals['instances']} instances, seed commit has {spec['instances']}"
    if payload_digest(payload) != spec["digests"][str(cli_seed)]:
        return "payload differs from the seed commit"
    return None


def run_command(spec: dict, cli_seed: int, traced: tuple[Path, str] | None = None) -> Sample:
    report = OUT / "report.json"
    report.unlink(missing_ok=True)
    args = cli_args(spec, cli_seed, report)
    if traced is None:
        argv = [sys.executable, "-m", "yangian2.cli", *args]
    else:
        spans, run_id = traced
        argv = [sys.executable, str(BENCH / "traced.py"), str(spans), run_id, *args]
    wall, code, usage, stderr = execute(argv)
    return Sample(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024,
                  gate(spec, cli_seed, code, stderr, report))


def setup_time(spec: dict) -> float:
    """Seconds from spawning a fresh process until its algebra is built."""
    setup = spec["setup"]
    argv = [sys.executable, str(BENCH / "probe.py"), setup["algebra"],
            str(setup["m"]), str(setup["n"]), str(setup["bound"])]
    start = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(),
                            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE)
    with proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
    if proc.returncode != 0 or not line:
        raise BenchError(f"set-up probe failed with exit {proc.returncode}")
    source = Path(line.decode().strip()).resolve()
    if not source.is_relative_to(ROOT / "src"):
        raise BenchError(f"probe imported yangian2 from {source}, not from src/")
    return elapsed


def closed_loop(seconds: float, step) -> None:
    """Call step until the next call, at the median duration so far, would
    end more than `seconds` after the first began; call it at least once."""
    start = time.perf_counter()
    durations = []
    while True:
        began = time.perf_counter()
        step()
        durations.append(time.perf_counter() - began)
        if time.perf_counter() - start + statistics.median(durations) > seconds:
            return


def quartiles(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return f"q1 {q1:.4f}  q3 {q3:.4f}  n={len(values)}"


def report_failures(samples: list[Sample], label: str) -> None:
    for k, sample in enumerate(samples):
        if sample.error:
            print(f"{label} command {k}: FAILED {sample.error}")


def end_to_end(spec: dict, cli_seed: int, seconds: float) -> tuple[dict, list[Sample]]:
    # the untimed first probe also writes the bytecode caches
    setup_time(spec)
    setups: list[float] = []
    samples: list[Sample] = []

    def step() -> None:
        setups.extend(setup_time(spec) for _ in range(PROBES_PER_COMMAND))
        samples.append(run_command(spec, cli_seed))

    closed_loop(seconds, step)
    while len(setups) < MIN_PROBES:
        setups.append(setup_time(spec))
    report_failures(samples, "untraced")
    series = {
        "verdict_s": ([s.wall_s for s in samples], "s"),
        "cpu_s": ([s.cpu_s for s in samples], "s"),
        "peak_rss_mb": ([s.peak_rss_mb for s in samples], "MiB"),
        "setup_s": (setups, "s"),
    }
    metrics = {}
    for name, (values, unit) in series.items():
        metrics[name] = {"value": statistics.median(values), "unit": unit}
        print(f"{name}: median {metrics[name]['value']:.4f} {unit}  {quartiles(values)}")
    return metrics, samples


def load_spans(path: Path) -> tuple[dict, dict]:
    with open(path.with_suffix(".json"), encoding="utf-8") as handle:
        header = json.load(handle)
    if header["names"] != list(FAMILIES):
        raise BenchError("span file names other families than traced.py")
    arrays = {}
    with open(path.with_suffix(".bin"), "rb") as handle:
        for field, code in FIELDS:
            arrays[field] = array(code)
            arrays[field].fromfile(handle, header["count"])
    return header, arrays


def summarise(header: dict, arrays: dict) -> tuple[dict, set]:
    """Per-layer numbers of one traced command, and the families that fired.

    ``.s`` sums the spans not nested in a span of the same family; ``.self_s``
    sums each span's duration minus the time its child spans cover.
    """
    names = header["names"]
    count = header["count"]
    family, parent = arrays["family"], arrays["parent"]
    start, end, value = arrays["start"], arrays["end"], arrays["value"]
    calls = dict.fromkeys(names, 0)
    total = dict.fromkeys(names, 0.0)
    own = dict.fromkeys(names, 0.0)
    values = dict.fromkeys(names, 0)
    covered = [0.0] * count
    depth = dict.fromkeys(names, 0)
    stack: list[int] = []
    rows = 0
    ranks = []
    for i in range(count):
        while stack and stack[-1] != parent[i]:
            depth[names[family[stack.pop()]]] -= 1
        name = names[family[i]]
        duration = end[i] - start[i]
        calls[name] += 1
        values[name] += value[i]
        if not depth[name]:
            total[name] += duration
        if parent[i] >= 0:
            covered[parent[i]] += duration
        if name == "linalg.BitEchelon.add" and depth["centers.build_quotient"]:
            rows += 1
        if name == "centers.build_quotient":
            ranks.append(value[i])
        depth[name] += 1
        stack.append(i)
    for i in range(count):
        own[names[family[i]]] += end[i] - start[i] - covered[i]

    adds = calls["linalg.BitEchelon.add"]
    out = {
        "rtt.multiply.calls": calls["rtt.multiply"],
        "rtt.multiply.self_s": own["rtt.multiply"],
        "rtt.pbw_monomials.s": total["rtt.pbw_monomials"],
        "rtt.nf_cache.entries": header["caches"]["rtt.nf_cache.entries"],
        "rtt.pair_cache.entries": header["caches"]["rtt.pair_cache.entries"],
        "series.gauss_decompose.s": total["series.gauss_decompose"],
        "series.series_inv.calls": calls["series.series_inv"],
        "series.series_inv.s": total["series.series_inv"],
        "series.series_mul.calls": calls["series.series_mul"],
        "series.series_mul.s": total["series.series_mul"],
        "series.matrix_mul.s": total["series.matrix_mul"],
        "drinfeld.build_table.s": total["drinfeld.build_table"],
        "drinfeld.verify_drinfeld_relations.self_s": own["drinfeld.verify_drinfeld_relations"],
        "drinfeld.instances": values["drinfeld.verify_drinfeld_relations"],
        "centers.build_quotient.calls": calls["centers.build_quotient"],
        "centers.build_quotient.s": total["centers.build_quotient"],
        "centers.build_quotient.rows": rows,
        "centers.build_quotient.rank": max(ranks, default=0),
        "centers.build_quotient.useful_ratio": sum(ranks) / rows if rows else 0.0,
        "centers.freeness_shadow_report.self_s": own["centers.freeness_shadow_report"],
        "centers.QuotientModel.reduce.calls": calls["centers.QuotientModel.reduce"],
        "centers.QuotientModel.reduce.s": total["centers.QuotientModel.reduce"],
        "centers.centrality_report.s": total["centers.centrality_report"],
        "centers.independence_check.s": total["centers.independence_check"],
        "linalg.BitEchelon.add.calls": adds,
        "linalg.BitEchelon.add.s": total["linalg.BitEchelon.add"],
        "linalg.BitEchelon.add.independent_ratio":
            values["linalg.BitEchelon.add"] / adds if adds else 0.0,
        "linalg.BitEchelon.reduce.calls": calls["linalg.BitEchelon.reduce"],
        "linalg.BitEchelon.reduce.s": total["linalg.BitEchelon.reduce"],
        "current.classical_suite.s": total["current.classical_suite"],
        "current.invariants_dimension.s": total["current.invariants_dimension"],
        "current.CurrentAlgebra.multiply.calls": calls["current.CurrentAlgebra.multiply"],
        "current.CurrentAlgebra.multiply.s": total["current.CurrentAlgebra.multiply"],
        "current.nf_cache.entries": header["caches"]["current.nf_cache.entries"],
        "cli.write_report.s": total["cli.write_report"],
    }
    return out, {name for name in names if calls[name]}


def per_layer(spec: dict, name: str, cli_seed: int, seconds: float,
              units: dict) -> tuple[dict, list[Sample], list[str]]:
    plain: list[Sample] = []
    traced: list[Sample] = []
    layers: list[dict] = []
    problems: list[str] = []
    spans = OUT / "spans"

    def step() -> None:
        plain.append(run_command(spec, cli_seed))
        run_id = f"{name}/seed-{cli_seed}/{len(traced)}"
        for suffix in (".json", ".bin"):
            spans.with_suffix(suffix).unlink(missing_ok=True)
        traced.append(run_command(spec, cli_seed, (spans, run_id)))
        if traced[-1].error:
            return
        numbers, fired = summarise(*load_spans(spans))
        layers.append(numbers)
        missing = sorted(set(spec["expected_spans"]) - fired)
        if missing:
            problems.append(f"{run_id}: expected spans never fired: {missing}")

    closed_loop(seconds, step)
    report_failures(plain, "untraced")
    report_failures(traced, "traced")
    overhead = (statistics.median(s.wall_s for s in traced)
                - statistics.median(s.wall_s for s in plain))
    print(f"tracing overhead on {name}: {overhead:.4f} s "
          f"(traced {quartiles([s.wall_s for s in traced])}; "
          f"untraced {quartiles([s.wall_s for s in plain])})")
    metrics = {}
    for metric, unit in units.items():
        if metric == "trace.overhead_s":
            value = overhead
        elif layers:
            value = statistics.median_low(layer[metric] for layer in layers)
        else:  # every traced command failed the gate; the run is not correct
            value = 0
        metrics[metric] = {"value": value, "unit": unit}
        print(f"{metric}: {value} {unit}")
    return metrics, plain + traced, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(SPEC["workloads"]))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "yangian2" / "cli.py").is_file():
        print(f"error: no package source at {ROOT / 'src' / 'yangian2'}",
              file=sys.stderr)
        return 2
    spec = SPEC["workloads"][args.workload]
    cli_seed = args.seed % SPEC["seed_pool"]
    OUT.mkdir(exist_ok=True)
    print(f"workload {args.workload}: yangian2 {' '.join(spec['argv'])} "
          f"--seed {cli_seed}")
    try:
        if args.trace:
            bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
            units = {m["name"]: m["unit"] for m in bench["per_layer"]}
            metrics, samples, problems = per_layer(spec, args.workload, cli_seed,
                                                   args.seconds, units)
        else:
            metrics, samples = end_to_end(spec, cli_seed, args.seconds)
            problems = []
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for problem in problems:
        print(f"self-check FAILED {problem}")
    failed = sum(1 for s in samples if s.error)
    print(f"failed_share: {failed / len(samples):.4f} ({failed} of {len(samples)} commands)")
    result = {"correct": failed == 0 and not problems, "attempted": len(samples),
              "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
