"""Command-line interface: batch verification commands and reports.

Configuration precedence is flags over a key=value config file over the
built-in defaults; there are no environment variables.  Every command
writes a JSON report whose payload is deterministic for a fixed config
(timestamps live in a separate header field) and prints a short summary.
Exit status: 0 all assertions passed, 1 an assertion failed, 2 usage error,
3 internal error.
"""

from __future__ import annotations

import argparse
import datetime
import json
import sys
from dataclasses import dataclass

from . import centers as centers_mod
from . import dsl
from .current import CurrentAlgebra, classical_suite
from .drinfeld import (build_table, drinfeld_pbw_check, generator_params,
                       verify_drinfeld_relations)
from .report import Report
from .rtt import RTTAlgebra, Shape
from .series import diagonal_matrix, matrix_mul


@dataclass
class RunConfig:
    m: int = 1
    n: int = 1
    cap: int = 3
    order: int | None = None
    trunc: int | None = None
    seed: int = 0
    out: str = "report.json"

    def resolved(self) -> "RunConfig":
        order = self.cap if self.order is None else self.order
        trunc = self.cap + 1 if self.trunc is None else self.trunc
        cfg = RunConfig(self.m, self.n, self.cap, order, trunc, self.seed, self.out)
        if cfg.m < 1 or cfg.n < 1:
            raise ValueError("m and n must be >= 1")
        if not 0 <= cfg.order <= cfg.cap:
            raise ValueError("series order K must satisfy 0 <= K <= L")
        if cfg.trunc < cfg.cap + 1:
            raise ValueError("truncation T must satisfy T >= L + 1")
        return cfg

    def as_dict(self) -> dict:
        return {"m": self.m, "n": self.n, "L": self.cap, "K": self.order,
                "T": self.trunc, "seed": self.seed}


def load_config_file(path: str) -> dict:
    values: dict = {}
    keys = {"m": int, "n": int, "L": int, "K": int, "T": int,
            "seed": int, "out": str}
    with open(path, encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value")
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in keys:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            values[key] = keys[key](value)
    return values


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="yangian2",
        description="Exact GF(2) Yangian engine: normal forms, Gauss "
                    "decomposition and verification suites.")
    parser.add_argument("--m", type=int, default=None, help="first block size")
    parser.add_argument("--n", type=int, default=None, help="second block size")
    parser.add_argument("-L", "--cap", type=int, default=None,
                        help="hard canonical-degree cap")
    parser.add_argument("-K", "--order", type=int, default=None,
                        help="series order (default: L)")
    parser.add_argument("-T", "--trunc", type=int, default=None,
                        help="classical truncation (default: L+1)")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--out", default=None, help="report output path")
    parser.add_argument("--config", default=None,
                        help="key=value config file (flags override it)")

    sub = parser.add_subparsers(dest="command", required=True)

    nf = sub.add_parser("nf", help="normal form of an expression")
    nf.add_argument("expr")

    sub.add_parser("gauss", help="emit the Drinfeld generator table")

    verify = sub.add_parser("verify", help="run a verification suite")
    verify.add_argument("suite", choices=["drinfeld", "centers", "classical"])
    verify.add_argument("--budget", type=int, default=None,
                        help="total-degree budget of verify drinfeld "
                             "(default: min(L, K+1))")

    pbw = sub.add_parser("pbw", help="PBW dimension certificate")
    pbw.add_argument("--super", dest="super_only", action="store_true")

    sub.add_parser("quotient-dim", help="super quotient dimension certificate")

    fuzz = sub.add_parser("fuzz", help="associativity fuzzing")
    fuzz.add_argument("--samples", type=int, default=200)

    return parser


def _merge_config(args) -> RunConfig:
    for flag in ("budget", "samples"):
        if getattr(args, flag, None) is not None and getattr(args, flag) < 0:
            raise ValueError(f"--{flag} must be >= 0")
    if getattr(args, "budget", None) is not None and args.suite != "drinfeld":
        raise ValueError(f"--budget applies only to verify drinfeld, "
                         f"not verify {args.suite}")
    file_values = load_config_file(args.config) if args.config else {}
    def pick(flag, key, default):
        if flag is not None:
            return flag
        return file_values.get(key, default)
    cfg = RunConfig(
        m=pick(args.m, "m", 1),
        n=pick(args.n, "n", 1),
        cap=pick(args.cap, "L", 3),
        order=pick(args.order, "K", None),
        trunc=pick(args.trunc, "T", None),
        seed=pick(args.seed, "seed", 0),
        out=pick(args.out, "out", "report.json"),
    )
    return cfg.resolved()


# -- command handlers ------------------------------------------------------------


def _cmd_nf(cfg: RunConfig, args) -> Report:
    alg = RTTAlgebra(Shape(cfg.m, cfg.n, cfg.cap))
    node = dsl.parse(args.expr, alg.shape)
    ctx = dsl.EvalContext(alg, cfg.order)
    value = dsl.evaluate(node, ctx)
    report = Report("normal-form", config=cfg.as_dict())
    report.add("nf", {"expr": args.expr}, True, value=value.canonical())
    return report


def _cmd_gauss(cfg: RunConfig, args) -> Report:
    alg = RTTAlgebra(Shape(cfg.m, cfg.n, cfg.cap))
    tab = build_table(alg, cfg.order)
    report = Report("gauss", config=cfg.as_dict())
    for kind, a, b, r, x in tab.generators(tab.order):
        params = generator_params(kind, a, b, r)
        report.add(kind, params, True, value=x.canonical())
        if kind == "d":
            report.add("d'", params, True, value=tab.dprime[a][r].canonical())
    return report


def _cmd_verify_drinfeld(cfg: RunConfig, args) -> Report:
    alg = RTTAlgebra(Shape(cfg.m, cfg.n, cfg.cap))
    budget = args.budget if args.budget is not None else min(cfg.cap, cfg.order + 1)
    tab = build_table(alg, cfg.order)
    report = verify_drinfeld_relations(tab, budget)
    report.config.update(cfg.as_dict())

    # reconstruction check rides along: F*D*E must reproduce T exactly
    f_mat, diag, e_mat = tab.gauss
    product = matrix_mul(f_mat, matrix_mul(diagonal_matrix(alg, diag), e_mat))
    ok = product == tab.t
    report.add("gauss-reconstruction", {"order": cfg.order}, ok)
    return report


def _cmd_verify_centers(cfg: RunConfig, args) -> Report:
    alg = RTTAlgebra(Shape(cfg.m, cfg.n, cfg.cap))
    tab = build_table(alg, cfg.order)
    table = centers_mod.build_center_table(tab)
    report = Report("centers", config=cfg.as_dict())
    report.extend(centers_mod.centrality_report(
        table, c_max=cfg.order, b_max=2 * (cfg.order // 2),
        square_bound=cfg.cap))
    quotient = centers_mod.build_quotient(alg, cfg.cap, tab)
    report.extend(centers_mod.quotient_report(quotient))
    classical = CurrentAlgebra(cfg.m, cfg.n, cfg.trunc)
    report.extend(centers_mod.gr_bridge_report(
        tab, table, classical, max_r=cfg.order))
    gens = [(f"c^({r})", table.c[r]) for r in range(1, cfg.order + 1)
            if table.c[r].degree() <= cfg.cap]
    gens += [(f"b_{i}^(2)", table.b[i][2]) for i in sorted(table.b)
             if i >= 2 and len(table.b[i]) > 2]
    gens += [(sq.label, sq.element) for sq in table.squares if sq.parity == 0]
    gens = [(label, el) for label, el in gens if el]
    if gens:
        report.extend(centers_mod.independence_check(gens, cfg.cap, quotient))
    # higher roots only exist below the cap for three or more blocks
    shadow_bound = cfg.order if alg.shape.size == 2 else min(cfg.order,
                                                             cfg.cap - 1)
    if shadow_bound >= 1:
        shadow_q = (quotient if shadow_bound == cfg.cap
                    else centers_mod.build_quotient(alg, shadow_bound, tab))
        report.extend(centers_mod.freeness_shadow_report(
            table, shadow_q, "p-center"))
        report.extend(centers_mod.freeness_shadow_report(
            table, shadow_q, "full-center"))
    return report


def _cmd_verify_classical(cfg: RunConfig, args) -> Report:
    calg = CurrentAlgebra(cfg.m, cfg.n, cfg.trunc)
    pbw_degree = 2 if calg.size > 2 else 3
    report = classical_suite(calg, seed=cfg.seed, samples=25,
                             pbw_degree=pbw_degree, invariants_degree=2)
    report.config.update(cfg.as_dict())
    return report


def _cmd_pbw(cfg: RunConfig, args) -> Report:
    alg = RTTAlgebra(Shape(cfg.m, cfg.n, cfg.cap))
    # with three or more blocks the higher roots stop one short of the cap
    top = cfg.cap if alg.shape.size == 2 else cfg.cap - 1
    bound = min(top, cfg.order)
    tab = build_table(alg, cfg.order)
    report = drinfeld_pbw_check(tab, bound, super_only=args.super_only)
    report.config.update(cfg.as_dict())
    count = len(alg.pbw_monomials(bound, super_only=args.super_only))
    report.add("ordered-monomial-count", {"bound": bound, "count": count}, True,
               value=str(count))
    return report


def _cmd_quotient_dim(cfg: RunConfig, args) -> Report:
    alg = RTTAlgebra(Shape(cfg.m, cfg.n, cfg.cap))
    # the odd squares with 2r <= L read no series coefficient past u^(-L/2)
    tab = build_table(alg, cfg.cap // 2)
    quotient = centers_mod.build_quotient(alg, cfg.cap, tab)
    report = centers_mod.quotient_report(quotient)
    report.config.update(cfg.as_dict())
    return report


def _cmd_fuzz(cfg: RunConfig, args) -> Report:
    alg = RTTAlgebra(Shape(cfg.m, cfg.n, cfg.cap))
    report = alg.associativity_fuzz(args.samples, cfg.seed)
    report.config.update(cfg.as_dict())
    return report


def run_command(cfg: RunConfig, args) -> Report:
    if args.command == "nf":
        return _cmd_nf(cfg, args)
    if args.command == "gauss":
        return _cmd_gauss(cfg, args)
    if args.command == "verify":
        handler = {"drinfeld": _cmd_verify_drinfeld,
                   "centers": _cmd_verify_centers,
                   "classical": _cmd_verify_classical}[args.suite]
        return handler(cfg, args)
    if args.command == "pbw":
        return _cmd_pbw(cfg, args)
    if args.command == "quotient-dim":
        return _cmd_quotient_dim(cfg, args)
    if args.command == "fuzz":
        return _cmd_fuzz(cfg, args)
    raise ValueError(f"unknown command {args.command}")


def write_report(report: Report, path: str) -> None:
    doc = {
        "header": {
            "generated_at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        },
        "report": report.to_payload(),
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, indent=2, sort_keys=True)
        handle.write("\n")


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if not exc.code else 2
    try:
        cfg = _merge_config(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        report = run_command(cfg, args)
    except (dsl.DSLError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # RecursionError, MemoryError or a defect
        message = " ".join(str(exc).split())
        print(f"internal error: {type(exc).__name__}: {message}", file=sys.stderr)
        return 3
    try:
        write_report(report, cfg.out)
    except OSError as exc:
        print(f"error: cannot write report: {exc}", file=sys.stderr)
        return 2
    for line in report.summary_lines():
        print(line)
    for check in report.checks:
        if check.value is not None and check.check_id == "nf":
            print(check.value)
    print(f"report written to {cfg.out}")
    return 0 if report.ok else 1


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
