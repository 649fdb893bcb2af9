"""Command-line front end: weight tables, verification, Gauss-sum tables.

Exit codes: 0 success, 1 route disagreement, failed verification or a
failed internal cross-check, 2 bad input, 3 enumeration/size cap
exceeded.  Output for a fixed configuration and seed is byte-stable;
timing fields are only emitted under --timings (bench is inherently
timing output and exempt).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import time
from dataclasses import dataclass
from typing import Optional, Sequence

from .charsum import CharacterHandle, gauss_sum
from .codes import build_code
from .errors import BAD_INPUT_ERRORS, CAP_ERRORS, DISAGREE_ERRORS, RangeError, RghwError
from .gf import field_for_size
from .verify import SUITES, run_suites
from .weights import DEFAULT_ENUM_CAP, ROUTE_NAMES, compute_report

EXIT_OK = 0
EXIT_DISAGREE = 1
EXIT_BAD_INPUT = 2
EXIT_CAP = 3


@dataclass
class RunConfig:
    """Everything one invocation needs, resolved from flags and RGHW_CAP."""

    command: str
    q: int = 0
    k1: int = 0
    k2: int = 0
    e1: int = 1
    e2: int = 1
    j_spec: str = "all"
    routes: tuple[str, ...] = ROUTE_NAMES
    routes_explicit: bool = False
    fmt: str = "pretty"
    out: Optional[str] = None
    seed: int = 2024
    samples: int = 100
    workers: int = 1
    cap: int = DEFAULT_ENUM_CAP
    timings: bool = False
    size: int = 0
    lam: str = "all"
    beta: int = 1
    suites: tuple[str, ...] = ()
    repeat: int = 3

    def j_values(self, k1: int) -> list[int]:
        if self.j_spec == "all":
            return list(range(1, k1 + 1))
        if ":" in self.j_spec:
            lo, hi = self.j_spec.split(":", 1)
            values = list(range(int(lo), int(hi) + 1))
        else:
            values = [int(self.j_spec)]
        for j in values:
            if not 1 <= j <= k1:
                raise RangeError(f"j={j} outside 1..{k1}")
        return values


def _default_cap() -> int:
    env = os.environ.get("RGHW_CAP")
    return int(env) if env else DEFAULT_ENUM_CAP


def _emit(config: RunConfig, text: str) -> None:
    if config.out:
        with open(config.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _error_payload(exc: RghwError) -> str:
    return json.dumps({"error": {"code": exc.code, "message": str(exc)}}) + "\n"


# -- table --------------------------------------------------------------------


def cmd_table(config: RunConfig) -> int:
    spec = build_code(config.q, config.k1, config.k2, config.e1, config.e2)
    reports = [
        compute_report(
            spec,
            j,
            routes=config.routes,
            cap=config.cap,
            workers=config.workers,
            strict_routes=config.routes_explicit,
        )
        for j in config.j_values(spec.k1)
    ]
    document = {
        "spec": spec.summary(),
        "results": [r.as_dict(config.timings) for r in reports],
    }
    if config.fmt == "json":
        _emit(config, json.dumps(document, indent=2) + "\n")
    elif config.fmt == "csv":
        _emit(config, _table_csv(document))
    else:
        _emit(config, _table_pretty(document))
    return EXIT_OK if all(r.agree for r in reports) else EXIT_DISAGREE


_CSV_SPEC_COLS = ("q", "k1", "k2", "e1", "e2", "n1", "n2", "n")


def _table_csv(document: dict) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_CSV_SPEC_COLS + ("j", "route", "m", "n_j", "agree"))
    spec_cols = [document["spec"][c] for c in _CSV_SPEC_COLS]
    for row in document["results"]:
        for route, payload in row["routes"].items():
            writer.writerow(
                spec_cols
                + [
                    row["j"],
                    route,
                    payload["m"],
                    payload.get("n_j", ""),
                    row["agree"],
                ]
            )
    return buf.getvalue()


def _table_pretty(document: dict) -> str:
    spec = document["spec"]
    lines = [
        "code pair: q={q} k1={k1} k2={k2} e1={e1} e2={e2}  "
        "n1={n1} n2={n2} n={n}".format(**spec)
    ]
    for row in document["results"]:
        routes = "  ".join(
            f"{name}: M={payload['m']}"
            + (f" N={payload['n_j']}" if "n_j" in payload else "")
            for name, payload in row["routes"].items()
        )
        flag = "ok" if row["agree"] else "DISAGREE"
        lines.append(f"j={row['j']}: {routes}  [{flag}]")
    return "\n".join(lines) + "\n"


# -- gauss ---------------------------------------------------------------------


def cmd_gauss(config: RunConfig) -> int:
    field = field_for_size(config.size)
    order = field.size - 1
    if config.lam == "all":
        lams = list(range(order)) or [0]
    else:
        lams = [int(config.lam) % max(order, 1)]
    if not 0 <= config.beta < field.size:
        raise RangeError(f"beta code {config.beta} outside GF({field.size})")
    rows = []
    for lam in lams:
        chi = CharacterHandle(field, max(order, 1), lam if order else 0)
        value = gauss_sum(chi, config.beta)
        rows.append(
            {
                "lam": lam,
                "beta": config.beta,
                "re": round(value.real, 12),
                "im": round(value.imag, 12),
                "modulus": round(abs(value), 12),
            }
        )
    document = {"field": {"size": field.size, "p": field.p, "m": field.m}, "rows": rows}
    if config.fmt == "json":
        _emit(config, json.dumps(document, indent=2) + "\n")
    elif config.fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(("size", "lam", "beta", "re", "im", "modulus"))
        for r in rows:
            writer.writerow(
                (field.size, r["lam"], r["beta"], r["re"], r["im"], r["modulus"])
            )
        _emit(config, buf.getvalue())
    else:
        lines = [f"Gauss sums over GF({field.size})"]
        for r in rows:
            lines.append(
                f"lam={r['lam']:>3} beta={r['beta']:>3}  "
                f"{r['re']:+.9f}{r['im']:+.9f}i  |G|={r['modulus']:.9f}"
            )
        _emit(config, "\n".join(lines) + "\n")
    return EXIT_OK


# -- verify ----------------------------------------------------------------------


def cmd_verify(config: RunConfig) -> int:
    names = list(config.suites) if config.suites else list(SUITES)
    results = run_suites(
        names, seed=config.seed, samples=config.samples, workers=config.workers
    )
    document = {
        "seed": config.seed,
        "samples": config.samples,
        "suites": [r.as_dict() for r in results],
        "passed": all(r.passed for r in results),
    }
    if config.fmt == "json":
        _emit(config, json.dumps(document, indent=2) + "\n")
    else:
        lines = []
        for r in results:
            status = "PASS" if r.passed else "FAIL"
            extra = ""
            if "max_residual" in r.notes:
                extra = f"  max_residual={r.notes['max_residual']:.3e}"
            lines.append(f"{r.name}: {status} ({r.checks} checks){extra}")
            for message in r.failures[:5]:
                lines.append(f"    {message}")
        lines.append("all suites passed" if document["passed"] else "FAILURES present")
        _emit(config, "\n".join(lines) + "\n")
    return EXIT_OK if document["passed"] else EXIT_DISAGREE


# -- bench ------------------------------------------------------------------------


def cmd_bench(config: RunConfig) -> int:
    spec = build_code(config.q, config.k1, config.k2, config.e1, config.e2)
    rows = []
    for j in config.j_values(spec.k1):
        for route in config.routes:
            timings = []
            m_value = None
            for _ in range(config.repeat):
                t0 = time.perf_counter()
                report = compute_report(
                    spec, j, routes=(route,), cap=config.cap,
                    workers=config.workers, strict_routes=False,
                )
                timings.append((time.perf_counter() - t0) * 1e3)
                if route in report.routes:
                    m_value = report.routes[route].m
            if m_value is None:
                continue
            rows.append(
                {
                    "j": j,
                    "route": route,
                    "m": m_value,
                    "best_ms": round(min(timings), 3),
                    "mean_ms": round(sum(timings) / len(timings), 3),
                }
            )
    document = {"spec": spec.summary(), "repeat": config.repeat, "rows": rows}
    if config.fmt == "json":
        _emit(config, json.dumps(document, indent=2) + "\n")
    elif config.fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(("j", "route", "m", "best_ms", "mean_ms"))
        for r in rows:
            writer.writerow((r["j"], r["route"], r["m"], r["best_ms"], r["mean_ms"]))
        _emit(config, buf.getvalue())
    else:
        lines = [f"bench {spec!r} repeat={config.repeat}"]
        for r in rows:
            lines.append(
                f"j={r['j']} {r['route']:<12} M={r['m']:<6} "
                f"best={r['best_ms']:.1f}ms mean={r['mean_ms']:.1f}ms"
            )
        _emit(config, "\n".join(lines) + "\n")
    return EXIT_OK


# -- argument plumbing ---------------------------------------------------------


def _add_spec_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--q", type=int, required=True, help="base field size")
    parser.add_argument("--k1", type=int, required=True)
    parser.add_argument("--k2", type=int, required=True)
    parser.add_argument("--e1", type=int, default=1)
    parser.add_argument("--e2", type=int, default=1)
    parser.add_argument("--j", default="all", help='"all", a value, or lo:hi')
    parser.add_argument(
        "--routes",
        default="all",
        help='comma list of %s or "all"' % (",".join(ROUTE_NAMES)),
    )


def _add_common_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=("json", "csv", "pretty"), default="pretty")
    parser.add_argument("--out", default=None, help="write output to a file")
    parser.add_argument("--seed", type=int, default=2024)
    parser.add_argument("--workers", type=int, default=os.cpu_count() or 1)
    parser.add_argument("--cap", type=int, default=None,
                        help="enumeration cap (env RGHW_CAP overrides the default)")
    parser.add_argument("--timings", action="store_true",
                        help="include wall-clock fields in table output")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rghw",
        description="Weight hierarchies of cyclic codes with two nonzeros",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_table = sub.add_parser("table", help="compute the M_j table by several routes")
    _add_spec_args(p_table)
    _add_common_args(p_table)

    p_gauss = sub.add_parser("gauss", help="list Gauss sums over one field")
    p_gauss.add_argument("--size", type=int, required=True, help="field size (prime power)")
    p_gauss.add_argument("--lam", default="all", help='character exponent or "all"')
    p_gauss.add_argument("--beta", type=int, default=1, help="element code for beta")
    _add_common_args(p_gauss)

    p_verify = sub.add_parser("verify", help="run the cross-validation suites")
    p_verify.add_argument(
        "--suite",
        action="append",
        choices=sorted(SUITES),
        help="restrict to one suite (repeatable)",
    )
    p_verify.add_argument("--samples", type=int, default=100,
                          help="random subspaces per instance for the oracle")
    _add_common_args(p_verify)

    p_bench = sub.add_parser("bench", help="time the computation routes")
    _add_spec_args(p_bench)
    p_bench.add_argument("--repeat", type=int, default=3)
    _add_common_args(p_bench)
    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    config = RunConfig(command=args.command)
    config.fmt = args.format
    config.out = args.out
    config.seed = args.seed
    config.workers = max(1, args.workers)
    config.cap = args.cap if args.cap is not None else _default_cap()
    config.timings = getattr(args, "timings", False)
    if args.command in ("table", "bench"):
        config.q, config.k1, config.k2 = args.q, args.k1, args.k2
        config.e1, config.e2 = args.e1, args.e2
        config.j_spec = args.j
        if args.routes == "all":
            config.routes = ROUTE_NAMES
            config.routes_explicit = False
        else:
            requested = tuple(r.strip() for r in args.routes.split(",") if r.strip())
            for r in requested:
                if r not in ROUTE_NAMES:
                    raise RangeError(f"unknown route {r!r}")
            config.routes = requested
            config.routes_explicit = True
    if args.command == "gauss":
        config.size = args.size
        config.lam = args.lam
        config.beta = args.beta
    if args.command == "verify":
        config.suites = tuple(args.suite) if args.suite else ()
        config.samples = args.samples
    if args.command == "bench":
        config.repeat = args.repeat
    return config


COMMANDS = {
    "table": cmd_table,
    "gauss": cmd_gauss,
    "verify": cmd_verify,
    "bench": cmd_bench,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _config_from_args(args)
        return COMMANDS[args.command](config)
    except CAP_ERRORS as exc:
        sys.stderr.write(_error_payload(exc))
        return EXIT_CAP
    except BAD_INPUT_ERRORS as exc:
        sys.stderr.write(_error_payload(exc))
        return EXIT_BAD_INPUT
    except DISAGREE_ERRORS as exc:
        sys.stderr.write(_error_payload(exc))
        return EXIT_DISAGREE
    except RghwError as exc:
        sys.stderr.write(_error_payload(exc))
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
