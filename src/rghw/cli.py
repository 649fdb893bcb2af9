"""Command-line front end: weight tables, verification, Gauss-sum tables.

Exit codes: 0 success, 1 route disagreement, failed verification or a
failed internal cross-check, 2 bad input (a command line the parser
rejects included), 3 enumeration/size cap exceeded.  Output for a fixed
configuration and seed is byte-stable; timing fields are only emitted
under --timings (bench is inherently timing output and exempt).
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys
from typing import Callable, Iterable, Optional, Sequence

from .charsum import CharacterHandle, gauss_sum
from .codes import build_code
from .errors import CapExceeded, OutputError, RangeError, RghwError, UsageError
from .gf import build_field, prime_power
from .verify import SUITES, run_suites
from .weights import DEFAULT_ENUM_CAP, ROUTE_NAMES, check_request, plan_report, run_report

EXIT_OK = 0
EXIT_DISAGREE = 1


def _parse_int(text: str, what: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise RangeError(f"{what} {text!r} is not an integer") from None


def _j_values(j_spec: str, k1: int) -> list[int]:
    """The j of a --j value: "all", one value, or an inclusive lo:hi."""
    if j_spec == "all":
        return list(range(1, k1 + 1))
    lo, sep, hi = j_spec.partition(":")
    first = _parse_int(lo, "--j")
    last = _parse_int(hi, "--j") if sep else first
    if first > last:
        raise RangeError(f"--j {j_spec} is an empty range")
    for j in (first, last):  # checked before a range of any size is built
        if not 1 <= j <= k1:
            raise RangeError(f"j={j} outside 1..{k1}")
    return list(range(first, last + 1))


def _emit(args: argparse.Namespace, text: str) -> None:
    if not args.out:
        sys.stdout.write(text)
        return
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise OutputError(f"cannot write {args.out}: {exc.strerror}") from None


def _csv_text(header: Sequence, rows: Iterable[Sequence]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _render(args: argparse.Namespace, document: dict,
            to_csv: Optional[Callable[[dict], str]],
            to_pretty: Callable[[dict], str]) -> None:
    """Emit the document in the chosen format: JSON for every command,
    csv and pretty through the command's own renderers."""
    if args.format == "json":
        text = json.dumps(document, indent=2) + "\n"
    else:
        text = (to_csv if args.format == "csv" else to_pretty)(document)
    _emit(args, text)


def _error_payload(exc: RghwError) -> str:
    return json.dumps({"error": {"code": exc.code, "message": str(exc)}}) + "\n"


# -- table --------------------------------------------------------------------


def _plans(args: argparse.Namespace):
    """The code and the plan_report of every j: every refusal before the
    first scan, those of the flags alone (check_request) before the code."""
    check_request(args.q, args.k1, args.k2, args.e1, args.e2, args.routes, args.cap, args.workers)
    spec = build_code(args.q, args.k1, args.k2, args.e1, args.e2)
    return spec, [plan_report(spec, j, routes=args.routes, cap=args.cap, workers=args.workers)
                  for j in _j_values(args.j, spec.k1)]


def cmd_table(args: argparse.Namespace) -> int:
    spec, plans = _plans(args)
    reports = [run_report(plan) for plan in plans]
    document = {
        "spec": spec.summary(),
        "results": [r.as_dict(args.timings) for r in reports],
    }
    _render(args, document, _table_csv, _table_pretty)
    return EXIT_OK if all(r.agree for r in reports) else EXIT_DISAGREE


_CSV_SPEC_COLS = ("q", "k1", "k2", "e1", "e2", "n1", "n2", "n")


def _table_csv(document: dict) -> str:
    spec_cols = [document["spec"][c] for c in _CSV_SPEC_COLS]
    return _csv_text(
        _CSV_SPEC_COLS + ("j", "route", "m", "n_j", "agree"),
        (spec_cols + [row["j"], route, payload["m"], payload.get("n_j", ""), row["agree"]]
         for row in document["results"] for route, payload in row["routes"].items()),
    )


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


def cmd_gauss(args: argparse.Namespace) -> int:
    p, m = prime_power(args.size)
    order = args.size - 1
    if args.lam == "all":
        lams = range(order)  # lazy: the cap below may refuse it
    else:
        lams = [_parse_int(args.lam, "--lam") % order]
    if not 0 <= args.beta < args.size:
        raise RangeError(f"beta code {args.beta} outside GF({args.size})")
    terms = order * len(lams)  # each sum runs over the size-1 nonzero elements
    if terms > DEFAULT_ENUM_CAP:
        raise CapExceeded(f"{terms} Gauss-sum terms exceed the cap {DEFAULT_ENUM_CAP}")
    field = build_field(p, m)  # last: a large field takes seconds to build
    rows = []
    for lam in lams:
        chi = CharacterHandle(field, order, lam)
        value = gauss_sum(chi, args.beta)
        rows.append(
            {
                "lam": lam,
                "beta": args.beta,
                "re": round(value.real, 12),
                "im": round(value.imag, 12),
                "modulus": round(abs(value), 12),
            }
        )
    document = {"field": {"size": field.size, "p": field.p, "m": field.m}, "rows": rows}
    _render(args, document, _gauss_csv, _gauss_pretty)
    return EXIT_OK


def _gauss_csv(document: dict) -> str:
    size = document["field"]["size"]
    return _csv_text(
        ("size", "lam", "beta", "re", "im", "modulus"),
        ((size, r["lam"], r["beta"], r["re"], r["im"], r["modulus"])
         for r in document["rows"]),
    )


def _gauss_pretty(document: dict) -> str:
    lines = [f"Gauss sums over GF({document['field']['size']})"]
    for r in document["rows"]:
        lines.append(
            f"lam={r['lam']:>3} beta={r['beta']:>3}  "
            f"{r['re']:+.9f}{r['im']:+.9f}i  |G|={r['modulus']:.9f}"
        )
    return "\n".join(lines) + "\n"


# -- verify ----------------------------------------------------------------------


def cmd_verify(args: argparse.Namespace) -> int:
    results = run_suites(
        args.suite, seed=args.seed, samples=args.samples, workers=args.workers
    )
    document = {
        "seed": args.seed,
        "samples": args.samples,
        "suites": [r.as_dict() for r in results],
        "passed": all(r.passed for r in results),
    }
    _render(args, document, None, _verify_pretty)
    return EXIT_OK if document["passed"] else EXIT_DISAGREE


def _verify_pretty(document: dict) -> str:
    lines = []
    for r in document["suites"]:
        status = "PASS" if r["passed"] else "FAIL"
        extra = ""
        if "max_residual" in r["notes"]:
            extra = f"  max_residual={r['notes']['max_residual']:.3e}"
        lines.append(f"{r['suite']}: {status} ({r['checks']} checks){extra}")
        for message in r["failures"][:5]:
            lines.append(f"    {message}")
    lines.append("all suites passed" if document["passed"] else "FAILURES present")
    return "\n".join(lines) + "\n"


# -- bench ------------------------------------------------------------------------


def cmd_bench(args: argparse.Namespace) -> int:
    spec, plans = _plans(args)
    rows = []
    for plan in plans:
        reports = [run_report(plan) for _ in range(args.repeat)]
        for route in plan.order:
            timings = [getattr(report, route).millis for report in reports]
            rows.append(
                {
                    "j": plan.j,
                    "route": route,
                    "m": getattr(reports[-1], route).m,
                    "best_ms": round(min(timings), 3),
                    "mean_ms": round(sum(timings) / len(timings), 3),
                }
            )
    document = {"spec": spec.summary(), "repeat": args.repeat, "rows": rows}
    _render(args, document, _bench_csv, lambda doc: _bench_pretty(doc, repr(spec)))
    return EXIT_OK


def _bench_csv(document: dict) -> str:
    return _csv_text(
        ("j", "route", "m", "best_ms", "mean_ms"),
        ((r["j"], r["route"], r["m"], r["best_ms"], r["mean_ms"]) for r in document["rows"]),
    )


def _bench_pretty(document: dict, spec_repr: str) -> str:
    lines = [f"bench {spec_repr} repeat={document['repeat']}"]
    for r in document["rows"]:
        lines.append(
            f"j={r['j']} {r['route']:<12} M={r['m']:<6} "
            f"best={r['best_ms']:.1f}ms mean={r['mean_ms']:.1f}ms"
        )
    return "\n".join(lines) + "\n"


# -- argument plumbing ---------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Parse errors raise UsageError, so they reach the JSON error object;
    subparsers inherit the class."""

    def error(self, message: str):
        raise UsageError(f"{self.prog}: {message}")


_FORMATS = ("json", "csv", "pretty")


def _add_output_args(parser: argparse.ArgumentParser, formats: Sequence[str]) -> None:
    parser.add_argument("--format", choices=formats, default="pretty")
    parser.add_argument("--out", default=None, help="write output to a file")


def _add_workers_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--workers", type=int, default=1,
                        help="scan processes, at most the CPU count (default 1)")


def _add_scan_args(parser: argparse.ArgumentParser) -> None:
    """The code pair, the j and routes to compute, and the scan limits."""
    parser.add_argument("--q", type=int, required=True, help="base field size")
    parser.add_argument("--k1", type=int, required=True)
    parser.add_argument("--k2", type=int, required=True)
    parser.add_argument("--e1", type=int, default=1)
    parser.add_argument("--e2", type=int, default=1)
    parser.add_argument("--j", default="all", help='"all", a value, or lo:hi')
    parser.add_argument(
        "--routes",
        default="all",
        help='comma list of %s, or "all": every route that applies' % (",".join(ROUTE_NAMES)),
    )
    _add_workers_arg(parser)
    parser.add_argument("--cap", type=int, default=DEFAULT_ENUM_CAP,
                        help="enumeration cap (default %(default)s)")
    _add_output_args(parser, _FORMATS)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parse_args keeps
    no state between calls."""
    parser = _Parser(
        prog="rghw",
        description="Weight hierarchies of cyclic codes with two nonzeros",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_table = sub.add_parser("table", help="compute the M_j table by several routes")
    _add_scan_args(p_table)
    p_table.add_argument("--timings", action="store_true",
                         help="include wall-clock fields in table output")

    p_gauss = sub.add_parser("gauss", help="list Gauss sums over one field")
    p_gauss.add_argument("--size", type=int, required=True, help="field size (prime power)")
    p_gauss.add_argument("--lam", default="all", help='character exponent or "all"')
    p_gauss.add_argument("--beta", type=int, default=1, help="element code for beta")
    _add_output_args(p_gauss, _FORMATS)

    p_verify = sub.add_parser("verify", help="run the cross-validation suites")
    p_verify.add_argument(
        "--suite",
        action="append",
        choices=sorted(SUITES),
        help="restrict to one suite (repeatable)",
    )
    p_verify.add_argument("--samples", type=int, default=100,
                          help="random subspaces per instance for the oracle")
    p_verify.add_argument("--seed", type=int, default=2024)
    _add_workers_arg(p_verify)
    _add_output_args(p_verify, ("json", "pretty"))

    p_bench = sub.add_parser("bench", help="time the computation routes")
    _add_scan_args(p_bench)
    p_bench.add_argument("--repeat", type=int, default=3)
    return parser


def _resolve_args(args: argparse.Namespace) -> None:
    """The route tuple, None for --routes all, and the --repeat floor: the
    library checks every other flag (check_request, run_suites)."""
    routes = getattr(args, "routes", "all")
    args.routes = None if routes == "all" else tuple(
        r.strip() for r in routes.split(",") if r.strip())
    if getattr(args, "repeat", 1) < 1:
        raise RangeError(f"repeat={args.repeat} must be >= 1")


COMMANDS = {
    "table": cmd_table,
    "gauss": cmd_gauss,
    "verify": cmd_verify,
    "bench": cmd_bench,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one command line and return its exit code: an error's exit_code
    when it fails."""
    try:
        args = build_parser().parse_args(argv)
        _resolve_args(args)
        return COMMANDS[args.command](args)
    except RghwError as exc:
        sys.stderr.write(_error_payload(exc))
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
