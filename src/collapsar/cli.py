"""Command line front end.

Exit codes: 0 success, 2 argument or validation errors, 3 numerical
failures (overflowing squeezing).  All output is byte deterministic for a
fixed argument list: CSV floats are rendered at 17 significant digits,
JSON documents with a fixed key order.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys

import numpy as np

from .entanglement import (
    CSV_HEADER,
    EntropyReport,
    _json_number,
    _reduction,
    crossover,
    entropy_report,
    format_float,
    report_csv_row,
    report_json_dict,
    sweep,
    temperature_ratio_fit,
)
from .errors import SqueezingOverflowError
from .fock import mean_occupation, partial_trace
from .geometry import (
    FOUR_PI,
    BlackHoleParams,
    ModeChannel,
    Statistics,
    _require_finite_positive,
    squeezing_for,
)
# Not called here: bench/tracer.py rebinds partial_trace (above) and these two builders here.
from .states import EPS_TAIL_DEFAULT, build_boson_state, build_fermion_state

# Largest sweep grid.  A point at the truncation cap costs ~0.3-0.4 ms for
# both statistics, so a sweep with every point there takes about 5-8 s
# (2-CPU host, one BLAS thread).
MAX_SWEEP_POINTS = 20_000


def _emit(args: argparse.Namespace, text: str) -> None:
    if args.output:
        with open(args.output, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _omega_from_x(x: float, mass: float) -> float:
    """x / (4 pi mass); a zero, subnormal or infinite omega has lost the digits of x."""
    omega = x / (FOUR_PI * mass)
    if not sys.float_info.min <= omega < math.inf:
        raise ValueError(
            f"x = {x!r} at mass = {mass!r} gives omega = {omega!r}, "
            "not a positive normal float"
        )
    return omega


def _channel_omega(args: argparse.Namespace) -> float:
    if args.x is not None:
        _require_finite_positive("x", args.x)
        return _omega_from_x(args.x, args.mass)
    return args.omega


def _stats_list(value: str) -> tuple[Statistics, ...]:
    if value == "both":
        return (Statistics.BOSON, Statistics.FERMION)
    return (Statistics(value),)


def _reports_text(args: argparse.Namespace, reports: list[EntropyReport]) -> str:
    if args.format == "json":
        return json.dumps([report_json_dict(r) for r in reports], indent=2) + "\n"
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for r in reports:
        writer.writerow(report_csv_row(r))
    return buf.getvalue()


def cmd_entropy(args: argparse.Namespace) -> int:
    params = BlackHoleParams(mass=args.mass)
    omega = _channel_omega(args)
    reports = [
        entropy_report(
            params,
            ModeChannel(omega=omega, statistics=st),
            eps_tail=args.eps_tail,
        )
        for st in _stats_list(args.stats)
    ]
    _emit(args, _reports_text(args, reports))
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    params = BlackHoleParams(mass=args.mass)
    if not 2 <= args.points <= MAX_SWEEP_POINTS:
        raise ValueError(
            f"points must be between 2 and {MAX_SWEEP_POINTS}, got {args.points}"
        )
    if not (0.0 < args.omega_min < args.omega_max):
        raise ValueError(
            f"need 0 < omega-min < omega-max, got {args.omega_min!r}, {args.omega_max!r}"
        )
    # Past the ordering check only +inf is left to refuse, before numpy
    # spaces a grid over it.
    _require_finite_positive("omega-max", args.omega_max)
    if args.grid == "log":
        omegas = np.geomspace(args.omega_min, args.omega_max, args.points)
    else:
        omegas = np.linspace(args.omega_min, args.omega_max, args.points)
    reports = sweep(
        params,
        [float(o) for o in omegas],
        statistics=_stats_list(args.stats),
        eps_tail=args.eps_tail,
    )
    _emit(args, _reports_text(args, reports))
    if all(r.error is not None for r in reports):
        return 3
    return 0


def cmd_crossover(args: argparse.Namespace) -> int:
    params = BlackHoleParams(mass=args.mass)
    result = crossover()
    omega_star = _omega_from_x(result.x_star, params.mass)
    lines = [
        f"x_star = {format_float(result.x_star)}",
        f"omega_star = {format_float(omega_star)}",
        f"residual = {format_float(result.residual)}",
        f"iterations = {result.iterations}",
    ]
    _emit(args, "\n".join(lines) + "\n")
    return 0


def cmd_reduced(args: argparse.Namespace) -> int:
    params = BlackHoleParams(mass=args.mass)
    channel = ModeChannel(omega=_channel_omega(args), statistics=Statistics(args.stats))
    sq = squeezing_for(params, channel)
    rho = _reduction(sq, args.eps_tail)
    doc = {"squeezing": sq.to_json_dict(), **rho.to_json_dict()}
    if args.spectrum:
        doc["mean_occ"] = _json_number(mean_occupation(rho))
        doc["T_ratio"] = _json_number(temperature_ratio_fit(rho, sq.x))
    _emit(args, json.dumps(doc, indent=2) + "\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--mass", type=float, required=True, help="shell mass m > 0")
    common.add_argument("--output", help="write to this path instead of stdout")

    mode = argparse.ArgumentParser(add_help=False)
    group = mode.add_mutually_exclusive_group(required=True)
    group.add_argument("--omega", type=float, help="mode frequency omega > 0")
    group.add_argument(
        "--x", type=float, help="dimensionless 4 pi m omega, in place of --omega"
    )

    trunc = argparse.ArgumentParser(add_help=False)
    trunc.add_argument(
        "--eps-tail",
        type=float,
        default=EPS_TAIL_DEFAULT,
        help="ceiling on the truncated tail bound, a normal float <= 1e-6 (default %(default)g)",
    )

    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument(
        "--format", choices=["csv", "json"], default="csv", help="report format"
    )

    parser = argparse.ArgumentParser(
        prog="collapsar",
        description="Entanglement entropy of radiation pairs from gravitational collapse",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pe = sub.add_parser(
        "entropy",
        parents=[common, mode, trunc, fmt],
        help="closed-form and numerical entropy of one mode",
    )
    pe.add_argument("--stats", choices=["boson", "fermion", "both"], default="both")
    pe.set_defaults(func=cmd_entropy)

    ps = sub.add_parser(
        "sweep",
        parents=[common, trunc, fmt],
        help="entropy reports over a frequency grid",
    )
    ps.add_argument("--omega-min", type=float, required=True)
    ps.add_argument("--omega-max", type=float, required=True)
    ps.add_argument(
        "--points",
        type=int,
        required=True,
        help=f"grid size, from 2 to {MAX_SWEEP_POINTS}",
    )
    ps.add_argument("--grid", choices=["log", "linear"], default="log")
    ps.add_argument("--stats", choices=["boson", "fermion", "both"], default="both")
    ps.set_defaults(func=cmd_sweep)

    pc = sub.add_parser(
        "crossover",
        parents=[common],
        help="x where the fermionic entropy overtakes the bosonic one",
    )
    pc.set_defaults(func=cmd_crossover)

    for name, spectrum, text in (
        ("state", False, "reduced density operator of one mode, as JSON"),
        ("spectrum", True, "reduced state plus occupation and fitted temperature"),
    ):
        pr = sub.add_parser(name, parents=[common, mode, trunc], help=text)
        pr.add_argument("--stats", choices=["boson", "fermion"], required=True)
        pr.set_defaults(func=cmd_reduced, spectrum=spectrum)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SqueezingOverflowError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
