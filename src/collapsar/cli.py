"""Command line front end.

Exit codes: 0 success, 2 argument or validation errors, 3 numerical
failures (unrepresentable squeezing).  ``entropy`` and ``sweep`` keep
going past modes they cannot represent, with the error in the row, and
exit 3 only when every row failed.  All output is byte deterministic for a
fixed argument list: CSV floats are rendered at 17 significant digits,
JSON documents with a fixed key order.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import math
import sys

import numpy as np

from .entanglement import (
    CSV_HEADER,
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
# Not called here: bench/tracer.py rebinds entropy_report and partial_trace
# (above) and the two builders (below).
from .states import (
    EPS_TAIL_DEFAULT,
    _boson_cut,
    _validate_eps_tail,
    build_boson_state,
    build_fermion_state,
)

# Largest sweep grid, checked before numpy spaces it; MAX_ROW_LEVELS bounds the work.
MAX_SWEEP_POINTS = 20_000
# Most boson levels, summed over its modes, that one entropy or sweep command builds.
MAX_ROW_LEVELS = 1_000_000_000
# Reports per write of a JSON sweep: one batch's text is ~40 KB.
_JSON_BATCH = 64
# Entries per write of a state or spectrum array: one chunk's text and
# temporaries come to ~2 MB.
_DOC_CHUNK = 16_384


def _output(args: argparse.Namespace) -> contextlib.AbstractContextManager:
    """The handle every command writes to: the --output file, or stdout left open."""
    if args.output:
        return open(args.output, "w", newline="")
    return contextlib.nullcontext(sys.stdout)


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


def _require_levels(
    args: argparse.Namespace, params: BlackHoleParams, omegas: list[float]
) -> None:
    """Exit 2, before any mode is represented, on a bad eps_tail or over MAX_ROW_LEVELS.

    Each mode that squeezing_for admits counts its boson levels by the
    builder's own cut, states._boson_cut.
    """
    _validate_eps_tail(args.eps_tail)
    levels = 0
    if Statistics.BOSON in _stats_list(args.stats):
        for om in omegas:
            with contextlib.suppress(SqueezingOverflowError):
                sq = squeezing_for(params, ModeChannel(om, Statistics.BOSON))
                levels += _boson_cut(sq, args.eps_tail)[0]
    if levels > MAX_ROW_LEVELS:
        raise ValueError(
            f"the boson states need {levels} levels, over the limit of {MAX_ROW_LEVELS}"
        )


def _write_rows(
    args: argparse.Namespace, params: BlackHoleParams, omegas: list[float]
) -> int:
    """Sweep the grid, then write one row per report; exit 3 only if every row failed.

    A JSON document is json.dumps's indent-2 layout of the list of reports,
    written _JSON_BATCH reports' objects at a time: no whole text.
    """
    _require_levels(args, params, omegas)
    reports = sweep(
        params, omegas, statistics=_stats_list(args.stats), eps_tail=args.eps_tail
    )
    with _output(args) as fh:
        if args.format == "json":
            # A batch's document is "[\n" + its items + "\n]", each item at
            # the whole list's indent, so the batches' items, joined by ",\n",
            # make the whole document's.  A sweep holds at least one report.
            sep = "[\n"
            for start in range(0, len(reports), _JSON_BATCH):
                batch = [report_json_dict(r) for r in reports[start : start + _JSON_BATCH]]
                fh.write(sep + json.dumps(batch, indent=2)[2:-2])
                sep = ",\n"
            fh.write("\n]\n")
        else:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(CSV_HEADER)
            writer.writerows(map(report_csv_row, reports))
    return 3 if all(r.error is not None for r in reports) else 0


def cmd_entropy(args: argparse.Namespace) -> int:
    params = BlackHoleParams(mass=args.mass)
    return _write_rows(args, params, [_channel_omega(args)])


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
    space = np.geomspace if args.grid == "log" else np.linspace
    return _write_rows(
        args, params, space(args.omega_min, args.omega_max, args.points).tolist()
    )


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
    with _output(args) as fh:
        fh.write("\n".join(lines) + "\n")
    return 0


def _write_array(fh, key: str, n: int, render) -> None:
    """Write the array ``key`` of n entries as json.dumps lays it out in the document.

    ``render(start, stop)`` gives the text of those entries, one per line.
    The entries go _DOC_CHUNK at a time, and the chunks' lines, joined by
    ",\n", make the whole array's.
    """
    sep = f',\n  "{key}": [\n'
    for start in range(0, n, _DOC_CHUNK):
        fh.write(sep + "    " + ",\n    ".join(render(start, min(start + _DOC_CHUNK, n))))
        sep = ",\n"
    fh.write("\n  ]")


def cmd_reduced(args: argparse.Namespace) -> int:
    """Write json.dumps(doc, indent=2) + "\n" for the reduced state, with no whole text.

    The header and the tail go through json.dumps, without the braces that
    close or open them; the arrays go through _write_array.  A float's
    line is its repr, as in json.dumps; the diagonal is finite.
    """
    params = BlackHoleParams(mass=args.mass)
    channel = ModeChannel(omega=_channel_omega(args), statistics=Statistics(args.stats))
    _validate_eps_tail(args.eps_tail)
    sq = squeezing_for(params, channel)
    rho = _reduction(sq, args.eps_tail)
    tail = {"offdiag_norm": 0.0}
    if args.spectrum:
        tail["mean_occ"] = _json_number(mean_occupation(rho))
        tail["T_ratio"] = _json_number(temperature_ratio_fit(rho, sq.x))
    with _output(args) as fh:
        fh.write(json.dumps({"squeezing": sq.to_json_dict()}, indent=2)[:-2])
        if channel.statistics is Statistics.FERMION:
            # The pair labels nest as lists.
            fh.write(",\n" + json.dumps({"basis": rho.basis}, indent=2)[2:-2])
        else:
            _write_array(fh, "basis", rho.dim, lambda a, b: map(str, range(a, b)))
        _write_array(fh, "diag", rho.dim, lambda a, b: map(repr, rho.diag[a:b].tolist()))
        fh.write(",\n" + json.dumps(tail, indent=2)[2:] + "\n")
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
        help="ceiling on the truncated tail bound, from 1e-16 to 1e-6 (default %(default)g)",
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
