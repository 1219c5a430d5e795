"""Command-line front end emitting deterministic tables over the library.

Subcommands mirror the library surface: ``cfun`` (c-function value and
derivative), ``phi`` (spherical function and second-kind solution),
``kernel`` (continued resolvent kernel), ``resonances``, ``plancherel``
(spectral density weight), ``scattering`` (scalar scattering coefficient),
and ``verify`` (the numeric identity suites).  The five point grids among
them are one table, ``_GRIDS``: input axes, outputs and library call.

Output is a flat table, CSV by default or JSON carrying the same rows.
Complex quantities are split into ``*_re``/``*_im`` columns, floats are
printed with 17 significant digits, and rows follow the sorted sweep order
(nan last, one row for all nans of an axis), so repeated runs with one
config are byte-identical.  A number with a leading minus, such as
``--zeta -0.3-0.2j``, is a value, not an option.  A row that trips a
library error (a pole, a domain violation) is still emitted, with ``nan``
payload and the error token in the ``status`` column.

Exit status: 0 clean, 1 any error row or failed check, 2 usage.
"""

from __future__ import annotations

import argparse
import csv
import io
import itertools
import json
import math
import re
import sys
from functools import cache, partial

from . import verify as verify_mod
from .cfunction import for_space
from .radial import eval_Q, eval_phi
from .resolvent import kernel
from .resonances import enumerate_resonances
from .scattering import scalar
from .space import space_from_name

_LIBRARY_ERRORS = (ArithmeticError, ValueError, RuntimeError)  # PoleSignal is an ArithmeticError


def _fmt(x):
    """17-significant-digit scientific notation; the one float format used."""
    return format(float(x), ".16e")


def _cells(x, kind):
    """x's cells in a column of kind complex (real, imaginary part) or float
    (real part), so that complex nan fills an error row's columns of both."""
    return [_fmt(x.real), _fmt(x.imag)] if kind is complex else [_fmt(x.real)]


def _columns(name, kind):
    return [name + "_re", name + "_im"] if kind is complex else [name]


def _sorted_axis(values):
    """The distinct values by real, then imaginary part, a nan part after
    every number: a total order, in which all nans are one value."""
    distinct = {}
    for v in values:
        key = tuple((math.isnan(p), 0.0 if math.isnan(p) else p) for p in (v.real, v.imag))
        distinct.setdefault(key, v)
    return [distinct[key] for key in sorted(distinct)]


# -- the point grids ----------------------------------------------------------
# Per subcommand: its help, its input axes (flag, column, kind, further
# add_argument options), its outputs (column, kind) and the library call
# mapping (space, *point) to the outputs.  A complex column is split into
# _re and _im cells.

_T_AXIS = ("--t", "t", float, {"default": (0.5, 1.0, 2.0, 5.0),
                               "help": "radii (default 0.5 1 2 5)"})

_GRIDS = {
    "cfun": ("c-function value and derivative on a lambda grid",
             [("--lambda", "lambda", complex,
               {"metavar": "LAM", "help": "lambda values, e.g. 0.5 1.2+0.3j"})],
             [("c", complex), ("dc", complex)],
             lambda space, lam: (for_space(space).value(lam),
                                 for_space(space).derivative(lam))),
    "phi": ("spherical function and second-kind solution",
            [("--lambda", "lambda", complex, {"metavar": "LAM"}), _T_AXIS],
            [("phi", complex), ("q", complex)],
            lambda space, lam, t: (eval_phi(space, lam, t), eval_Q(space, lam, t))),
    "kernel": ("continued resolvent kernel at separation t",
               [("--zeta", "zeta", complex, {}), _T_AXIS],
               [("k", complex)],
               lambda space, zeta, t: (kernel(space, zeta, t),)),
    "plancherel": ("spectral density weight 1/|c(i zeta)|^2, zeta > 0",
                   [("--zeta", "zeta", float, {})],
                   [("density", float)],
                   lambda space, zeta: (for_space(space).plancherel_density(zeta),)),
    "scattering": ("scalar scattering coefficient c(-i zeta)/c(i zeta)",
                   [("--zeta", "zeta", complex, {})],
                   [("s", complex)],
                   lambda space, zeta: (scalar(space, zeta),)),
}


# -- table builders -----------------------------------------------------------
# Each returns (columns, rows, exit_code); every cell is already a string.

def _run_grid(axes, outputs, call, space, args):
    fields = [(column, kind) for _, column, kind, _ in axes] + outputs
    cols = [c for field in fields for c in _columns(*field)] + ["status"]
    rows, code = [], 0
    for point in itertools.product(*(_sorted_axis(getattr(args, column))
                                     for _, column, _, _ in axes)):
        try:
            values, status = call(space, *point), "ok"
        except _LIBRARY_ERRORS as exc:
            values = [complex(math.nan, math.nan)] * len(outputs)
            status, code = type(exc).__name__, 1
        rows.append([c for x, (_, kind) in zip([*point, *values], fields)
                     for c in _cells(x, kind)] + [status])
    return cols, rows, code


def _run_resonances(space, args):
    cols = ["k", "zeta_re", "zeta_im",
            "residue_scalar_re", "residue_scalar_im", "multiplicity"]
    try:
        records = enumerate_resonances(space, args.count)
    except _LIBRARY_ERRORS as exc:
        # the table is all-or-nothing: report why, keep only the header
        sys.stderr.write(f"hyperscatter: {type(exc).__name__}: {exc}\n")
        return cols, [], 1
    rows = []
    for rec in records:
        mult = "" if rec.multiplicity_estimate is None else str(rec.multiplicity_estimate)
        rows.append([str(rec.k)] + _cells(rec.zeta, complex)
                    + _cells(rec.residue_scalar, complex) + [mult])
    return cols, rows, 0


def _run_verify(space, args):
    spaces = None if args.space is None else [(args.space, space)]
    if args.all:
        checks = verify_mod.run_all(spaces=spaces)
    else:
        checks = verify_mod.run_suite(args.suite, spaces=spaces)
    cols = ["suite", "name", "measured", "tolerance", "status"]
    rows = [[row.suite, row.name, _fmt(row.measured), _fmt(row.tolerance),
             "pass" if row.passed else "fail"] for row in checks]
    code = 0 if all(row.passed for row in checks) else 1
    return cols, rows, code


# -- argument parsing ---------------------------------------------------------

def _common(space):
    """Every subcommand's options, --space defaulting to ``space``: children
    share a parent's actions, so each default needs a parent of its own."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--space", default=space, metavar="NAME",
                        help="family id: h2, h3, hn:<n>, chn:<n>, hhn:<n>, oh2")
    common.add_argument("--format", choices=("csv", "json"), default="csv",
                        help="output format (default csv)")
    common.add_argument("--out", metavar="PATH",
                        help="write the table to PATH instead of stdout")
    return common


def _add_grid(sub, common, name):
    text, axes, outputs, call = _GRIDS[name]
    p = sub.add_parser(name, parents=[common], help=text)
    for flag, column, kind, options in axes:
        p.add_argument(flag, dest=column, type=kind, nargs="+",
                       required="default" not in options, **options)
    p.set_defaults(run=partial(_run_grid, axes, outputs, call))


@cache
def build_parser():
    parser = argparse.ArgumentParser(
        prog="hyperscatter",
        description="Deterministic tables for rank-one scattering data.")
    common = _common("h2")
    sub = parser.add_subparsers(dest="command", required=True)

    # the help lists the subcommands in the order of the library surface
    for name in ("cfun", "phi", "kernel"):
        _add_grid(sub, common, name)

    p = sub.add_parser("resonances", parents=[common],
                       help="czz zeros on the positive imaginary axis + residues")
    p.add_argument("--count", type=int, default=5,
                   help="resonances to enumerate (default 5)")
    p.set_defaults(run=_run_resonances)

    for name in ("plancherel", "scattering"):
        _add_grid(sub, common, name)

    # verify sweeps all five families unless --space narrows it; suites that
    # are pinned to a specific family by their oracle ignore the narrowing.
    p = sub.add_parser("verify", parents=[_common(None)],
                       help="run numeric identity suites; nonzero exit on failure")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--all", action="store_true",
                       help="every suite in order")
    group.add_argument("--suite", choices=sorted(verify_mod.SUITES),
                       help="one named suite")
    p.set_defaults(run=_run_verify)
    return parser


def _render(columns, rows, fmt, command, space_name):
    if fmt == "json":
        doc = {"command": command, "space": space_name,
               "columns": columns, "rows": rows}
        return json.dumps(doc, indent=2) + "\n"
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows(rows)
    return buf.getvalue()


def _as_value(token):
    """A number that argparse would take for an option, given a leading
    space: a token that starts with '-' and is no plain decimal."""
    if not token.startswith("-") or re.fullmatch(r"-\d+|-\d*\.\d+", token):
        return token
    try:
        complex(token)
    except ValueError:
        return token
    return " " + token


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args([_as_value(token) for token in
                              (sys.argv[1:] if argv is None else argv)])
    space = None
    if args.space is not None:
        try:
            space = space_from_name(args.space)
        except ValueError as exc:
            parser.error(str(exc))  # exits 2
    if args.command == "resonances" and args.count < 0:
        parser.error("--count must be nonnegative")
    columns, rows, code = args.run(space, args)
    text = _render(columns, rows, args.format, args.command,
                   args.space if args.space is not None else "all")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
