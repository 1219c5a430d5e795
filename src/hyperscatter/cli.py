"""Command-line front end emitting deterministic tables over the library.

Subcommands mirror the library surface: ``cfun`` (c-function value and
derivative), ``phi`` (spherical function and second-kind solution),
``kernel`` (continued resolvent kernel), ``resonances``, ``plancherel``
(spectral density weight), ``scattering`` (scalar scattering coefficient),
and ``verify`` (the numeric identity suites).

Output is a flat table, CSV by default or JSON carrying the same rows.
Complex quantities are split into ``*_re``/``*_im`` columns, floats are
printed with 17 significant digits, and rows follow the sorted sweep order,
so repeated runs with one config are byte-identical.  A row that trips a
library error (a pole, a domain violation) is still emitted, with ``nan``
payload and the error token in the ``status`` column.

Exit status: 0 clean, 1 any error row or failed check, 2 usage.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from functools import cache

from . import verify as verify_mod
from .cfunction import for_space
from .errors import PoleSignal
from .radial import eval_Q, eval_phi
from .resolvent import kernel
from .resonances import enumerate_resonances
from .scattering import scalar
from .space import space_from_name

_LIBRARY_ERRORS = (PoleSignal, ArithmeticError, ValueError, RuntimeError)


def _fmt(x):
    """17-significant-digit scientific notation; the one float format used."""
    return format(float(x), ".16e")


def _complex_pair(z):
    z = complex(z)
    return _fmt(z.real), _fmt(z.imag)


_NAN_PAIR = (_fmt(float("nan")), _fmt(float("nan")))


def _parse_complex(text):
    try:
        return complex(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"{text!r} is not a complex number (use e.g. 0.5 or 1.2+0.3j)")


def _sorted_complex(values):
    return sorted({complex(v) for v in values}, key=lambda z: (z.real, z.imag))


def _sorted_real(values):
    return sorted({float(v) for v in values})


# -- table builders, one per subcommand --------------------------------------
# Each returns (columns, rows, exit_code); every cell is already a string.

def _run_cfun(space, args):
    cf = for_space(space)
    cols = ["lambda_re", "lambda_im", "c_re", "c_im", "dc_re", "dc_im", "status"]
    rows, code = [], 0
    for lam in _sorted_complex(args.lam):
        try:
            val = _complex_pair(cf.value(lam)) + _complex_pair(cf.derivative(lam))
            status = "ok"
        except _LIBRARY_ERRORS as exc:
            val, status, code = _NAN_PAIR + _NAN_PAIR, type(exc).__name__, 1
        rows.append(list(_complex_pair(lam)) + list(val) + [status])
    return cols, rows, code


def _run_phi(space, args):
    cols = ["lambda_re", "lambda_im", "t",
            "phi_re", "phi_im", "q_re", "q_im", "status"]
    rows, code = [], 0
    for lam in _sorted_complex(args.lam):
        for t in _sorted_real(args.t):
            try:
                val = (_complex_pair(eval_phi(space, lam, t))
                       + _complex_pair(eval_Q(space, lam, t)))
                status = "ok"
            except _LIBRARY_ERRORS as exc:
                val, status, code = _NAN_PAIR + _NAN_PAIR, type(exc).__name__, 1
            rows.append(list(_complex_pair(lam)) + [_fmt(t)] + list(val) + [status])
    return cols, rows, code


def _run_kernel(space, args):
    cols = ["zeta_re", "zeta_im", "t", "k_re", "k_im", "status"]
    rows, code = [], 0
    for zeta in _sorted_complex(args.zeta):
        for t in _sorted_real(args.t):
            try:
                val, status = _complex_pair(kernel(space, zeta, t)), "ok"
            except _LIBRARY_ERRORS as exc:
                val, status, code = _NAN_PAIR, type(exc).__name__, 1
            rows.append(list(_complex_pair(zeta)) + [_fmt(t)] + list(val) + [status])
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
        rows.append([str(rec.k)] + list(_complex_pair(rec.zeta))
                    + list(_complex_pair(rec.residue_scalar)) + [mult])
    return cols, rows, 0


def _run_plancherel(space, args):
    cf = for_space(space)
    cols = ["zeta", "density", "status"]
    rows, code = [], 0
    for zeta in _sorted_real(args.zeta):
        try:
            val, status = _fmt(cf.plancherel_density(zeta)), "ok"
        except _LIBRARY_ERRORS as exc:
            val, status, code = _fmt(float("nan")), type(exc).__name__, 1
        rows.append([_fmt(zeta), val, status])
    return cols, rows, code


def _run_scattering(space, args):
    cols = ["zeta_re", "zeta_im", "s_re", "s_im", "status"]
    rows, code = [], 0
    for zeta in _sorted_complex(args.zeta):
        try:
            val, status = _complex_pair(scalar(space, zeta)), "ok"
        except _LIBRARY_ERRORS as exc:
            val, status, code = _NAN_PAIR, type(exc).__name__, 1
        rows.append(list(_complex_pair(zeta)) + list(val) + [status])
    return cols, rows, code


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

@cache
def build_parser():
    parser = argparse.ArgumentParser(
        prog="hyperscatter",
        description="Deterministic tables for rank-one scattering data.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--space", default="h2", metavar="NAME",
                        help="family id: h2, h3, hn:<n>, chn:<n>, hhn:<n>, oh2")
    common.add_argument("--format", choices=("csv", "json"), default="csv",
                        help="output format (default csv)")
    common.add_argument("--out", metavar="PATH",
                        help="write the table to PATH instead of stdout")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("cfun", parents=[common],
                       help="c-function value and derivative on a lambda grid")
    p.add_argument("--lambda", dest="lam", type=_parse_complex, nargs="+",
                   required=True, metavar="LAM",
                   help="lambda values, e.g. 0.5 1.2+0.3j")
    p.set_defaults(run=_run_cfun)

    p = sub.add_parser("phi", parents=[common],
                       help="spherical function and second-kind solution")
    p.add_argument("--lambda", dest="lam", type=_parse_complex, nargs="+",
                   required=True, metavar="LAM")
    p.add_argument("--t", type=float, nargs="+", default=(0.5, 1.0, 2.0, 5.0),
                   help="radii (default 0.5 1 2 5)")
    p.set_defaults(run=_run_phi)

    p = sub.add_parser("kernel", parents=[common],
                       help="continued resolvent kernel at separation t")
    p.add_argument("--zeta", type=_parse_complex, nargs="+", required=True,
                   metavar="ZETA")
    p.add_argument("--t", type=float, nargs="+", default=(0.5, 1.0, 2.0, 5.0))
    p.set_defaults(run=_run_kernel)

    p = sub.add_parser("resonances", parents=[common],
                       help="czz zeros on the positive imaginary axis + residues")
    p.add_argument("--count", type=int, default=5,
                   help="resonances to enumerate (default 5)")
    p.set_defaults(run=_run_resonances)

    p = sub.add_parser("plancherel", parents=[common],
                       help="spectral density weight 1/|c(i zeta)|^2, zeta > 0")
    p.add_argument("--zeta", type=float, nargs="+", required=True)
    p.set_defaults(run=_run_plancherel)

    p = sub.add_parser("scattering", parents=[common],
                       help="scalar scattering coefficient c(-i zeta)/c(i zeta)")
    p.add_argument("--zeta", type=_parse_complex, nargs="+", required=True)
    p.set_defaults(run=_run_scattering)

    p = sub.add_parser("verify", parents=[common],
                       help="run numeric identity suites; nonzero exit on failure")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--all", action="store_true",
                       help="every suite in order")
    group.add_argument("--suite", choices=sorted(verify_mod.SUITES),
                       help="one named suite")
    # verify sweeps all five families unless --space narrows it; suites that
    # are pinned to a specific family by their oracle ignore the narrowing.
    p.set_defaults(run=_run_verify, space=None)
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


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
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
