"""Command-line front end: table shape, formats, determinism, exit codes."""

import csv
import io
import itertools
import json
import math
import warnings

import pytest

from hyperscatter import cli
from hyperscatter.cfunction import CFunction, for_space
from hyperscatter.cli import main
from hyperscatter.errors import EnumerationError
from hyperscatter.radial import eval_phi, eval_Q
from hyperscatter.resolvent import kernel
from hyperscatter.scattering import scalar
from hyperscatter.space import space_from_name


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def _parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


def test_cfun_normalization_row(capsys):
    code, out = _run(capsys, ["cfun", "--space", "h2", "--lambda", "0.5"])
    assert code == 0
    header, rows = _parse_csv(out)
    assert header[:4] == ["lambda_re", "lambda_im", "c_re", "c_im"]
    assert len(rows) == 1
    assert float(rows[0][2]) == pytest.approx(1.0, abs=1e-12)
    assert float(rows[0][3]) == pytest.approx(0.0, abs=1e-12)
    assert rows[0][-1] == "ok"


def test_rows_sorted_regardless_of_argument_order(capsys):
    code, out = _run(capsys, ["cfun", "--space", "h3",
                              "--lambda", "2.0", "0.5", "1.0"])
    assert code == 0
    _, rows = _parse_csv(out)
    res = [float(r[0]) for r in rows]
    assert res == sorted(res)


def test_nan_rows_come_last_and_once(capsys):
    # nan compares false with everything: the rows still follow one total
    # order, with every nan of an axis in one row after the numbers
    values = ["0.5", "nan", "1.0", "nan", "2.0", "0.7"]
    outs = set()
    for order in itertools.permutations(values):
        code, out = _run(capsys, ["cfun", "--space", "h2", "--lambda", *order])
        assert code == 1
        outs.add(out)
    assert len(outs) == 1
    _, rows = _parse_csv(outs.pop())
    assert [row[0] for row in rows] == [cli._fmt(x) for x in (0.5, 0.7, 1.0, 2.0, math.nan)]
    assert rows[-1][-1] == "NonFiniteInputError"


def _cells(x):
    """A point or value as the table prints it: a complex one as two cells."""
    if isinstance(x, complex):
        return [format(x.real, ".16e"), format(x.imag, ".16e")]
    return [format(x, ".16e")]


H2 = space_from_name("h2")

# per grid subcommand: its arguments, header, points in row order and the
# library call; one point of each is an error row
_GRIDS = [
    (["cfun", "--space", "chn:2", "--lambda", "1.3+0.4j", "0", "0.7"],
     ["lambda_re", "lambda_im", "c_re", "c_im", "dc_re", "dc_im", "status"],
     [(0j,), (0.7 + 0j,), (1.3 + 0.4j,)],
     lambda space, lam: (complex(for_space(space).value(lam)),
                         complex(for_space(space).derivative(lam)))),
    (["phi", "--space", "h2", "--lambda", "0.9+0.2j", "3.0", "--t", "300", "0.5"],
     ["lambda_re", "lambda_im", "t", "phi_re", "phi_im", "q_re", "q_im", "status"],
     [(0.9 + 0.2j, 0.5), (0.9 + 0.2j, 300.0), (3 + 0j, 0.5), (3 + 0j, 300.0)],
     lambda space, lam, t: (eval_phi(space, lam, t), eval_Q(space, lam, t))),
    (["kernel", "--space", "h2", "--zeta", "1.1", "-0.3-0.2j", "0.5j", "--t", "0.8"],
     ["zeta_re", "zeta_im", "t", "k_re", "k_im", "status"],
     [(-0.3 - 0.2j, 0.8), (0.5j, 0.8), (1.1 + 0j, 0.8)],
     lambda space, zeta, t: (kernel(space, zeta, t),)),
    (["plancherel", "--space", "h3", "--zeta", "2.0", "0.5", "-1.0"],
     ["zeta", "density", "status"],
     [(-1.0,), (0.5,), (2.0,)],
     lambda space, zeta: (for_space(space).plancherel_density(zeta),)),
    (["scattering", "--space", "oh2", "--zeta", "0.7", "-1.3+0.1j", "nan"],
     ["zeta_re", "zeta_im", "s_re", "s_im", "status"],
     [(-1.3 + 0.1j,), (0.7 + 0j,), (complex("nan"),)],
     lambda space, zeta: (complex(scalar(space, zeta)),)),
]


@pytest.mark.parametrize("argv, header, points, call", _GRIDS, ids=[g[0][0] for g in _GRIDS])
def test_grid_cells_match_the_library(capsys, argv, header, points, call):
    code, out = _run(capsys, argv)
    space = space_from_name(argv[2])
    expected = []
    for point in points:
        cells = [c for x in point for c in _cells(x)]
        try:
            values = call(space, *point)
        except (ArithmeticError, ValueError) as exc:
            cells += ["nan"] * (len(header) - 1 - len(cells)) + [type(exc).__name__]
        else:
            cells += [c for x in values for c in _cells(x)] + ["ok"]
        expected.append(cells)
    assert _parse_csv(out) == (header, expected)
    assert sum(row[-1] != "ok" for row in expected) == 1
    assert code == 1


@pytest.mark.parametrize("argv, point", [
    (["kernel", "--space", "h2", "--zeta", "-0.3-0.2j", "--t", "1"],
     lambda: [complex("-0.3-0.2j"), 1.0, kernel(H2, complex("-0.3-0.2j"), 1.0)]),
    (["scattering", "--zeta", "-0.5j"],
     lambda: [complex("-0.5j"), complex(scalar(H2, complex("-0.5j")))]),
    (["cfun", "--lambda", "-1+0.2j"],
     lambda: [-1 + 0.2j, complex(for_space(H2).value(-1 + 0.2j)),
              complex(for_space(H2).derivative(-1 + 0.2j))]),
    (["cfun", "--lambda", "-2.5e-1"],
     lambda: [-0.25 + 0j, complex(for_space(H2).value(-0.25)),
              complex(for_space(H2).derivative(-0.25))]),
], ids=["kernel", "scattering", "cfun", "cfun-exponent"])
def test_values_with_a_leading_minus(capsys, argv, point):
    # argparse reads such a token as an option unless it is a plain decimal;
    # the lower half-plane of zeta must be reachable as written
    code, out = _run(capsys, argv)
    assert code == 0
    _, rows = _parse_csv(out)
    assert rows == [[c for x in point() for c in _cells(x)] + ["ok"]]


def test_byte_identical_reruns(tmp_path):
    argv = ["phi", "--space", "chn:2", "--lambda", "0.9", "--t", "0.5", "2.0"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert len(a.read_bytes()) > 0


def test_json_mirrors_csv_rows(capsys):
    argv = ["resonances", "--space", "h2", "--count", "2"]
    code_c, out_c = _run(capsys, argv)
    code_j, out_j = _run(capsys, argv + ["--format", "json"])
    assert code_c == 0 and code_j == 0
    header, rows = _parse_csv(out_c)
    doc = json.loads(out_j)
    assert doc["columns"] == header
    assert doc["rows"] == rows
    assert doc["command"] == "resonances"
    assert doc["space"] == "h2"


def test_empty_resonance_table_exits_clean(capsys):
    code, out = _run(capsys, ["resonances", "--space", "h3", "--count", "5"])
    assert code == 0
    header, rows = _parse_csv(out)
    assert rows == []
    assert header[0] == "k"


def test_failed_enumeration_prints_header_and_error(capsys, monkeypatch):
    # a certification failure of the enumeration, as the zero certificate
    # raises it, stands in for any library error on this path
    def refuse(space, count):
        raise EnumerationError("zero certification failed at zeta = 53j")

    monkeypatch.setattr(cli, "enumerate_resonances", refuse)
    code = main(["resonances", "--space", "oh2", "--count", "22"])
    captured = capsys.readouterr()
    assert code == 1
    header, rows = _parse_csv(captured.out)
    assert header[0] == "k" and rows == []
    assert captured.err == ("hyperscatter: EnumerationError: "
                            "zero certification failed at zeta = 53j\n")


def test_default_space(capsys):
    # --space defaults to h2, except for verify, which sweeps every family
    _, out = _run(capsys, ["cfun", "--lambda", "0.5", "--format", "json"])
    assert json.loads(out)["space"] == "h2"
    assert json.loads(out)["rows"][0][2] == cli._fmt(1.0)
    code, out = _run(capsys, ["verify", "--suite", "h3-oracles", "--format", "json"])
    assert code == 0 and json.loads(out)["space"] == "all"


def test_unknown_space_is_usage_error(capsys):
    with pytest.raises(SystemExit) as info:
        main(["cfun", "--space", "h0", "--lambda", "1.0"])
    assert info.value.code == 2
    capsys.readouterr()
    # a multiplicity past the float range is refused when the space is
    # built: cfun printed an OverflowError row, verify died with a traceback
    huge = f"hn:{10**400}"
    for argv in (["cfun", "--space", huge, "--lambda", "0.7"],
                 ["verify", "--space", huge, "--suite", "connection"]):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        assert "floating-point range" in capsys.readouterr().err


def test_a_resonance_count_past_the_lattice_limit_is_an_error(capsys, monkeypatch):
    # resonances --count 10**400 made 10**400 seeds and exhausted memory;
    # now the header-only table is printed and the refusal named on stderr
    def refuse(self, count):
        raise AssertionError("a seed was made")

    monkeypatch.setattr(CFunction, "czz_zeros_upper", refuse)
    code = main(["resonances", "--space", "h2", "--count", str(10**400)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == "k,zeta_re,zeta_im,residue_scalar_re,residue_scalar_im,multiplicity\n"
    assert captured.err.startswith("hyperscatter: OutOfRangeError: ")


def test_bad_complex_is_usage_error(capsys):
    with pytest.raises(SystemExit) as info:
        main(["cfun", "--space", "h2", "--lambda", "walnut"])
    assert info.value.code == 2
    capsys.readouterr()


def test_missing_command_is_usage_error(capsys):
    with pytest.raises(SystemExit) as info:
        main([])
    assert info.value.code == 2
    capsys.readouterr()


def test_module_error_becomes_error_row(capsys):
    # first resonance of the disk model is a pole of the scalar
    code, out = _run(capsys, ["scattering", "--space", "h2",
                              "--zeta", "0.5j", "1.0"])
    assert code == 1
    _, rows = _parse_csv(out)
    by_status = {row[-1] for row in rows}
    assert "PoleSignal" in by_status
    assert "ok" in by_status
    pole_row = next(row for row in rows if row[-1] == "PoleSignal")
    assert pole_row[2] == "nan"


@pytest.mark.parametrize("argv", [
    ["cfun", "--space", "chn:1000", "--lambda", "0.7"],
    ["kernel", "--space", "hn:1000", "--zeta", "0.7", "--t", "1"],
    ["phi", "--space", "hn:1000", "--lambda", "0.7", "--t", "1"],
    ["phi", "--space", "hn:100", "--lambda", "0.7+0.3j", "--t", "1e-4"],
    ["kernel", "--space", "hn:100", "--zeta", "-0.7j", "--t", "1e-4"],
])
def test_large_multiplicity_rows_report_out_of_range(capsys, argv):
    # the kernel row read "nan,nan,ok" with exit 0, from a Frobenius series
    # of nan terms; the cfun row was a raw OverflowError; on hn:100 the
    # backward ODE bridge of Q past the float range read inf or nan
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out = _run(capsys, argv)
    assert code == 1
    _, rows = _parse_csv(out)
    assert [row[-1] for row in rows] == ["OutOfRangeError"]


def test_cancelling_phi_row_reports_ill_conditioned(capsys):
    # on hn:66 phi past t = 1.5 is a c Q sum whose terms cancel by 2.9e11
    # at lambda = 0.7, t = 1.6: the row read a value 4.5e-4 off, status ok
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out = _run(capsys, ["phi", "--space", "hn:66", "--lambda", "0.7", "--t", "1.6"])
    assert code == 1
    _, rows = _parse_csv(out)
    assert [row[-1] for row in rows] == ["IllConditionedError"]


def test_plancherel_domain_error_row(capsys):
    code, out = _run(capsys, ["plancherel", "--space", "h3",
                              "--zeta", "-1.0", "2.0"])
    assert code == 1
    _, rows = _parse_csv(out)
    assert rows[0][-1] == "ValueError"
    assert float(rows[1][1]) == pytest.approx(4.0, rel=1e-10)


def test_kernel_values_match_library(capsys):
    from hyperscatter.resolvent import kernel
    from hyperscatter.space import space_from_name

    code, out = _run(capsys, ["kernel", "--space", "h3",
                              "--zeta", "1.2", "--t", "0.8"])
    assert code == 0
    _, rows = _parse_csv(out)
    expect = kernel(space_from_name("h3"), 1.2, 0.8)
    assert float(rows[0][3]) == pytest.approx(expect.real, rel=1e-15)
    assert float(rows[0][4]) == pytest.approx(expect.imag, rel=1e-15)


def test_verify_single_suite(capsys):
    code, out = _run(capsys, ["verify", "--suite", "h3-oracles"])
    assert code == 0
    header, rows = _parse_csv(out)
    assert header == ["suite", "name", "measured", "tolerance", "status"]
    assert rows and all(row[-1] == "pass" for row in rows)


def test_verify_space_restriction(capsys):
    code, out = _run(capsys, ["verify", "--suite", "wronskian",
                              "--space", "h3"])
    assert code == 0
    _, rows = _parse_csv(out)
    assert len(rows) == 25
    assert all(row[1].startswith("h3 ") for row in rows)


def test_verify_requires_a_selection(capsys):
    with pytest.raises(SystemExit) as info:
        main(["verify"])
    assert info.value.code == 2
    capsys.readouterr()
