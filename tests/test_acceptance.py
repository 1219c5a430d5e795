"""Acceptance gate: the eleven end-to-end criteria, one test and one printed
pass/fail line each.

Each criterion delegates to the corresponding verification suite, so the
command-line ``verify`` subcommand and this file certify the same rows at
the same tolerances.  Run with ``pytest -s tests/test_acceptance.py`` to see
the per-criterion lines alongside the verdicts.
"""

from functools import lru_cache

from hyperscatter import verify


@lru_cache(maxsize=None)
def _suite(name):
    return verify.run_suite(name)


def _report(tag, label, rows):
    failed = [row for row in rows if not row.passed]
    verdict = "PASS" if not failed else "FAIL"
    print(f"{tag} {label}: {verdict} ({len(rows)} checks, {len(failed)} failed)")
    assert not failed, (
        f"{tag}: {len(failed)} of {len(rows)} checks failed: "
        + "; ".join(f"{row.name} measured {row.measured:.3e} "
                    f"tol {row.tolerance:.1e}" for row in failed[:6])
    )
    return rows


def test_criterion_01_connection_identity():
    rows = _report("criterion 01", "connection identity, 5 families x 25 lambda",
                   _suite("connection"))
    assert len(rows) == 125


def test_criterion_02_wronskian_limit():
    rows = _report("criterion 02", "wronskian limit equals -2 lambda c(lambda)",
                   _suite("wronskian"))
    assert len(rows) == 125


def test_criterion_03_h3_closed_form_oracles():
    rows = _report("criterion 03", "closed-form oracles on the (2,0) space",
                   _suite("h3-oracles"))
    assert len(rows) == 9


def test_criterion_04_resonance_ladders():
    _report("criterion 04", "resonance ladders: 10 + empty + 5",
            _suite("resonances"))


def test_criterion_05_boundary_quadrature():
    rows = _report("criterion 05",
                   "kernel-difference vs boundary quadrature, 10 draws",
                   _suite("quadrature"))
    assert len(rows) == 10


def test_criterion_06_fatou_boundary_values():
    _report("criterion 06", "boundary values of Poisson modes, two routes",
            _suite("fatou"))


def test_criterion_07_scattering_inversion_unitarity():
    rows = [row for row in _suite("scattering")
            if not row.name.startswith("h2 ktype")]
    _report("criterion 07", "scattering inversion / unitarity / (2,0) constant",
            rows)


def test_criterion_08_ktype_consistency():
    rows = [row for row in _suite("scattering")
            if row.name.startswith("h2 ktype")]
    _report("criterion 08", "K-type eigenvalue matches scalar at n = 0", rows)
    assert len(rows) == 3


def test_criterion_09_contour_residues():
    rows = [row for row in _suite("residues")
            if row.name.startswith(("contour", "second moment"))]
    _report("criterion 09", "contour residues match closed form, simple poles",
            rows)
    assert len(rows) == 4


def test_criterion_10_residue_ranks():
    rows = [row for row in _suite("residues") if row.name.startswith("rank")]
    _report("criterion 10", "residue ranks 1, 3, 5 with wide SVD gaps", rows)
    assert len(rows) == 6


def test_criterion_11_pole_classification():
    _report("criterion 11", "scalar poles on the axis segment fully classified",
            _suite("poles"))


def test_residue_relation_supplement():
    # ties the scattering residue to the resolvent residue through the
    # boundary-value map; exercised by `verify --all` alongside the criteria
    _report("supplement  ", "scattering vs resolvent residue relation",
            _suite("residue-relation"))


def test_jacobi_supplement():
    # the series routes of eval_phi and eval_Q against the integrated phi
    # and Q on every family; exercised by `verify --all` alongside the
    # criteria
    rows = _report("supplement  ", "phi's and Q's Jacobi series vs the radial ODE",
                   _suite("jacobi"))
    assert len(rows) == 10
