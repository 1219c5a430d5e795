"""Scalar scattering coefficient: inversion, unitarity, pole taxonomy,
K-type eigenvalues, residue relation against the resolvent."""

import cmath
import math
import warnings

import pytest

from hyperscatter.boundary import boundary_pair
from hyperscatter.cfunction import CFunction, for_space
from hyperscatter.errors import NonFiniteInputError, PoleSignal, ResonantExponentError
from hyperscatter.model_h2 import ktype_space
from hyperscatter.radial import _phi_view
from hyperscatter.resonances import enumerate_resonances
from hyperscatter.scattering import (
    KIND_INTERTWINER,
    KIND_RESONANCE,
    ScatteringPole,
    classify_poles,
    find_scalar_poles,
    ktype_eigenvalue,
    residue_relation_check,
    scalar,
)
from hyperscatter.space import space_from_name

H2 = space_from_name("h2")
H3 = space_from_name("h3")


def test_inversion_and_unitarity():
    for name in ("h2", "h3", "oh2"):
        space = space_from_name(name)
        for zeta in (0.7, -1.3 + 0.4j, 2.1 - 0.9j):
            assert abs(scalar(space, zeta) * scalar(space, -zeta) - 1.0) < 1e-12
        for zeta in (0.5, 1.0, 3.0):
            assert abs(abs(scalar(space, zeta)) - 1.0) < 1e-12, name


def test_h3_scalar_is_minus_one():
    for zeta in (0.5, 1.0, 3.0, 0.8 + 0.3j, -2.2 + 0.1j):
        assert abs(scalar(H3, zeta) + 1.0) < 1e-12


def test_scalar_is_c_ratio():
    cf = for_space(H2)
    zeta = 1.1 - 0.4j
    expect = cf.value(-1j * zeta) / cf.value(1j * zeta)
    assert abs(scalar(H2, zeta) - expect) < 1e-14


def test_origin_rejected():
    with pytest.raises(ValueError):
        scalar(H2, 0.0)


def test_resonance_pole_carries_residue():
    cf = for_space(H2)
    with pytest.raises(PoleSignal) as info:
        scalar(H2, 0.5j)
    expect = -1j * cf.value(-1j * 0.5j) / cf.derivative(1j * 0.5j)
    assert abs(info.value.residue - expect) < 1e-12


def test_zero_of_scalar_at_c_pole():
    # c(i zeta) has a pole at zeta = i m, so s vanishes there
    assert scalar(H2, 1j) == 0j
    assert scalar(H2, 2j) == 0j


def test_intertwiner_pole_in_lower_half_plane():
    with pytest.raises(PoleSignal):
        scalar(H2, -1j)


def test_ktype_eigenvalue_n0_matches_scalar_and_inverts():
    for zeta in (0.8, 1.2, 0.9 + 0.2j):
        sv = scalar(H2, zeta)
        assert abs(ktype_eigenvalue(zeta, 0) - sv) / abs(sv) < 1e-8
    z = 1.3
    prod = ktype_eigenvalue(z, 2) * ktype_eigenvalue(-z, 2)
    assert abs(prod - 1.0) < 1e-8


@pytest.mark.parametrize("n", range(5))
def test_ktype_eigenvalue_is_the_shifted_scalar(n):
    # the Jacobi series of the shifted space matched against its Frobenius
    # Q, against the closed-form c of the same space
    space = ktype_space(n)
    for zeta in (0.8, 1.2, 0.9 + 0.2j, -1.3 + 0.4j):
        sv = scalar(space, zeta)
        assert abs(ktype_eigenvalue(zeta, n) - sv) / abs(sv) < 1e-10, zeta


@pytest.mark.parametrize("zeta", [math.nan, math.inf, complex(0.8, math.nan)])
def test_ktype_eigenvalue_refuses_non_finite_zeta(zeta):
    with pytest.raises(NonFiniteInputError):
        ktype_eigenvalue(zeta, 1)


def test_ktype_eigenvalue_refuses_non_integral_n():
    with pytest.raises(ValueError):
        ktype_eigenvalue(0.8, 1.5)


def test_ktype_eigenvalue_guards_resonant_exponents():
    with pytest.raises(ResonantExponentError):
        ktype_eigenvalue(0.5j, 1)  # lambda = 1/2, connection solver excluded


def test_classification_h2():
    poles = classify_poles(H2, 8)
    upper = sorted(p.zeta.imag for p in poles if p.kind == KIND_RESONANCE)
    assert upper == pytest.approx([0.5 + k for k in range(8)], abs=1e-10)
    lower = sorted(p.zeta.imag for p in poles if p.kind == KIND_INTERTWINER)
    assert lower == pytest.approx([-4.0, -3.0, -2.0, -1.0], abs=1e-12)


def test_classification_gamma_cancellations():
    # quaternionic small model: no intertwiner pole at -3i or -5i
    poles = classify_poles(space_from_name("hhn:2"), 12)
    lower = sorted(p.zeta.imag for p in poles if p.kind == KIND_INTERTWINER)
    assert lower == pytest.approx([-6.0, -4.0, -2.0, -1.0], abs=1e-12)
    # octonionic plane: -5i drops out, -6i survives
    poles = classify_poles(space_from_name("oh2"), 12)
    lower = sorted(p.zeta.imag for p in poles if p.kind == KIND_INTERTWINER)
    assert lower == pytest.approx([-6.0, -4.0, -3.0, -2.0, -1.0], abs=1e-12)
    # H3 has neither resonances nor intertwiner poles
    assert classify_poles(H3, 12) == []


def test_axis_scan_matches_classification():
    detected = find_scalar_poles(H2)
    upper = sorted(z.imag for z in detected if z.imag > 0)
    assert upper == pytest.approx([0.5, 1.5, 2.5, 3.5, 4.5], abs=1e-9)
    lower = sorted(z.imag for z in detected if z.imag < 0)
    assert lower == pytest.approx([-4.0, -3.0, -2.0, -1.0], abs=1e-9)
    assert all(abs(z) > 1e-9 for z in detected)


@pytest.mark.parametrize("name", ["h2", "hhn:2", "oh2"])
@pytest.mark.parametrize("grid", [{"step": 0.013},
                                  {"im_lo": -2.2, "im_hi": 4.3},
                                  {"im_lo": -2.2, "im_hi": 4.3, "step": 0.013}])
def test_axis_scan_off_its_default_grid(name, grid):
    # a step of 0.013 misses the half-integers, so every pole comes from a
    # sign change narrowed by the scan's array pass; an asymmetric window
    # reads c(-sigma) at nodes outside it
    space = space_from_name(name)
    lo, hi = grid.get("im_lo", -4.95), grid.get("im_hi", 4.95)
    want = sorted(p.zeta.imag for p in classify_poles(space, 12)
                  if lo <= p.zeta.imag <= hi)
    got = find_scalar_poles(space, **grid)
    assert [z.imag for z in got] == pytest.approx(want, abs=1e-9)
    assert want and all(z.real == 0 for z in got)


def test_axis_scan_reads_c_only_through_its_array_pass(monkeypatch):
    # at a step of 0.013 every pole is a sign change of w that the scan
    # narrows, and the narrowing reads w by the scan's own array pass: with
    # the scalar c-function refused, the scan still finds every pole
    names = ("h2", "h3", "chn:2", "chn:3", "hhn:2", "hhn:3", "oh2", "hn:7")
    want = {name: sorted(p.zeta.imag for p in classify_poles(space_from_name(name), 12)
                         if abs(p.zeta.imag) <= 4.95) for name in names}

    def refuse(*args, **kwargs):
        raise AssertionError("the axis scan called the scalar c-function")

    for attr in ("value", "derivative", "_local"):
        monkeypatch.setattr(CFunction, attr, refuse)
    for name in names:
        got = find_scalar_poles(space_from_name(name), step=0.013)
        assert [z.imag for z in got] == pytest.approx(want[name], abs=1e-9), name


def test_axis_scan_h3_empty():
    assert find_scalar_poles(H3) == []


def test_axis_scan_rejects_hostile_grids():
    for bad in ({"step": math.nan}, {"step": math.inf}, {"im_lo": -math.inf},
                {"im_hi": math.nan}):
        with pytest.raises(NonFiniteInputError):
            find_scalar_poles(H2, **bad)
    for bad in ({"step": 0.0}, {"step": -0.01}, {"im_lo": 1.0, "im_hi": 1.0},
                {"im_lo": 2.0, "im_hi": -2.0}, {"step": 1e-6},
                {"im_lo": -1e300, "im_hi": 1e300}):
        with pytest.raises(ValueError):
            find_scalar_poles(H2, **bad)


def test_pole_record_validation():
    with pytest.raises(ValueError):
        ScatteringPole(zeta=1j, kind="mystery", residue_scalar=0j)


def test_residue_relation_ties_scattering_to_resolvent():
    recs = enumerate_resonances(H2, 2)
    for rec in recs:
        rep = residue_relation_check(rec)
        assert rep.relative_gap < 1e-8, rec.k
        assert abs(rep.scattering_side) > 0.1
        # boundary value of the spherical function at the resonance is
        # c(-i zeta), the surviving branch coefficient
        cf = for_space(H2)
        expect = cf.value(-1j * rec.zeta)
        assert abs(rep.boundary_value - expect) < 1e-6


def test_boundary_pair_at_the_h2_resonances():
    # every H2 resonance has an odd 2 L = -2 i zeta, so both Frobenius series
    # exist and the connection solve reads phi_{i zeta}'s boundary pair from
    # its Jacobi series: a_plus = c(L), a_minus = c(-L) = 0 (measured at most
    # 6.0e-15, at k = 3, where a_plus = 0.3125)
    cf = for_space(H2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for rec in enumerate_resonances(H2, 6):
            lam = 1j * rec.zeta
            pair = boundary_pair(H2, lam, _phi_view(H2, lam))
            expect = cf.value(-lam)
            assert abs(pair.a_plus - expect) <= 1e-14 * abs(expect), rec.k
            assert abs(pair.a_minus) <= 1e-14, rec.k


def test_residue_relation_gaps_at_the_rounding_level():
    # the boundary value comes from boundary_pair, with no fit: the gap was
    # up to 1.0e-12 by the Fatou fit, and the suite's tolerance stays 1e-8
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for rec in enumerate_resonances(H2, 4):
            rep = residue_relation_check(rec)
            assert rep.relative_gap < 1e-13, rec.k
            assert rep.boundary_value_error < 1e-13, rec.k


def test_scalar_phase_symmetry_on_real_axis():
    # s(-zeta) = conj(s(zeta)) for real zeta (real c on the real axis)
    for zeta in (0.6, 1.9):
        assert abs(scalar(H2, -zeta)
                   - scalar(H2, zeta).conjugate()) < 1e-12
