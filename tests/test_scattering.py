"""Scalar scattering coefficient: inversion, unitarity, pole taxonomy,
K-type eigenvalues, residue relation against the resolvent."""

import cmath
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperscatter import scattering, verify
from hyperscatter.boundary import boundary_pair
from hyperscatter.cfunction import CFunction, for_space
from hyperscatter.errors import NonFiniteInputError, PoleSignal, ResonantExponentError
from hyperscatter.model_h2 import ktype_space
from hyperscatter.radial import _connection_solve, _phi_series, continuation
from hyperscatter.resonances import enumerate_resonances
from hyperscatter.scattering import (
    KIND_INTERTWINER,
    KIND_RESONANCE,
    ScatteringPole,
    _scan,
    classify_poles,
    find_scalar_poles,
    ktype_eigenvalue,
    residue_relation_check,
    scalar,
)
from hyperscatter.space import space_from_name
from hyperscatter.verify import FAMILY_NAMES

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
    # reads c(-sigma) at nodes outside it; the scan cache is cleared, so
    # that no scan an earlier test made answers
    _scan.cache_clear()
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
    _scan.cache_clear()  # every scan below runs with the scalar c refused
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


def test_axis_scan_is_made_once_per_node_grid(monkeypatch):
    # the scan is cached per (c-function, node grid): a repeat reads no w,
    # each call returns its own list, bounds that give the same nodes share
    # the scan, a new step scans anew, and a hostile grid is refused before
    # the cache on every call
    _scan.cache_clear()
    axis_w, calls = scattering._axis_w, []

    def counted(cf, sigmas):
        calls.append(len(sigmas))
        return axis_w(cf, sigmas)

    monkeypatch.setattr(scattering, "_axis_w", counted)
    first = find_scalar_poles(H2)
    want = list(first)
    assert calls == [991] and len(want) == 9
    calls.clear()
    assert find_scalar_poles(H2) == want and calls == []
    first.append(1j)
    first.reverse()
    assert find_scalar_poles(H2) == want
    assert find_scalar_poles(H2, im_lo=-4.951) == want and calls == []
    coarse = find_scalar_poles(H2, step=0.013)
    assert calls[0] == 761
    assert [z.imag for z in coarse] == pytest.approx([z.imag for z in want], abs=1e-9)
    for _ in range(2):
        test_axis_scan_rejects_hostile_grids()


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
    # exist and the Abel pairing reads phi_{i zeta}'s boundary pair from its
    # Jacobi series: a_plus = c(L) (measured within 2.3e-15), a_minus =
    # c(-L) = 0.  a_minus is a cancellation, 0 or up to 3.6e-13 (k = 7), all
    # of it rounding, so its own pairing (with Q_lambda) must report it
    # unresolved from 0: condition times 1e-16 at least 1 (inf where a_minus
    # reads 0, 4.8e16 or more elsewhere)
    cf = for_space(H2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for rec in enumerate_resonances(H2, 8):
            lam = 1j * rec.zeta
            phi = continuation(H2, lam, _phi_series).view(0.0, 1.3)
            pair = boundary_pair(H2, lam, phi)
            expect = cf.value(-lam)
            assert abs(pair.a_plus - expect) <= 1e-14 * abs(expect), rec.k
            (w_minus, condition_minus), = _connection_solve(H2, (lam,), phi)
            assert w_minus / (-2.0 * lam) == pair.a_minus, rec.k
            assert condition_minus * 1e-16 >= 1.0, rec.k


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


# -- the array form of scalar -------------------------------------------------

# the array form takes its complex exp and division from numpy: measured
# worst 2.2e-16 relative against the scalar calls, on the verify grid of
# the five families and on 2,000 points near and off the lattice
_ARRAY_BOUND = 4.5e-16


def _scalar_calls(space, zetas):
    """(the scalar calls' values, None), or (None, the first one's exception)."""
    try:
        return [scalar(space, z) for z in zetas], None
    except (ValueError, ArithmeticError) as exc:
        return None, exc


def _assert_raises_as_scalar(space, zetas, want):
    with pytest.raises(type(want)) as info:
        scalar(space, np.array(zetas))
    got = info.value
    assert str(got) == str(want)
    assert getattr(got, "at", None) == getattr(want, "at", None)
    assert getattr(got, "residue", None) == getattr(want, "residue", None)


# a point of the half-integer lattice i k/2 (where c(i zeta) or c(-i zeta)
# has a zero or a pole), one near it, or one off it
_zetas = st.lists(st.one_of(
    st.builds(lambda k: 0.5j * k, st.integers(-12, 12)),
    st.builds(lambda k, size, turn: 0.5j * k + size * cmath.exp(1j * turn),
              st.integers(-12, 12), st.floats(1e-11, 1e-2), st.floats(0.0, 2.0 * math.pi)),
    st.complex_numbers(max_magnitude=5.0, allow_nan=False, allow_infinity=False),
), min_size=1, max_size=8)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(name=st.sampled_from(FAMILY_NAMES), zetas=_zetas)
def test_scalar_array_matches_the_scalar_calls(name, zetas):
    # elementwise within a few ulps, or the scalar calls' first exception
    space = space_from_name(name)
    want, exc = _scalar_calls(space, zetas)
    if exc is not None:
        _assert_raises_as_scalar(space, zetas, exc)
        return
    got = scalar(space, np.array(zetas))
    assert got.shape == (len(zetas),) and got.dtype == complex
    for z, g, w in zip(zetas, got.tolist(), want):
        assert abs(g - w) <= _ARRAY_BOUND * abs(w), (name, z)


def test_scalar_array_on_the_verify_grids():
    # every verify family on the scattering suite's grid, with its shape kept
    grid = np.linspace(-2.45, 2.45, 10)[:, None] + 1j * np.linspace(-1.1, 1.1, 10)
    for name in FAMILY_NAMES:
        space = space_from_name(name)
        got = scalar(space, grid)
        assert got.shape == grid.shape
        for z, g in zip(grid.ravel().tolist(), got.ravel().tolist()):
            w = scalar(space, z)
            assert abs(g - w) <= _ARRAY_BOUND * abs(w), (name, z)


def test_scalar_array_is_zero_at_the_poles_of_c():
    # c(i zeta) has a pole at zeta = i and 2i on h2 and hhn:2, where the
    # scalar call returns 0j without reading c(-i zeta)
    for name in ("h2", "hhn:2"):
        space = space_from_name(name)
        got = scalar(space, np.array([1j, 0.7, 2j]))
        assert got[0] == got[2] == 0j == scalar(space, 1j) == scalar(space, 2j), name
        assert abs(got[1] - scalar(space, 0.7)) <= _ARRAY_BOUND * abs(got[1]), name


@pytest.mark.parametrize("name, bad", [
    ("h2", 0.5j),                    # a resonance: c(i zeta) = 0
    ("h2", 1.5j),
    ("chn:2", 2j),
    ("h2", -1j),                     # an intertwiner pole: c(-i zeta) = inf
    ("oh2", -6j),
    ("h2", 0.0),                     # zeta = 0: ValueError
    ("h3", 1e-14j),
    ("h2", math.nan),                # the gate
    ("h2", complex(0.3, math.inf)),
], ids=["resonance", "resonance 1.5i", "resonance chn:2", "intertwiner",
        "intertwiner oh2", "origin", "near origin", "nan", "inf"])
def test_scalar_array_raises_as_the_scalar_call(name, bad):
    # type, message, at and residue of the scalar call on the element; the
    # first faulty element raises, whatever follows it
    space = space_from_name(name)
    _, exc = _scalar_calls(space, [bad])
    assert exc is not None
    for zetas in ([bad], [0.7, bad], [0.7 + 0.2j, bad, 0.5j, -1j, 0.0]):
        _assert_raises_as_scalar(space, zetas, exc)


def test_suites_read_their_grids_with_one_array_pass(monkeypatch):
    # check_scattering made 1,023 scalar() calls a pass, and
    # residue_relation_check one per circle node (64): each two scalar
    # _local passes.  Now a family's inversion grid is one array pass over
    # its 100 points, its 3 unitarity points and their negatives, and the
    # circle one over its 64 nodes; check_connection and check_wronskian read c at 250 and 125
    # grid points one by one, now with one array read per space
    for name in FAMILY_NAMES:
        for_space(space_from_name(name))  # a new CFunction makes one _local pass
    scalar_lams, array_sizes = [], []
    local, expand = CFunction._local, CFunction._expand

    def counted_local(self, lam, slope):
        scalar_lams.append((self.space, lam))
        return local(self, lam, slope)

    def counted_expand(self, lam, slope):
        array_sizes.append(lam.size)
        return expand(self, lam, slope)

    monkeypatch.setattr(CFunction, "_local", counted_local)
    monkeypatch.setattr(CFunction, "_expand", counted_expand)
    assert all(row.passed for row in verify.check_scattering())
    assert scalar_lams == []
    # a family's grid and its three unitarity points, at i zeta and -i zeta
    assert array_sizes.count(206) == len(FAMILY_NAMES)
    for rec in enumerate_resonances(H2, 2):
        scalar_lams.clear()
        array_sizes.clear()
        residue_relation_check(rec)
        assert array_sizes == [128]
        # c(-i zeta) at the resonance itself, on the resolvent side
        assert scalar_lams == [(H2, -1j * rec.zeta)]
    for suite, size in ((verify.check_connection, 50), (verify.check_wronskian, 25)):
        scalar_lams.clear()
        array_sizes.clear()
        assert all(row.passed for row in suite())
        assert scalar_lams == [] and array_sizes == [size] * len(FAMILY_NAMES), suite
