"""c-function layer: closed-form values, pole/zero bookkeeping, czz, density.

The H2 and H3 columns are independent oracles — H3 is 1/lambda outright and
the H2 values below were fixed from the Gamma-quotient by hand — so these
tests pin the normalization and the meromorphic structure rather than
round-tripping the implementation against itself.
"""

import math
import random
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hyperscatter import cfunction
from hyperscatter.cfunction import compose_czz, for_space
from hyperscatter.errors import NonFiniteInputError, OutOfRangeError, PoleSignal
from hyperscatter.resolvent import kernel
from hyperscatter.scattering import scalar
from hyperscatter.space import space_from_name

H2 = space_from_name("h2")
H3 = space_from_name("h3")

ALL_NAMES = ("h2", "h3", "hn:4", "chn:2", "hhn:2", "oh2")


def _rel(a, b):
    return abs(a - b) / max(abs(b), 1e-300)


def test_h2_closed_form_values():
    cf = for_space(H2)
    # Gamma(lambda) / (sqrt(pi) Gamma(lambda + 1/2)), normalized at rho = 1/2
    assert _rel(cf.value(0.5), 1.0) < 1e-12
    assert _rel(cf.value(1.5), 0.5) < 1e-12
    assert _rel(cf.value(2.5), 0.375) < 1e-12
    assert _rel(cf.derivative(-0.5), -2.0) < 1e-10
    assert _rel(cf.derivative(-1.5), -4.0 / 3.0) < 1e-10


def test_h3_is_one_over_lambda():
    cf = for_space(H3)
    for lam in (0.5, 2.0, 1 + 1j, -0.7 + 0.3j, 3.2 - 1.1j):
        assert _rel(cf.value(lam), 1.0 / lam) < 1e-12
        assert _rel(cf.derivative(lam), -1.0 / lam**2) < 1e-10


def test_normalized_at_rho_everywhere():
    for name in ALL_NAMES:
        space = space_from_name(name)
        cf = for_space(space)
        assert abs(cf.value(space.rho) - 1.0) < 1e-12, name


def test_derivative_matches_difference_quotient():
    h = 1e-6
    for name in ("h2", "chn:2", "oh2"):
        cf = for_space(space_from_name(name))
        for lam in (0.8, 1.3 + 0.4j, -0.35 + 1j):
            fd = (cf.value(lam + h) - cf.value(lam - h)) / (2.0 * h)
            assert abs(cf.derivative(lam) - fd) < 1e-6 * max(1.0, abs(fd)), name


def test_zeros_return_exact_zero_and_local_expansion_agrees():
    cf = for_space(H2)
    # c vanishes on -rho - k = -1/2 - k for H2
    for lam0 in (-0.5, -1.5, -2.5):
        assert cf.value(lam0) == 0j
        order, lead, _ = cf.local_expansion(lam0)
        assert order == 1
        assert _rel(lead, cf.derivative(lam0)) < 1e-10


def test_poles_raise_structured_signal():
    cf = for_space(H2)
    with pytest.raises(PoleSignal) as info:
        cf.value(-1.0)
    assert info.value.order == 1  # pole order, counted positive
    order, lead, _ = cf.local_expansion(-1.0)
    assert order == -1  # Laurent exponent of the leading term
    assert _rel(info.value.residue, lead) < 1e-12
    with pytest.raises(PoleSignal):
        cf.derivative(-1.0)


def test_local_expansion_at_regular_point():
    cf = for_space(space_from_name("hhn:2"))
    lam = 1.3 + 0.2j
    order, a, b = cf.local_expansion(lam)
    assert order == 0
    assert _rel(a, cf.value(lam)) < 1e-12
    assert _rel(b, cf.derivative(lam)) < 1e-8


def test_czz_is_the_two_sided_product():
    for name in ("h2", "chn:2"):
        cf = for_space(space_from_name(name))
        for zeta in (0.7, 1.3 - 0.4j, 2.1 + 0.8j):
            prod = cf.value(1j * zeta) * cf.value(-1j * zeta)
            assert _rel(cf.czz(zeta), prod) < 1e-12
            assert _rel(cf.czz(-zeta), cf.czz(zeta)) < 1e-12


def test_czz_h3_and_h2_special_points():
    cf3 = for_space(H3)
    for zeta in (0.5, 1.0 + 0.3j, 2.2):
        assert _rel(cf3.czz(zeta), 1.0 / zeta**2) < 1e-12
    cf2 = for_space(H2)
    for k in range(3):
        assert cf2.czz(1j * (0.5 + k)) == 0j


def test_czz_derivative_matches_difference_quotient():
    cf = for_space(space_from_name("chn:2"))
    h = 1e-6
    for zeta in (0.9, 1.7 + 0.5j):
        fd = (cf.czz(zeta + h) - cf.czz(zeta - h)) / (2.0 * h)
        assert abs(cf.czz_derivative(zeta) - fd) < 1e-6 * max(1.0, abs(fd))


def test_plancherel_density():
    cf3 = for_space(H3)
    for zeta in (0.5, 1.0, 2.0):
        assert _rel(cf3.plancherel_density(zeta), zeta**2) < 1e-12
    for name in ALL_NAMES:
        cf = for_space(space_from_name(name))
        for zeta in (0.1, 1.0, 10.0):
            dens = cf.plancherel_density(zeta)
            assert dens > 0.0, name
            # squared modulus route agrees with the analytic product
            assert _rel(dens, 1.0 / abs(cf.czz(zeta))) < 1e-12, name
    with pytest.raises(ValueError):
        cf3.plancherel_density(0.0)
    with pytest.raises(ValueError):
        cf3.plancherel_density(-1.0)


def test_zero_progression_on_the_imaginary_axis():
    expected = {
        "h2": [0.5 + k for k in range(4)],       # step 1: m_2alpha = 0, odd m
        "h3": [],                                 # no zeros: even m, m_2alpha = 0
        "chn:2": [2.0 + 2 * k for k in range(4)],  # step 2
        "hhn:2": [5.0 + 2 * k for k in range(3)],
        "oh2": [11.0 + 2 * k for k in range(2)],
    }
    for name, heights in expected.items():
        cf = for_space(space_from_name(name))
        got = cf.czz_zeros_upper(len(heights))
        assert len(got) == len(heights), name
        for z, h in zip(got, heights):
            assert abs(z - 1j * h) < 1e-12, name


def test_resonance_step_classification():
    assert for_space(H2).resonance_step() == 1
    assert for_space(H3).resonance_step() is None
    assert for_space(space_from_name("chn:2")).resonance_step() == 2
    assert for_space(space_from_name("oh2")).resonance_step() == 2


def test_for_space_caches_instances():
    assert for_space(H2) is for_space(space_from_name("h2"))


def test_gamma_quotient_against_mpmath(mp_c):
    # independent route: the quotient assembled from mpmath at 30 digits,
    # on generic points, points 1e-9 off the Gamma poles (where numerator
    # and denominator poles nearly cancel, too), and points far up the
    # imaginary direction
    space = space_from_name("hhn:2")
    cf = for_space(space)
    generic = [0.8, 1.9 + 0.7j, 3.4 - 1.2j, 0.25 + 2.0j]
    near_poles = [-1 + 1e-9, -2 - 1e-9j, -3 + 1e-9 + 1e-9j, -4 + 1e-9j,
                  -5 - 1e-9, -11 + 1e-9j]
    tall = [0.3 + 12j, -2.7 - 15j, 4.1 + 10j, -0.5 - 20j]
    for lam in generic + near_poles + tall:
        lam = complex(lam)
        with mpmath.workdps(30):
            want = complex(mp_c(space, mpmath.mpc(lam.real, lam.imag)))
        assert _rel(cf.value(lam), want) < 1e-11, lam


def _lattice_order(space, lam):
    """Exact order of c at the Fraction lam: -1 for a Gamma pole, +1 for
    each reciprocal-Gamma zero."""
    order = -1 if lam <= 0 and lam.denominator == 1 else 0
    for a in (Fraction(space.m_alpha + 2, 4),
              Fraction(space.m_alpha + 2 * space.m_2alpha, 4)):
        z = a + lam / 2
        if z <= 0 and z.denominator == 1:
            order += 1
    return order


@pytest.mark.parametrize("name", ["h2", "h3", "hn:4", "chn:2", "hhn:2", "oh2"])
def test_local_expansion_on_the_lattice_against_mpmath(name, mp_c):
    # c(lam0 + e) = e^order (A + B e): A and B read off mpmath's c at
    # lam0 +/- e by a symmetric difference, down to index 400, where the
    # factorials in the local data are far beyond the float range
    space = space_from_name(name)
    cf = for_space(space)
    for twice in list(range(0, -25, -1)) + [-341, -402, -801]:
        lam0 = twice / 2
        order, a, b = cf.local_expansion(lam0)
        assert order == _lattice_order(space, Fraction(twice, 2)), lam0
        with mpmath.workdps(80):
            e = mpmath.mpf("1e-30")
            up = mp_c(space, lam0 + e) / e**order
            down = mp_c(space, lam0 - e) / (-e) ** order
            want_a = complex((up + down) / 2)
            want_b = complex((up - down) / (2 * e))
        assert _rel(a, want_a) < 1e-11, lam0
        assert abs(b - want_b) < 1e-10 * max(abs(want_b), abs(want_a)), lam0


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf,
                                 complex(0.5, math.inf)])
def test_non_finite_input_raises_structured_error(bad):
    space = space_from_name("chn:2")
    cf = for_space(space)
    for call in (cf.value, cf.derivative, cf.czz,
                 lambda z: kernel(space, z, 1.0)):
        with pytest.raises(NonFiniteInputError):
            call(bad)
    # still a ValueError, so existing callers that catch that keep working
    assert issubclass(NonFiniteInputError, ValueError)


@pytest.mark.parametrize("lam", [-1e20, 2.0**53, complex(1.7e308, 1.7e308)])
def test_lambda_past_the_lattice_resolution_is_refused(lam):
    # past |lambda| = 2^52 the float lambda/2 has lost the quarter offsets
    # a1 and a2, so every Gamma argument read as an integer: value(-1e20)
    # was 0 at a pole of c, local_expansion(-1e20) (1, 0, 0).  The modulus
    # of the last argument overflows, and abs() of it raises OverflowError
    cf = for_space(H2)
    many = np.array([0.5, lam])
    for call in (lambda: cf.local_expansion(lam), lambda: cf.value(lam),
                 lambda: cf.derivative(lam), lambda: cf.czz(-1j * lam),
                 lambda: cf.local_expansion(many), lambda: cf.value(many),
                 lambda: cf.czz(-1j * many), lambda: cf.zero_order(many)):
        with pytest.raises(OutOfRangeError, match="2\\^52"):
            call()
    assert issubclass(OutOfRangeError, ValueError)
    # just below the limit the lattice is still exact: every negative
    # integer is a simple pole of c on H2
    below = -(2.0**52) + 2.0
    assert cf.local_expansion(below)[0] == cf.zero_order(np.array([below]))[0] == -1
    with pytest.raises(PoleSignal):
        cf.value(below)


def _rectangle(space, half_width=0.25, per_side=800):
    """3,200 points on a rectangle [-0.25, 0.25] x [lo, hi] about the
    imaginary axis, with the winding check's lo and hi."""
    lo, hi = 0.11, 3.0 * space.rho + 6.13
    corners = [complex(-half_width, lo), complex(half_width, lo),
               complex(half_width, hi), complex(-half_width, hi)]
    return [a + (b - a) * (i / per_side)
            for a, b in zip(corners, corners[1:] + corners[:1])
            for i in range(per_side)]


@pytest.mark.parametrize("name", ["h2", "h3", "chn:2", "hhn:2", "oh2"])
def test_array_input_matches_scalar_calls(name):
    # regular elements go through one vectorised Gamma quotient and agree
    # with the scalar call to rounding; lattice elements fall back to the
    # scalar call and must agree exactly
    cf = for_space(space_from_name(name))
    rng = np.random.default_rng(5)
    rand = list(rng.uniform(-12, 12, 400) + 1j * rng.uniform(-12, 12, 400))
    lattice = [-k / 2 for k in range(60)]
    near = [x + d for x in lattice for d in (1e-9, -1e-9, 1e-9j, -1e-9j)]
    rect = _rectangle(cf.space)
    for method, pts in ((cf.value, rand + near + [1j * z for z in rect]),
                        (cf.czz, rand + [1j * x for x in near] + rect)):
        got = method(np.array(pts))
        want = np.array([method(complex(p)) for p in pts])
        assert got.shape == want.shape
        assert np.all(np.abs(got - want) <= 1e-13 * np.abs(want)), method
    for method, pts in ((cf.value, lattice), (cf.czz, [1j * x for x in lattice])):
        finite = []
        for p in pts:
            try:
                finite.append((p, method(complex(p))))
            except PoleSignal:
                pass
        got = method(np.array([p for p, _ in finite]).reshape(-1, 1))
        assert got.shape == (len(finite), 1)
        assert [g == w for g, (_, w) in zip(got[:, 0], finite)] == [True] * len(finite)


def test_array_input_errors():
    cf = for_space(H2)
    for method in (cf.value, cf.czz):
        with pytest.raises(NonFiniteInputError):
            method(np.array([0.3, math.nan, 1.2]))
        with pytest.raises(NonFiniteInputError):
            method(np.array([0.3, complex(1.0, math.inf)]))
    # c has a pole at lambda = 0, czz a double pole at zeta = 0
    with pytest.raises(PoleSignal):
        cf.value(np.array([0.3, 0.0, 1.2]))
    with pytest.raises(PoleSignal):
        cf.czz(np.array([0.3j, 0.0, 1.2]))


# -- array and scalar routes agree ---------------------------------------------

PROPERTY_NAMES = ("h2", "h3", "chn:2", "chn:3", "hhn:2", "hhn:3", "oh2", "hn:7")

_property_settings = settings(max_examples=30, deadline=None, derandomize=True,
                              database=None)


def _off_lattice(lam):
    """lam is at least 1e-6 from every half-integer."""
    return abs(2.0 * lam - round(2.0 * lam.real)) > 1e-6


_points = st.lists(
    st.complex_numbers(max_magnitude=30.0, allow_nan=False, allow_infinity=False)
    .filter(_off_lattice), min_size=1, max_size=12)


def _assert_expansions_agree(cf, lams):
    order, a, b = cf.local_expansion(np.array(lams))
    for i, lam in enumerate(lams):
        want_order, want_a, want_b = cf.local_expansion(lam)
        assert order[i] == want_order, lam
        assert _rel(a[i], want_a) <= 1e-13, lam
        assert _rel(b[i], want_b) <= 1e-13, lam


@pytest.mark.parametrize("name", PROPERTY_NAMES)
def test_array_local_expansion_on_the_lattice_matches_scalar(name):
    # the array's integer data at Gamma poles and reciprocal-Gamma zeros,
    # down to index 400, against the scalar call
    cf = for_space(space_from_name(name))
    _assert_expansions_agree(cf, [complex(-m / 2) for m in range(401)])


@_property_settings
@given(st.sampled_from(PROPERTY_NAMES), _points)
def test_array_local_expansion_off_the_lattice_property(name, lams):
    _assert_expansions_agree(for_space(space_from_name(name)), lams)


@_property_settings
@given(st.sampled_from(PROPERTY_NAMES), _points,
       st.lists(st.integers(0, 400), min_size=1, max_size=12),
       st.randoms(use_true_random=False))
def test_mixed_arrays_match_scalar_calls_property(name, regular, twice, rnd):
    # value and czz over arrays that mix lattice and regular elements: the
    # lattice elements equal the scalar call bit for bit, the regular ones
    # to rounding; a pole anywhere in the array raises PoleSignal
    cf = for_space(space_from_name(name))
    pts = list(regular) + [complex(-m / 2) for m in twice]
    rnd.shuffle(pts)
    for method, arg in ((cf.value, lambda p: p), (cf.czz, lambda p: 1j * p)):
        finite, pole = [], False
        for p in pts:
            try:
                finite.append((p, method(arg(p))))
            except PoleSignal:
                pole = True
        if pole:
            with pytest.raises(PoleSignal):
                method(np.array([arg(p) for p in pts]))
        got = method(np.array([arg(p) for p, _ in finite], dtype=complex))
        for g, (p, w) in zip(got, finite):
            if _off_lattice(p):
                assert abs(g - w) <= 1e-13 * abs(w), (method, p)
            else:
                assert g == w, (method, p)


@_property_settings
@given(st.sampled_from(PROPERTY_NAMES), _points)
def test_c_commutes_with_conjugation_property(name, lams):
    # c(conj lambda) = conj c(lambda), the scalar and the array call
    cf = for_space(space_from_name(name))
    for lam in lams:
        assert _rel(cf.value(lam.conjugate()), cf.value(lam).conjugate()) <= 1e-13
    arr = np.array(lams)
    assert np.all(np.abs(cf.value(arr.conj()) - cf.value(arr).conj())
                  <= 1e-13 * np.abs(cf.value(arr)))


@_property_settings
@given(st.sampled_from(PROPERTY_NAMES), _points)
def test_scattering_scalar_inverts_under_reflection_property(name, zetas):
    # s(zeta) s(-zeta) = 1 off the pole lattice of both factors
    space = space_from_name(name)
    for zeta in zetas:
        assume(_off_lattice(1j * zeta) and abs(zeta) > 1e-3)
        assert abs(scalar(space, zeta) * scalar(space, -zeta) - 1.0) <= 1e-12, zeta


def _unsigned(z):
    """z with any zero part made +0.0, so == compares values bit for bit
    apart from the sign of a zero."""
    return complex(z.real + 0.0, z.imag + 0.0)


@pytest.mark.parametrize("name", PROPERTY_NAMES)
def test_scalar_czz_expansion_matches_the_array_pass(name):
    # the scalar czz_expansion composes c's scalar data, the array one c's
    # array data: the same order, A and B within 1e-13, and on the lattice
    # (i zeta a half-integer) the same bits up to the sign of a zero
    cf = for_space(space_from_name(name))
    rng = np.random.default_rng(17)
    lattice = [0.5j * m for m in range(-120, 61) if m != 0]
    rand = (rng.uniform(-15, 15, 60) + 1j * rng.uniform(-15, 15, 60)).tolist()
    for zeta in lattice + rand:
        order, a, b = cf.czz_expansion(zeta)
        assert type(order) is int and type(a) is complex and type(b) is complex
        arr_order, arr_a, arr_b = (x[0] for x in cf.czz_expansion(np.array([zeta])))
        assert arr_order == order, zeta
        assert _rel(arr_a, a) <= 1e-13 and abs(arr_b - b) <= 1e-13 * abs(b), zeta
        if zeta in lattice:
            assert _unsigned(arr_a) == _unsigned(a), zeta
            assert _unsigned(arr_b) == _unsigned(b), zeta


def test_scalar_compose_czz_equals_the_array_element_bit_for_bit():
    # a scalar zeta takes its phase i^(o1 - o2) from a tuple and forms A in
    # Python complex arithmetic, an array indexes the same phases and forms
    # A with _cmul: at every phase, with signed zeros, subnormal and large
    # parts, the scalar A has the bits of the array element
    parts = [0.0, -0.0, 1.5, -2.25, 1e150, -3e-310, 7.0e-5]
    rng = random.Random(3)
    cases = [(rng.randrange(-3, 4), complex(rng.choice(parts), rng.choice(parts)),
              rng.randrange(-3, 4), complex(rng.choice(parts), rng.choice(parts)))
             for _ in range(400)]
    o1, a1, o2, a2 = (np.array(col) for col in zip(*cases))
    _, arr, _ = compose_czz((o1, a1, None), (o2, a2, None))
    for (p, x, q, y), want in zip(cases, arr.tolist()):
        order, lead, nxt = compose_czz((p, x, None), (q, y, None))
        assert order == p + q and nxt is None and type(lead) is complex
        assert (lead.real.hex(), lead.imag.hex()) == (want.real.hex(), want.imag.hex()), (p, x, q, y)


@pytest.mark.parametrize("name", PROPERTY_NAMES)
def test_derivative_at_a_pole_carries_the_residue(name):
    # c' has a double pole where c has a simple one; its PoleSignal names
    # c's pole and carries c's residue, the A of local_expansion
    cf = for_space(space_from_name(name))
    poles = 0
    for lam in [-m / 2 for m in range(80)]:
        order, lead, _ = cf.local_expansion(lam)
        if order >= 0:
            continue
        with pytest.raises(PoleSignal) as info:
            cf.derivative(lam)
        assert info.value.order == -order and info.value.at == lam
        assert info.value.residue == (lead if order == -1 else None), lam
        poles += 1
    assert poles > 0


@pytest.mark.parametrize("name", PROPERTY_NAMES)
def test_scalar_czz_reads_c_values_alone(name, monkeypatch):
    # the scalar czz composes c's order and A at +-i zeta, with no psi (it
    # is refused while czz reads): it equals the value czz_and_derivative
    # reads off the full expansion bit for bit, at lattice points (zeros and
    # poles) and random zeta, and at a pole raises the same PoleSignal
    cf = for_space(space_from_name(name))
    rng = random.Random(11)
    zetas = ([0.5j * k for k in range(-40, 41)] + [0.5 * k for k in range(-6, 7)]
             + [complex(rng.uniform(-8, 8), rng.uniform(-8, 8)) for _ in range(60)])

    def outcome(method, zeta):
        try:
            v = method(zeta)
        except PoleSignal as exc:
            return "pole", exc.at, exc.order, exc.residue, str(exc)
        return type(v), v.real.hex(), v.imag.hex()

    def refuse(*args):
        raise AssertionError("the scalar czz read c's slope")

    with monkeypatch.context() as patch:
        patch.setattr(cfunction, "psi", refuse)
        outcomes = [outcome(cf.czz, z) for z in zetas]
    assert outcomes == [outcome(lambda z: cf.czz_and_derivative(z)[0], z) for z in zetas]
    assert sum(o[0] == "pole" for o in outcomes) > 0
    assert all(o[0] in ("pole", complex) for o in outcomes)


@pytest.mark.parametrize("name", ["chn:1000", "hn:2000"])
def test_c_past_the_float_range_is_refused(name):
    # at a large multiplicity log c(0.7) passes 709: cmath.exp raised a raw
    # OverflowError and the array pass returned inf with a RuntimeWarning
    cf = for_space(space_from_name(name))
    many = np.array([0.5, 0.7])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in (lambda: cf.value(0.7), lambda: cf.local_expansion(0.7),
                     lambda: cf.derivative(0.7), lambda: cf.czz(0.7),
                     lambda: cf.czz_expansion(0.7), lambda: cf.plancherel_density(0.7),
                     lambda: cf.value(many), lambda: cf.local_expansion(many),
                     lambda: cf.czz(many), lambda: kernel(cf.space, 0.7, 1.0)):
            with pytest.raises(OutOfRangeError, match="floating-point range"):
                call()


def test_scalar_and_array_c_refuse_the_same_lambdas():
    # on hn:1030 c passes the float range as lambda falls below about 0.9:
    # each lambda is refused by both passes or by neither, and agrees where not
    cf = for_space(space_from_name("hn:1030"))
    lams = np.linspace(0.2, 3.0, 57) + 0.1j
    refused = 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for lam in lams:
            try:
                scalar_value = cf.value(complex(lam))
            except OutOfRangeError:
                refused += 1
                with pytest.raises(OutOfRangeError):
                    cf.value(np.array([lam]))
                continue
            assert abs(cf.value(np.array([lam]))[0] - scalar_value) <= 1e-13 * abs(scalar_value)
        with pytest.raises(OutOfRangeError):
            cf.value(lams)
    assert 0 < refused < len(lams)


def test_czz_past_the_float_range_is_refused():
    # on hn:1000 at 0.7 |c| fits the float range and |c|^2 does not: the
    # scalar czz returned inf+nanj, the array czz warned of an overflow and
    # plancherel_density raised a raw OverflowError
    cf = for_space(space_from_name("hn:1000"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert math.isfinite(abs(cf.value(0.7j)))
        for call in (lambda: cf.czz(0.7), lambda: cf.czz(np.array([0.7])),
                     lambda: cf.czz_expansion(0.7), lambda: cf.czz_expansion(np.array([0.7])),
                     lambda: cf.plancherel_density(0.7)):
            with pytest.raises(OutOfRangeError, match="floating-point range"):
                call()


def test_scalar_and_array_czz_refuse_the_same_zetas():
    # on hn:520 czz passes the float range as zeta falls below about 4:
    # each zeta is refused by both passes or by neither, and agrees where
    # not; plancherel_density refuses where the real-axis czz does
    cf = for_space(space_from_name("hn:520"))
    zetas = np.concatenate([np.linspace(0.1, 6.0, 60), np.linspace(0.1, 6.0, 30) + 0.2j])
    refused = 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for zeta in zetas:
            try:
                scalar_value = cf.czz(complex(zeta))
            except OutOfRangeError:
                refused += 1
                with pytest.raises(OutOfRangeError):
                    cf.czz(np.array([zeta]))
                if not zeta.imag:
                    with pytest.raises(OutOfRangeError):
                        cf.plancherel_density(zeta)
                continue
            assert cf.czz(np.array([zeta]))[0] == scalar_value
            if not zeta.imag:
                assert abs(cf.plancherel_density(zeta) * scalar_value - 1.0) < 1e-13
        with pytest.raises(OutOfRangeError):
            cf.czz(zetas)
    assert 0 < refused < len(zetas)
