"""Disk model of the (1, 0) space: geometry, Poisson transform, K-type
profiles, laplacian stencil, quadrature route, residue ranks.

Stencil checks draw from the window where the five-point oracle itself
resolves 1e-6 (moderate lambda, points near the center, boundary angle on
the far side); the eigen-identity is exact, the finite-difference reference
is not.
"""

import cmath
import math
import warnings

import mpmath
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hyperscatter.cfunction import for_space
from hyperscatter.boundary import boundary_pair
from hyperscatter import model_h2
from hyperscatter.errors import AccuracyWarning, NonFiniteInputError, OutOfRangeError
from hyperscatter.model_h2 import (
    H2,
    distance,
    horocycle_bracket,
    hyperbolic_laplacian_stencil,
    ktype_prefactor,
    ktype_radial_profile,
    ktype_solution,
    ktype_space,
    oracle_h3,
    poisson_radial_pair,
    poisson_transform,
    r_of_t,
    residue_rank,
    resolvent_difference_quadrature,
)
from hyperscatter.radial import RadialSolution, eval_phi
from hyperscatter.resolvent import resolvent_difference

_CF = for_space(H2)


def test_distance_formula_and_domain():
    r = 0.5
    expect = math.log((1.0 + r) / (1.0 - r))
    assert abs(distance(0.0, r) - expect) < 1e-12
    assert distance(0.2 + 0.1j, 0.2 + 0.1j) == 0.0
    assert abs(distance(0.3, -0.2j) - distance(-0.2j, 0.3)) < 1e-15
    with pytest.raises(ValueError):
        distance(1.0, 0.0)
    # nan once passed the |z| < 1 test and came back as a nan distance
    for z1, z2 in ((math.nan, 0.1), (0.1, complex(0.2, math.nan)), (math.inf, 0.0)):
        with pytest.raises(NonFiniteInputError):
            distance(z1, z2)


def test_r_of_t_inverts_distance():
    for t in (0.3, 1.0, 2.7):
        assert abs(distance(0.0, r_of_t(t)) - t) < 1e-12


def test_bracket_center_and_symmetry():
    assert horocycle_bracket(0.0, 1.1) == 0.0
    # A(r, 0) = log((1-r^2)/(1-r)^2) = log((1+r)/(1-r)) = distance to 0
    r = 0.4
    assert abs(horocycle_bracket(r, 0.0) - distance(0.0, r)) < 1e-12
    with pytest.raises(ValueError):
        horocycle_bracket(1.0, 0.0)
    for z, theta in ((0.1, math.nan), (0.1, math.inf), (math.nan, 0.3)):
        with pytest.raises(NonFiniteInputError):
            horocycle_bracket(z, theta)


def test_poisson_transform_constant_is_spherical():
    lam = 0.8
    for t in (0.5, 1.2):
        z = r_of_t(t)
        val = poisson_transform(lam, lambda th: 1.0, z)
        assert abs(val - eval_phi(H2, lam, t)) < 1e-8


def test_poisson_radial_pair_n0_is_phi():
    lam = 0.7 + 0.2j
    for t in (0.6, 1.4):
        u, _ = poisson_radial_pair(lam, 0, t)
        assert abs(u - eval_phi(H2, lam, t)) / abs(u) < 1e-8


def test_poisson_radial_pair_derivative_consistency():
    lam, n, t, h = 0.9, 2, 1.0, 1e-4
    _, du = poisson_radial_pair(lam, n, t)
    up, _ = poisson_radial_pair(lam, n, t + h)
    um, _ = poisson_radial_pair(lam, n, t - h)
    assert abs(du - (up - um) / (2.0 * h)) < 1e-6


@pytest.mark.parametrize("t", [0.3, -math.log(0.3 * 0.5**8)])
def test_batched_poisson_radial_pair_matches_scalar_calls(t):
    # the K-types share the kernel samples and converge jointly; at the
    # deepest Fatou depth the doubling reaches tens of thousands of nodes
    for lam in (0.7, 1.1 - 0.3j):
        batch = poisson_radial_pair(lam, range(-4, 5), t)
        assert isinstance(batch, list) and len(batch) == 9
        for n, (u, du) in zip(range(-4, 5), batch):
            single = poisson_radial_pair(lam, n, t)
            assert isinstance(single, tuple)
            assert abs(u - single[0]) <= 1e-10 * max(1.0, abs(single[0])), (lam, n)
            assert abs(du - single[1]) <= 1e-10 * max(1.0, abs(single[1])), (lam, n)


def test_poisson_quadratures_refuse_bad_input():
    # a non-integral n is not truncated, and a nan or infinite argument is
    # refused before any node is sampled
    with pytest.raises(ValueError):
        poisson_radial_pair(0.7, 1.5, 0.3)
    with pytest.raises(ValueError):
        poisson_radial_pair(0.7, [0, 1.5], 0.3)
    for lam, t in ((math.nan, 0.3), (complex(0.7, math.inf), 0.3), (0.7, math.nan),
                   (0.7, math.inf)):
        with pytest.raises(NonFiniteInputError):
            poisson_radial_pair(lam, 1, t)
    for lam, z in ((math.nan, 0.3), (0.7, complex(math.nan, 0.1)), (0.7, math.inf)):
        with pytest.raises(NonFiniteInputError):
            poisson_transform(lam, lambda th: 1.0, z)


@pytest.mark.parametrize("call", [
    lambda: poisson_transform(0.7, lambda th: 1.0, 1.5),
    lambda: poisson_transform(0.7, lambda th: 1.0, 1.0),
    # r(40) = tanh(20) rounds to 1
    lambda: poisson_radial_pair(0.7, 1, 40.0),
], ids=["z=1.5", "z=1", "t=40"])
def test_poisson_quadratures_refuse_points_outside_the_disk(call):
    with pytest.raises(ValueError, match=r"\|z\| = .* not inside the disk"):
        call()


def test_laplacian_stencil_eigenfunction_identity():
    # exact eigenfunctions e^{(rho+lambda) A(z, theta)}: stencil residual
    # within the finite-difference oracle's own resolution
    cases = [
        (0.8, 0.4 + 0.0j, math.pi),       # reference point, far-side angle
        (0.3, 0.2 + 0.1j, None),
        (0.25, -0.15 + 0.2j, None),
        (0.4, 0.1 - 0.25j, None),
    ]
    for lam, z, theta in cases:
        if theta is None:
            theta = cmath.phase(z) + math.pi + 0.3
        u = lambda w, th=theta: cmath.exp((H2.rho + lam)
                                          * horocycle_bracket(w, th))
        got = hyperbolic_laplacian_stencil(u, z)
        expect = (H2.rho**2 - lam**2) * u(z)
        assert abs(got - expect) < 1e-6 * max(1.0, abs(expect)), (lam, z)


def test_ktype_solution_normalization_and_profile():
    # the profile is (2 sinh t)^|n| times a solution on the shifted space,
    # whose boundary pair is the profile's: a_minus = c(lambda)
    lam, n = 0.8, 2
    sol = ktype_solution(lam, n)
    shifted = ktype_space(n)

    def divided(t):
        (u, du), (p, dp) = sol.at(t), ktype_prefactor(n, t)
        return u / p, (du - dp * u / p) / p

    pair = boundary_pair(shifted, lam, RadialSolution(shifted, lam, 0.6, 1.3, divided))
    assert abs(pair.a_minus - _CF.value(lam)) / abs(_CF.value(lam)) < 1e-8
    # profile accessor agrees with the solved object inside its range
    t = 0.9
    assert abs(ktype_radial_profile(lam, n, t) - sol(t)) < 1e-10


def test_ktype_profile_matches_poisson_quadrature():
    # independent route: angular Fourier mode of the Poisson transform; the
    # shift reaches the lattice lambda = 1/2, 1, 3/2 as well
    for lam in (1.1, 0.8 - 0.6j, 0.5, 1.0, 1.5):
        for n in range(4):
            for t in (0.3, 0.8, 2.0):
                u, _ = poisson_radial_pair(lam, n, t)
                got = ktype_radial_profile(lam, n, t)
                assert abs(got - u) / abs(u) < 1e-7, (lam, n, t)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.floats(0.1, 2.5), st.floats(-1.0, 1.0), st.integers(0, 5),
       st.floats(0.05, 3.0))
def test_ktype_profile_solves_the_angular_equation(re, im, n, t):
    # u'' + coth t u' + (1/4 - lambda^2) u - n^2 u / sinh^2 t = 0, the
    # equation of the n-th circle mode, with u'' by central differences of
    # the stored derivative
    lam = complex(re, im)
    assume(abs(2.0 * lam - round(2.0 * re)) > 0.1)
    sol, h = ktype_solution(lam, n, t_max=t + 0.1), 1e-5 * t
    u, du = sol.at(t)
    ddu = (sol.at(t + h)[1] - sol.at(t - h)[1]) / (2.0 * h)
    defect = ddu + du / math.tanh(t) + (0.25 - lam * lam - n * n / math.sinh(t) ** 2) * u
    size = max(abs(ddu), abs(du / math.tanh(t)), abs(n * n * u / math.sinh(t) ** 2), abs(u))
    assert abs(defect) < 1e-8 * size


@mpmath.workdps(30)
def _mp_ktype_profile(lam, n, t):
    """(lambda+1/2)_m / (4^m m!) (2 sinh t)^m phi^S_lambda(t), m = |n|, in
    mpmath's hypergeometric function at 30 digits."""
    m, lam, t = abs(n), mpmath.mpc(lam), mpmath.mpf(t)
    shifted = ktype_space(n)
    rho = mpmath.mpf(shifted.rho)
    front = mpmath.rf(lam + 0.5, m) / (4**m * mpmath.factorial(m))
    phi = mpmath.hyp2f1((rho + lam) / 2, (rho - lam) / 2, rho + 0.5, -mpmath.sinh(t) ** 2)
    return complex(front * (2 * mpmath.sinh(t)) ** m * phi)


@pytest.mark.parametrize("lam, n, t", [(0.7, 3, 300.0), (0.7, 3, 100.0),
                                       (0.8j, 2, 400.0), (1.3 - 0.4j, 5, 250.0)])
def test_ktype_profile_past_the_float_range_of_its_factors(lam, n, t):
    # (2 sinh t)^m and phi^S pass the float range from t = 700 / (m + 1/2
    # - |Re lambda|), but the profile, about e^((|Re lambda| - 1/2) t), does
    # not: it is summed as c_S Q^S times (2 sinh t)^m in one factor.  Measured
    # worst 7.1e-14 (0.7, 3, 300), the rounding of t in e^(-(1/2 +- lambda) t)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = ktype_radial_profile(lam, n, t)
    want = _mp_ktype_profile(lam, n, t)
    assert abs(got - want) / abs(want) < 1e-12


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf, 1e300, 1e4, 400.0])
def test_ktype_profile_refuses_non_finite_and_overflowing_t(t):
    # the profile grows like e^((|Re lambda| - 1/2) t), e^800 at t = 400 for
    # lambda = 2.5 + 0.8i.  (At 0.8i it is refused no longer: at t = 400 it
    # is about 1e-87, though phi of the shifted space is about e^-1000)
    with pytest.raises(OutOfRangeError if math.isfinite(t) else ValueError):
        ktype_radial_profile(2.5 + 0.8j, 2, t)


def test_ktype_profile_is_zero_where_its_spherical_factor_is(monkeypatch):
    # near the lattice the profile is (2 sinh t)^m times phi^S as two floats;
    # a phi^S that rounds to 0 (a zero of an oscillating phi^S) gives the
    # profile 0, and only a nonzero phi^S below the normal floats is refused
    class Zero:
        switch, beyond = 0.0, None

        def __init__(self, u):
            self.u = u

        def pair(self, t):
            return self.u, 1.0

    monkeypatch.setattr(model_h2, "continuation", lambda *args: Zero(0.0))
    assert ktype_radial_profile(1.0, 1, 2.0) == 0.0
    monkeypatch.setattr(model_h2, "continuation", lambda *args: Zero(1e-310))
    with pytest.raises(OutOfRangeError):
        ktype_radial_profile(1.0, 1, 2.0)


@pytest.mark.parametrize("n", [1.5, math.nan, math.inf])
def test_ktype_index_must_be_integral(n):
    with pytest.raises(ValueError):
        ktype_radial_profile(0.8, n, 0.9)
    with pytest.raises(ValueError):
        ktype_space(n)


def test_quadrature_route_matches_kernel_difference():
    zeta, z1, z2 = 0.9 - 0.3j, 0.35, -0.1 + 0.2j
    lhs = resolvent_difference(H2, zeta, distance(z1, z2))
    rhs = resolvent_difference_quadrature(zeta, z1, z2)
    assert abs(lhs - rhs) / abs(lhs) < 1e-6


def test_quadrature_is_deterministic():
    a = resolvent_difference_quadrature(0.7, 0.3, -0.25 + 0.1j)
    b = resolvent_difference_quadrature(0.7, 0.3, -0.25 + 0.1j)
    assert a == b


def test_unsettled_quadrature_warns_and_keeps_the_cap_value():
    args = (0.7, 0.3, -0.25 + 0.1j)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        settled = resolvent_difference_quadrature(*args)
    with pytest.warns(AccuracyWarning, match="not settled"):
        capped = resolvent_difference_quadrature(*args, tol=1e-30)
    assert abs(capped - settled) < 1e-12 * abs(settled)


def test_residue_ranks_first_two():
    assert residue_rank(0) == 1
    rank, gap = residue_rank(1, with_gap=True)
    assert rank == 3
    assert gap >= 1e6
    assert residue_rank(2.0) == 5


def test_residue_rank_refuses_a_k_that_is_not_an_integer():
    # int(k) once cut 1.5 and 1.999 to k = 1 (rank 3), and inf and nan
    # raised Python's own OverflowError and ValueError
    for k in (1.5, 1.999, -0.5):
        with pytest.raises(ValueError, match="not an integer"):
            residue_rank(k)
    for k in (math.inf, -math.inf, math.nan):
        with pytest.raises(NonFiniteInputError):
            residue_rank(k)


def test_oracle_h3_domain():
    with pytest.raises(ValueError):
        oracle_h3(0.5, 0.0)
    assert oracle_h3(0.0, 1.0).phi == pytest.approx(1.0 / math.sinh(1.0), rel=1e-12)


@pytest.mark.parametrize("lam, t", [(math.nan, 1.0), (0.5, math.inf), (0.5, math.nan),
                                    (complex(0.5, math.inf), 1.0), (math.inf, 1.0)])
def test_oracle_h3_refuses_non_finite_input(lam, t):
    # nan or inf once came back as phi = nan+nanj, not as an error
    with pytest.raises(NonFiniteInputError):
        oracle_h3(lam, t)


@pytest.mark.parametrize("k", [512, 520, 1000, 10**4, 10**30])
def test_residue_rank_refuses_a_k_whose_entries_leave_the_float_range(k, monkeypatch):
    # the entries e^(-k A) reach 4^k at the sampled radius 0.6: at k = 520
    # they overflowed (rank 0 after 6 s), at 1e4 the matrix needed 11.9 GiB;
    # now the refusal comes before any entry is made
    def refuse(*args):
        raise AssertionError("an entry was made")

    monkeypatch.setattr(model_h2, "_bracket_grid", refuse)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OutOfRangeError, match="float range"):
            residue_rank(k)
