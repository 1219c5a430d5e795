"""Disk model of the (1, 0) space: geometry, Poisson transform, K-type
profiles, laplacian stencil, quadrature route, residue ranks.

Stencil checks draw from the window where the five-point oracle itself
resolves 1e-6 (moderate lambda, points near the center, boundary angle on
the far side); the eigen-identity is exact, the finite-difference reference
is not.
"""

import cmath
import functools
import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hyperscatter.cfunction import digamma, for_space, log_gamma
from hyperscatter.boundary import boundary_pair, bv_limit
from hyperscatter import model_h2
from hyperscatter.errors import (AccuracyWarning, IllConditionedError, NonFiniteInputError,
                                 OutOfRangeError)
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
from hyperscatter.radial import (RadialSolution, abel_wronskian, connection_coefficients,
                                 eval_phi, eval_Q, frobenius_Q, integrate_radial_ode,
                                 phi_solution, q_solution, wronskian_limit)
from hyperscatter.resolvent import (apply_radial, kernel, kernel_at, resolvent_difference,
                                    spectral_density_kernel)
from hyperscatter.resonances import enumerate_resonances, residue_contour_probe, residue_kernel
from hyperscatter.scattering import find_scalar_poles, ktype_eigenvalue, scalar
from hyperscatter.space import make_space
from hyperscatter.verify import check_fatou

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


def test_poisson_quadratures_refuse_bad_input(monkeypatch):
    # a non-integral n is not truncated, and a nan or infinite argument is
    # refused before any node is sampled (poisson_radial_pair samples its
    # kernel with _ray_kernel, poisson_transform with _bracket_grid)
    def refuse(*args):
        raise AssertionError("a node was sampled")

    monkeypatch.setattr(model_h2, "_bracket_grid", refuse)
    monkeypatch.setattr(model_h2, "_ray_kernel", refuse)
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
    # so is a K-type whose first grid, 4|n| nodes, leaves no doubling below
    # 2^17 (at 10^300 the circle's powers overflowed, and the refusal came
    # after 2^17 nodes)
    for n in (2**14 + 1, [0, -10**300]):
        with pytest.raises(OutOfRangeError, match="nodes"):
            poisson_radial_pair(0.7, n, 0.3)


def test_fatou_suite_samples_half_the_circle(monkeypatch):
    # the kernel is even in theta on the base ray, and the graded nodes keep
    # it even: a node set of N angles is sampled at its N/2 + 1 or N/2
    # angles in [0, pi].  The suite's 20 quadratures take 65 node sets and
    # 7,700 kernel samples and stop at 15,360 nodes in all; uniform nodes
    # took 112 node sets, 65,556 samples and 131,072 nodes, doubling with
    # every Fatou depth up to 32,768
    samples, ends = [], []
    ray_kernel, doubling = model_h2._ray_kernel, model_h2._trapezoid_doubling

    def counted(r, s, h):
        samples.append(len(h))
        return ray_kernel(r, s, h)

    def recorded(*args, **kwargs):
        value, n, ok = doubling(*args, **kwargs)
        ends.append(n)
        return value, n, ok

    monkeypatch.setattr(model_h2, "_ray_kernel", counted)
    monkeypatch.setattr(model_h2, "_trapezoid_doubling", recorded)
    assert all(row.passed for row in check_fatou())
    assert len(samples) == 65 and sum(samples) == 7_700
    # per lambda: nine Fatou depths, then log 2
    assert ends == [128, 256, 512, 512, 512, 1024, 1024, 1024, 2048, 128,
                    128, 256, 512, 512, 512, 1024, 1024, 2048, 2048, 128]
    assert sum(ends) == 15_360


# the node counts at which uniform nodes settled, for the cases of
# test_high_ktypes_match_mpmath (lambda = 0.7) and
# test_ktype_profile_matches_poisson_quadrature (the five lambda of its loop,
# and -3/2 at n = 3), by (|n|, t)
_UNIFORM_NODES = [
    ((0.7,), {(64, 1.0): 512, (64, 3.0): 1024, (128, 1.0): 1024, (128, 3.0): 1024,
              (150, 1.0): 2048, (150, 3.0): 2048, (400, 1.0): 4096, (400, 3.0): 4096,
              (600, 1.0): 8192, (600, 3.0): 8192}),
    ((1.1, 0.8 - 0.6j, 0.5, 1.0, 1.5),
     {(n, t): 256 if t == 2.0 else 128 for n in range(4) for t in (0.3, 0.8, 2.0)}),
    ((-1.5,), {(3, 0.8): 128, (3, 2.0): 128}),
]


def test_graded_nodes_take_no_more_nodes_than_uniform_ones(monkeypatch):
    # the grading turns itself off (k = 1) where high K-types leave it
    # nothing to gain, so no case takes more nodes than uniform ones did
    ends = []
    doubling = model_h2._trapezoid_doubling

    def recorded(*args, **kwargs):
        value, n, ok = doubling(*args, **kwargs)
        ends.append(n)
        return value, n, ok

    monkeypatch.setattr(model_h2, "_trapezoid_doubling", recorded)
    for lams, uniform in _UNIFORM_NODES:
        for (n, t), most in uniform.items():
            for lam in lams:
                poisson_radial_pair(lam, n, t)
                assert ends.pop() <= most, (lam, n, t)


@pytest.mark.parametrize("lam", [0.7, 1.1 - 0.3j, 0.8 + 0.6j])
@pytest.mark.parametrize("t", [0.3, 1.0, -math.log(0.3 * 0.5**8)])
def test_poisson_radial_pair_matches_mpmath_at_the_fatou_depths(lam, t):
    # u and du/dt of the nine K-types against the hypergeometric profile and
    # mpmath.diff of it; the deepest t is the fatou suite's last depth.
    # Measured worst 2.2e-14 relative (2.1e-13 where the kernel came from
    # complex exp and log of |r - e^{i theta}|^2, which cancels near 0)
    pairs = poisson_radial_pair(lam, range(-4, 5), t)
    for n, (u, du) in zip(range(-4, 5), pairs):
        want, dwant = _mp_ktype_pair(lam, n, t)
        assert abs(u - want) < 1e-12 * abs(want), (n, "u")
        assert abs(du - dwant) < 1e-12 * abs(dwant), (n, "du")


@pytest.mark.parametrize("t", [9.0, 10.0])
def test_poisson_radial_pair_answers_past_the_uniform_nodes_reach(t):
    # uniform nodes did not settle by 2^17 nodes past t = 8.3 and raised
    # QuadratureError; graded ones take about 1/sqrt(1 - r) nodes.  Measured
    # worst 1.5e-15 relative.  1 - r and 1 + r are made from t: formed from
    # the float r = tanh(t/2), 1 - r left the pairs 1.4e-13 (t = 9) and
    # 1.7e-13 (t = 10) off
    for lam in (0.7, 1.1 - 0.3j, 0.8 + 0.6j):
        pairs = poisson_radial_pair(lam, range(-4, 5), t)
        for n, (u, du) in zip(range(-4, 5), pairs):
            want, dwant = _mp_ktype_pair(lam, n, t)
            assert abs(u - want) < 1e-14 * abs(want), (lam, n, "u")
            assert abs(du - dwant) < 1e-14 * abs(dwant), (lam, n, "du")


@pytest.mark.parametrize("call", [
    lambda: poisson_transform(0.7, lambda th: 1.0, 1.5),
    lambda: poisson_transform(0.7, lambda th: 1.0, 1.0),
    # r(40) = tanh(20) rounds to 1
    lambda: poisson_radial_pair(0.7, 1, 40.0),
    # the stencil read -0.0 at z = 2 and raised a raw OverflowError from
    # |z|^2 at the two huge z
    lambda: hyperbolic_laplacian_stencil(lambda z: 1.0, 2.0),
    lambda: hyperbolic_laplacian_stencil(lambda z: 1.0, 1e200),
    lambda: hyperbolic_laplacian_stencil(lambda z: 1.0, 1e308 + 1e308j),
], ids=["z=1.5", "z=1", "t=40", "stencil z=2", "stencil z=1e200", "stencil z=1e308+1e308j"])
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
    # at lambda = -3/2 the kernel is a trigonometric polynomial of degree 1:
    # (lambda+1/2)_3 = 0, and the profile of n = 3 is 0 on both sides of T_PHI
    for t in (0.8, 2.0):
        assert ktype_radial_profile(-1.5, 3, t) == 0.0
        assert abs(poisson_radial_pair(-1.5, 3, t)[0]) < 1e-14
    # the factor is 0 at lambda + 1/2 = -j for 0 <= j < |n| only, decided
    # without a product over |n| factors: at 10**400 the shifted space
    # itself is what passes the float range
    assert ktype_radial_profile(-0.5, 1, 1.0) == 0.0 != ktype_radial_profile(-2.5, 2, 1.0)
    with pytest.raises(OutOfRangeError, match="2 rho"):
        ktype_solution(-2.5, 10**400)


@pytest.mark.parametrize("n", [64, 128, 150, 400, 600])
def test_high_ktypes_match_mpmath(n):
    # the doubling began at 64 nodes for every n, and N nodes read mode n
    # with the modes n +- N: 64 and 128 nodes both read mode 128 as mode 0
    # (1.0585, against 3.5e-43 at t = 1) and called it settled.  The
    # quadrature's error is absolute, about 1e-16 of the kernel's size
    # (measured worst 4.7e-15).  ktype_solution's (lambda+1/2)_m / (4^m m!)
    # raised OverflowError from m = 134 on (measured worst 1.8e-14 relative
    # below T_PHI, n = 400), and at m = 600 it is below the normal floats,
    # where it read 0.  Past T_PHI the c Q terms of phi on the shifted space
    # cancel: at n = 150, t = 3 they read 67 % off; n = 64 reads 6.2e-10
    # off, and n = 400 has a Frobenius coefficient of Q past the float range
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for t in (1.0, 3.0):
            want = _mp_ktype_profile(0.7, n, t)
            u, _ = poisson_radial_pair(0.7, n, t)
            assert abs(u - want) < 5e-14, (n, t)
            if n == 600 or (t > 1.5 and n >= 128):
                with (pytest.raises(IllConditionedError if n < 400 else OutOfRangeError),
                      warnings.catch_warnings()):
                    warnings.simplefilter("ignore", AccuracyWarning)  # Q's tail past n = 100
                    ktype_radial_profile(0.7, n, t)
            else:
                got = ktype_radial_profile(0.7, n, t)
                assert abs(got - want) < (1e-13 if t < 1.5 else 1e-8) * abs(want), (n, t)


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


def _mp_profile(lam, n, t):
    """(lambda+1/2)_m / (4^m m!) (2 sinh t)^m phi^S_lambda(t), m = |n|, as
    an mpmath number from the hypergeometric function."""
    m, lam = abs(n), mpmath.mpc(lam)
    rho = mpmath.mpf(ktype_space(n).rho)
    front = mpmath.rf(lam + 0.5, m) / (4**m * mpmath.factorial(m))
    phi = mpmath.hyp2f1((rho + lam) / 2, (rho - lam) / 2, rho + 0.5, -mpmath.sinh(t) ** 2)
    return front * (2 * mpmath.sinh(t)) ** m * phi


@mpmath.workdps(30)
def _mp_ktype_profile(lam, n, t):
    """The K-type profile at 30 digits, as a complex."""
    return complex(_mp_profile(lam, n, mpmath.mpf(t)))


@mpmath.workdps(30)
def _mp_ktype_pair(lam, n, t):
    """(profile, d/dt profile) at 30 digits, the derivative by mpmath.diff."""
    t = mpmath.mpf(t)
    return (complex(_mp_profile(lam, n, t)),
            complex(mpmath.diff(lambda x: _mp_profile(lam, n, x), t)))


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


@pytest.mark.parametrize("lam, n", [(0.7, 10**7), (0.7, 10**400), (1e300, 10**400),
                                    (-3.5 + 1e-9j, -(10**400))])
def test_ktype_solution_refuses_a_huge_index_without_a_factor_per_degree(lam, n, monkeypatch):
    # (lambda+1/2)_m / (4^m m!) was a product of all m factors, and its
    # zero test another pass over them: n = 10**6 took 0.39 s to refuse and
    # n = 10**400 never returned.  The product leaves the normal floats
    # within about 500 factors (at once where a factor overflows), and the
    # refusal comes before the shifted space is built
    def refuse(*args):
        raise AssertionError("the shifted space was built")

    monkeypatch.setattr(model_h2, "ktype_space", refuse)
    with pytest.raises(OutOfRangeError, match="leaves the floating-point range at factor"):
        ktype_solution(lam, n)


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf, 1e300, 1e4, 400.0])
def test_ktype_profile_refuses_non_finite_and_overflowing_t(t):
    # the profile grows like e^((|Re lambda| - 1/2) t), e^800 at t = 400 for
    # lambda = 2.5 + 0.8i.  (At 0.8i it is refused no longer: at t = 400 it
    # is about 1e-87, though phi of the shifted space is about e^-1000.)  A
    # nan t raised a plain ValueError
    with pytest.raises(OutOfRangeError if math.isfinite(t) else NonFiniteInputError):
        ktype_radial_profile(2.5 + 0.8j, 2, t)


def test_ktype_profile_is_zero_where_its_spherical_factor_is(monkeypatch):
    # near the lattice the profile is (2 sinh t)^m times phi^S as two floats;
    # a phi^S that rounds to 0 (a zero of an oscillating phi^S) gives the
    # profile 0, and only a nonzero phi^S below the normal floats is refused,
    # as is a (2 sinh t)^m below them, before phi^S is read: at n = 10^5,
    # t = 0.3 that read takes 15 s
    class Zero:
        switch, end, beyond = 0.0, math.inf, None

        def __init__(self, u):
            self.u = u

        def pair(self, t):
            return self.u, 1.0

    monkeypatch.setattr(model_h2, "continuation", lambda *args: Zero(0.0))
    assert ktype_radial_profile(1.0, 1, 2.0) == 0.0
    monkeypatch.setattr(model_h2, "continuation", lambda *args: Zero(1e-310))
    with pytest.raises(OutOfRangeError):
        ktype_radial_profile(1.0, 1, 2.0)
    monkeypatch.setattr(Zero, "pair", None)  # reading phi^S fails the test
    with pytest.raises(OutOfRangeError):
        ktype_radial_profile(1.0, 200, 0.01)


def test_ktype_prefactor_refuses_non_finite_and_overflowing_t():
    # it returned (nan, nan) at a nan t, and raised a raw OverflowError
    # where sinh t or (2 sinh t)^m passes the float range; at the last t
    # (2 sinh t)^300 is about 1e307 and only its derivative overflows
    for n in (0, 1, 3):
        for t in (math.nan, math.inf, -math.inf):
            with pytest.raises(NonFiniteInputError, match="t = .* is not finite"):
                ktype_prefactor(n, t)
    for n, t in ((1, 1000.0), (300, 5.0), (2, -1000.0),
                 (300, math.asinh(0.5 * 10 ** (307 / 300)))):
        with pytest.raises(OutOfRangeError, match=f"at t = {t}"):
            ktype_prefactor(n, t)
    p, dp = ktype_prefactor(300, 2.0)
    assert p == (2.0 * math.sinh(2.0)) ** 300 and math.isfinite(dp)


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
    # sinh t and sinh(lambda t) past the float range raised OverflowError
    for lam, t in ((0.5, 1000.0), (1e300, 1.0), (-800.0, 1.0)):
        with pytest.raises(OutOfRangeError, match="floating-point range"):
            oracle_h3(lam, t)


@pytest.mark.parametrize("lam, t", [(math.nan, 1.0), (0.5, math.inf), (0.5, math.nan),
                                    (complex(0.5, math.inf), 1.0), (math.inf, 1.0)])
def test_oracle_h3_refuses_non_finite_input(lam, t):
    # nan or inf once came back as phi = nan+nanj, not as an error
    with pytest.raises(NonFiniteInputError):
        oracle_h3(lam, t)


# -- the argument contract of every public scalar entry point -----------------
#
# Aim 3: whatever its input, an entry point returns a finite value or raises
# a hyperscatter.errors type.  One row per (entry point, argument): the call
# with the bad value x in that argument's place, and the name its message
# must start with.  Each raised a raw OverflowError at 10**400 before the
# one gate in ``errors`` (``int too large to convert to float``), r_of_t
# returned nan at a nan t, and the model_h2 rows were the first fixed.


def _samples(y0, u):
    """bv_limit's seven samples, y0 and 0.1 2^-m after it, every u = u."""
    return [(y0, u)] + [(0.1 * 2.0**-m, u) for m in range(1, 7)]


@functools.cache
def _fixtures():
    """(first H2 resonance, a phi solution to t = 2, an apply_radial)."""
    return (enumerate_resonances(H2, 1)[0], phi_solution(H2, 0.7, 2.0),
            apply_radial(H2, 0.7, lambda s: 1.0, (0.2, 1.0)))


_CONTRACT = [
    ("prefactor t", "t", lambda x: ktype_prefactor(1, x)),
    ("profile t", "t", lambda x: ktype_radial_profile(0.7, 1, x)),
    ("profile lambda", "lambda", lambda x: ktype_radial_profile(x, 1, 1.0)),
    ("solution lambda", "lambda", lambda x: ktype_solution(x, 1)),
    ("solution t_max", "t", lambda x: ktype_solution(0.7, 1, x)),
    ("pair t", "t", lambda x: poisson_radial_pair(0.7, 1, x)),
    ("pair lambda", "lambda", lambda x: poisson_radial_pair(x, 1, 1.0)),
    ("transform lambda", "lambda", lambda x: poisson_transform(x, lambda th: 1.0, 0.3)),
    ("transform z", "z", lambda x: poisson_transform(0.7, lambda th: 1.0, x)),
    ("oracle t", "t", lambda x: oracle_h3(0.7, x)),
    ("oracle lambda", "lambda", lambda x: oracle_h3(x, 1.0)),
    ("distance z", "z1", lambda x: distance(x, 0.0)),
    ("bracket theta", "theta", lambda x: horocycle_bracket(0.1, x)),
    ("bracket z", "z", lambda x: horocycle_bracket(x, 0.3)),
    ("quadrature zeta", "zeta", lambda x: resolvent_difference_quadrature(x, 0.1, 0.2)),
    ("quadrature z2", "z2", lambda x: resolvent_difference_quadrature(0.7, 0.1, x)),
    ("stencil z", "z", lambda x: hyperbolic_laplacian_stencil(lambda z: 1.0, x)),
    ("r_of_t t", "t", r_of_t),
    ("eval_phi lambda", "lambda", lambda x: eval_phi(H2, x, 1.0)),
    ("eval_phi lambda at 0", "lambda", lambda x: eval_phi(H2, x, 0.0)),
    ("eval_phi t", "t", lambda x: eval_phi(H2, 0.7, x)),
    ("eval_phi t array", "t", lambda x: eval_phi(H2, 0.7, np.array([0.5, x]))),
    ("eval_Q lambda", "lambda", lambda x: eval_Q(H2, x, 1.0)),
    ("eval_Q t", "t", lambda x: eval_Q(H2, 0.7, x)),
    ("frobenius_Q lambda", "lambda", lambda x: frobenius_Q(H2, x)),
    ("connection lambda", "lambda", lambda x: connection_coefficients(H2, x)),
    ("abel lambda", "lambda", lambda x: abel_wronskian(H2, x, 1.0)),
    ("abel t", "t", lambda x: abel_wronskian(H2, 0.7, x)),
    ("wronskian lambda", "lambda", lambda x: wronskian_limit(H2, x)),
    ("phi_solution lambda", "lambda", lambda x: phi_solution(H2, x, 2.0)),
    ("phi_solution t_max", "t", lambda x: phi_solution(H2, 0.7, x)),
    ("q_solution lambda", "lambda", lambda x: q_solution(H2, [0.7, x], 0.5)),
    ("q_solution t_min", "t", lambda x: q_solution(H2, 0.7, x)),
    ("integrate lambda", "lambda",
     lambda x: integrate_radial_ode(H2, [x], (0.2, 2.0), [(1.0, 0.0)])),
    ("integrate t", "t", lambda x: integrate_radial_ode(H2, [0.7], (0.2, x), [(1.0, 0.0)])),
    ("solution at t", "t", lambda x: _fixtures()[1].at(x)),
    ("c value", "lambda", lambda x: _CF.value(x)),
    ("c derivative", "lambda", lambda x: _CF.derivative(x)),
    ("c local_expansion", "lambda", lambda x: _CF.local_expansion(x)),
    ("c zero_order", "lambda", lambda x: _CF.zero_order(x)),
    ("c array", "lambda", lambda x: _CF.value(np.array([0.5, x]))),
    ("czz", "zeta", lambda x: _CF.czz(x)),
    ("czz_expansion", "zeta", lambda x: _CF.czz_expansion(x)),
    ("czz_and_derivative", "zeta", lambda x: _CF.czz_and_derivative(x)),
    ("czz array", "zeta", lambda x: _CF.czz(np.array([0.5, x]))),
    ("plancherel zeta", "zeta", lambda x: _CF.plancherel_density(x)),
    ("log_gamma z", "z", log_gamma),
    ("digamma z", "z", digamma),
    ("kernel zeta", "zeta", lambda x: kernel(H2, x, 1.0)),
    ("kernel t", "t", lambda x: kernel(H2, 0.7, x)),
    ("kernel_at zeta", "zeta", lambda x: kernel_at(H2, x)),
    ("kernel_at t", "t", lambda x: kernel_at(H2, 0.7)(x)),
    ("difference zeta", "zeta", lambda x: resolvent_difference(H2, x, 1.0)),
    ("spectral s", "s", lambda x: spectral_density_kernel(H2, x, 1.0)),
    ("spectral t", "t", lambda x: spectral_density_kernel(H2, 0.5, x)),
    ("apply zeta", "zeta", lambda x: apply_radial(H2, x, lambda s: 1.0, (0.2, 1.0))),
    ("apply support", "t", lambda x: apply_radial(H2, 0.7, lambda s: 1.0, (0.2, x))),
    ("apply call", "t", lambda x: _fixtures()[2](x)),
    ("apply on_grid", "t", lambda x: _fixtures()[2].on_grid([0.5, x])),
    ("scalar zeta", "zeta", lambda x: scalar(H2, x)),
    ("scalar array", "zeta", lambda x: scalar(H2, np.array([0.5, x]))),
    ("ktype_eigenvalue zeta", "zeta", lambda x: ktype_eigenvalue(x, 1)),
    ("find_scalar_poles im_lo", "im_lo", lambda x: find_scalar_poles(H2, x)),
    ("find_scalar_poles step", "step", lambda x: find_scalar_poles(H2, step=x)),
    ("residue_kernel t", "t", lambda x: residue_kernel(H2, _fixtures()[0], x)),
    ("contour probe t", "t", lambda x: residue_contour_probe(H2, _fixtures()[0], x)),
    ("bv_limit lambda", "lambda", lambda x: bv_limit(H2, x, _samples(0.1, 1.0))),
    ("bv_limit y", "y", lambda x: bv_limit(H2, 0.7, _samples(x, 1.0))),
    ("bv_limit u", "u", lambda x: bv_limit(H2, 0.7, _samples(0.1, x))),
    ("boundary_pair lambda", "lambda", lambda x: boundary_pair(H2, x, _fixtures()[1])),
    ("density_J y", "y", lambda x: H2.density_J(x)),
    ("density_J_t t", "t", lambda x: H2.density_J_t(x)),
    ("density_J_t array", "t", lambda x: H2.density_J_t([0.5, x])),
    ("log_density_dot t", "t", lambda x: H2.log_density_dot(x)),
    ("space kappa", "kappa", lambda x: make_space(1, 0, x)),
]
_CONTRACT_IDS = [row[0] for row in _CONTRACT]


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(0.5, math.inf)],
                         ids=["nan", "inf", "-inf", "0.5+infj"])
@pytest.mark.parametrize("_, name, call", _CONTRACT, ids=_CONTRACT_IDS)
def test_non_finite_arguments_name_themselves(_, name, call, bad):
    with pytest.raises(NonFiniteInputError, match=f"^{name} = .* is not finite$"):
        call(bad)


@pytest.mark.parametrize("_, name, call", _CONTRACT, ids=_CONTRACT_IDS)
def test_huge_int_arguments_are_out_of_range(_, name, call):
    for huge in (10**400, -10**400):  # ints no float conversion takes
        with pytest.raises(OutOfRangeError, match=f"^{name} is past the floating-point range$"):
            call(huge)


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
