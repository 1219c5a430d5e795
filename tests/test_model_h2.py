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
from hyperscatter.radial import RadialSolution, eval_phi
from hyperscatter.resolvent import resolvent_difference
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
    # the kernel is even in theta on the base ray: a node set of N angles is
    # sampled at its N/2 + 1 or N/2 angles in [0, pi], so the suite's 20
    # quadratures (112 node sets) take 65,556 kernel samples, where the full
    # circle took 131,072; the doubling still stops where it did
    samples, ends = [], []
    ray_kernel, doubling = model_h2._ray_kernel, model_h2._trapezoid_doubling

    def counted(r, s, thetas):
        samples.append(len(thetas))
        return ray_kernel(r, s, thetas)

    def recorded(*args, **kwargs):
        value, n, ok = doubling(*args, **kwargs)
        ends.append(n)
        return value, n, ok

    monkeypatch.setattr(model_h2, "_ray_kernel", counted)
    monkeypatch.setattr(model_h2, "_trapezoid_doubling", recorded)
    assert all(row.passed for row in check_fatou())
    assert len(samples) == 112 and sum(samples) == 65_556
    per_lambda = [128 << m for m in range(9)] + [128]  # nine Fatou depths, then log 2
    assert ends == 2 * per_lambda


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
    # at lambda = -3/2 the kernel is a trigonometric polynomial of degree 1:
    # (lambda+1/2)_3 = 0, and the profile of n = 3 is 0 on both sides of T_PHI
    for t in (0.8, 2.0):
        assert ktype_radial_profile(-1.5, 3, t) == 0.0
        assert abs(poisson_radial_pair(-1.5, 3, t)[0]) < 1e-14


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


_HUGE = 10**400  # an int no float conversion takes


@pytest.mark.parametrize("call", [
    lambda: ktype_prefactor(1, _HUGE),
    lambda: ktype_radial_profile(0.7, 1, _HUGE),
    lambda: ktype_solution(_HUGE, 1),
    lambda: poisson_radial_pair(0.7, 1, _HUGE),
    lambda: poisson_radial_pair(_HUGE, 1, 1.0),
    lambda: poisson_transform(_HUGE, lambda th: 1.0, 0.3),
    lambda: oracle_h3(0.7, _HUGE),
    lambda: distance(_HUGE, 0.0),
    lambda: horocycle_bracket(0.1, _HUGE),
    lambda: resolvent_difference_quadrature(_HUGE, 0.1, 0.2),
], ids=["prefactor t", "profile t", "solution lambda", "pair t", "pair lambda",
        "transform lambda", "oracle t", "distance z", "bracket theta", "quadrature zeta"])
def test_huge_int_arguments_are_out_of_range(call):
    # each raised a raw OverflowError, "int too large to convert to float"
    with pytest.raises(OutOfRangeError, match="past the floating-point range"):
        call()


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
