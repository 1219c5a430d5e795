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

import pytest

from hyperscatter import boundary
from hyperscatter.cfunction import for_space
from hyperscatter.boundary import boundary_pair
from hyperscatter.errors import AccuracyWarning
from hyperscatter.model_h2 import (
    H2,
    distance,
    horocycle_bracket,
    hyperbolic_laplacian_stencil,
    ktype_radial_profile,
    ktype_solution,
    oracle_h3,
    poisson_radial_pair,
    poisson_transform,
    r_of_t,
    residue_rank,
    resolvent_difference_quadrature,
)
from hyperscatter.radial import continuation, eval_phi
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
    lam, n = 0.8, 2
    sol = ktype_solution(lam, n)
    pair = boundary_pair(H2, lam, sol)
    assert abs(pair.a_minus - _CF.value(lam)) / abs(_CF.value(lam)) < 1e-8
    # profile accessor agrees with the solved object inside its range
    t = 0.9
    assert abs(ktype_radial_profile(lam, n, t) - sol(t)) < 1e-10


def test_ktype_profile_normalizes_once_per_cache_entry(monkeypatch):
    # the c(lambda)/a_minus factor is kept with the cached solution: a
    # profile on a grid pays one connection solve, and each value is the
    # one a fresh cache gives
    calls = []

    def counting(*args):
        calls.append(args)
        return real(*args)

    real = boundary._connection_solve
    monkeypatch.setattr(boundary, "_connection_solve", counting)
    grid = [0.05 + 0.15 * i for i in range(20)]
    continuation.cache_clear()
    profile = [ktype_radial_profile(0.8, 2, t) for t in grid]
    assert len(calls) == 1
    fresh = []
    for t in grid:
        continuation.cache_clear()
        fresh.append(ktype_radial_profile(0.8, 2, t))
    assert profile == fresh


def test_ktype_profile_matches_poisson_quadrature():
    # independent route: angular Fourier mode of the Poisson transform
    lam, n, t = 1.1, 1, 0.8
    u, _ = poisson_radial_pair(lam, n, t)
    assert abs(ktype_radial_profile(lam, n, t) - u) / abs(u) < 1e-7


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


def test_oracle_h3_domain():
    with pytest.raises(ValueError):
        oracle_h3(0.5, 0.0)
    assert oracle_h3(0.0, 1.0).phi == pytest.approx(1.0 / math.sinh(1.0), rel=1e-12)
