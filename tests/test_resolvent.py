"""Continued resolvent kernel: closed form on H3, the two-kernel difference
identity, pole signalling, and the Green-representation application."""

import cmath
import math

import numpy as np
import pytest
from scipy.integrate import quad

from hyperscatter.cfunction import for_space
from hyperscatter.errors import NonFiniteInputError, PoleSignal
from hyperscatter.model_h2 import oracle_h3
from hyperscatter.radial import eval_phi
from hyperscatter.resolvent import (
    ResolventApplication,
    apply_radial,
    kernel,
    kernel_at,
    resolvent_difference,
    spectral_density_kernel,
)
from hyperscatter.space import space_from_name

H2 = space_from_name("h2")
H3 = space_from_name("h3")


def test_h3_kernel_closed_form():
    # Q_{i zeta} = e^{-(1+i zeta)t}/(1-e^{-2t}) and c(i zeta) = 1/(i zeta)
    # collapse the normalization to 1/2.
    for zeta in (0.8, 1.5 - 0.4j, 2.0 + 1.0j):
        for t in (0.4, 1.0, 2.5):
            expect = (cmath.exp(-(1.0 + 1j * zeta) * t)
                      / (2.0 * (1.0 - math.exp(-2.0 * t))))
            got = kernel(H3, zeta, t)
            assert abs(got - expect) / abs(expect) < 1e-10


def test_difference_identity_cross_route():
    # R_{-zeta} - R_zeta = i phi_{i zeta} / (2 kappa zeta czz(zeta))
    for name in ("h2", "chn:2"):
        space = space_from_name(name)
        cf = for_space(space)
        for zeta in (0.7, 1.2 - 0.5j):
            for t in (0.8, 2.0):
                lhs = resolvent_difference(space, zeta, t)
                rhs = (1j * eval_phi(space, 1j * zeta, t)
                       / (2.0 * space.kappa * zeta * cf.czz(zeta)))
                assert abs(lhs - rhs) / abs(rhs) < 1e-9, (name, zeta, t)


def test_kernel_domain_and_poles():
    with pytest.raises(ValueError):
        kernel(H2, 0.0, 1.0)
    with pytest.raises(ValueError):
        kernel(H2, 0.7, 0.0)
    with pytest.raises(ValueError):
        kernel(H2, 0.7, -1.0)
    with pytest.raises(PoleSignal) as info:
        kernel(H2, 0.5j, 1.0)  # first resonance
    assert info.value.at == 0.5j


def test_kernel_at_reuse_matches_pointwise():
    k = kernel_at(H2, 1.1 - 0.3j)
    for t in (0.5, 1.5):
        assert k(t) == kernel(H2, 1.1 - 0.3j, t)


def test_spectral_density_kernel_real_and_positive_near_coincidence():
    # weight phi_{i zeta}(t) / (4 pi kappa zeta czz(zeta)); real for real
    # zeta, positive as t -> 0 where phi -> 1
    cf = for_space(H2)
    for s in (0.8, 1.5):
        zeta = math.sqrt(s / H2.kappa)
        for t in (0.05, 0.4):
            val = spectral_density_kernel(H2, s, t)
            expect = (eval_phi(H2, 1j * zeta, t)
                      / (4.0 * math.pi * H2.kappa * zeta * cf.czz(zeta)))
            assert abs(val - expect) < 1e-12 * max(1.0, abs(expect))
            assert abs(val.imag) < 1e-12
        assert spectral_density_kernel(H2, s, 0.05).real > 0.0
    with pytest.raises(ValueError):
        spectral_density_kernel(H2, -1.0, 0.5)


def test_apply_radial_solves_the_inhomogeneous_equation():
    space = H2
    zeta = 0.9 - 0.2j

    def f(t):
        # smooth bump supported in [0.5, 1.5]
        if not 0.5 < t < 1.5:
            return 0.0
        x = (t - 0.5) / 1.0
        return math.exp(-1.0 / (x * (1.0 - x)))

    u = apply_radial(space, zeta, f, (0.5, 1.5))
    assert u.residual() < 5e-6
    # linearity in f at a sample point
    u2 = apply_radial(space, zeta, lambda t: 2.0 * f(t), (0.5, 1.5))
    a, b = u(1.0), u2(1.0)
    assert abs(b - 2.0 * a) < 1e-10 * max(1.0, abs(b))


def test_apply_radial_grid_matches_pointwise():
    space = H3
    zeta = 1.3

    def f(t):
        return math.sin(math.pi * (t - 0.4)) if 0.4 <= t <= 1.4 else 0.0

    u = apply_radial(space, zeta, f, (0.4, 1.4))
    ts = np.array([0.3, 0.8, 1.2, 2.0])
    grid = u.on_grid(ts)
    for t, g in zip(ts, grid):
        assert abs(g - u(t)) < 1e-9 * max(1.0, abs(g))
    with pytest.raises(ValueError):
        u.on_grid(np.array([1.0, 0.5]))


def test_apply_radial_below_the_support_matches_closed_form_green():
    # Green representation from the closed-form H3 phi and Q; the grid
    # reaches far below t_a / 4, where Q must be continued toward t = 0
    zeta, (t_a, t_b) = 0.7 - 0.4j, (0.3, 1.2)
    lam = 1j * zeta

    def f(s):
        return math.exp(-((s - 0.75) / 0.15) ** 2)

    def integral(g, lo, hi):
        if hi <= lo:
            return 0j
        return quad(lambda s: g(s) * f(s) * (2.0 * math.sinh(s)) ** 2, lo, hi,
                    complex_func=True, epsabs=0.0, epsrel=1e-13)[0]

    def phi(s):
        return oracle_h3(lam, s).phi

    def q(s):
        return oracle_h3(lam, s).Q

    norm = 1.0 / (2j * H3.kappa * zeta * oracle_h3(lam, 1.0).c)
    ts = [0.005, 0.015, 0.5, 2.0]
    got = apply_radial(H3, zeta, f, (t_a, t_b)).on_grid(ts)
    for t, g in zip(ts, got):
        lo = min(max(t, t_a), t_b)
        want = norm * (q(t) * integral(phi, t_a, lo) + phi(t) * integral(q, lo, t_b))
        assert abs(g - want) / abs(want) < 1e-8, t


def test_kernel_matches_mpmath_above_the_axis(mp_c, mp_jacobi):
    # Im zeta >= 6, where lambda = i zeta has Re lambda <= -6 and Q, run
    # backward from log 2, is the recessive solution: the ODE was 2e-3 off
    # at hhn:2, zeta = -1.1 + 19.6i.  Off the resonances (c(i zeta) = 0)
    # and the half-integer exclusion set of Q.
    _, mp_q = mp_jacobi
    zetas = (-1.1 + 19.6j, 0.7 + 6.3j, -2.4 + 9.1j, 1.3 + 14.7j, 0.2 + 18.05j)
    for name in ("h2", "h3", "chn:2", "hhn:2", "oh2", "hn:7"):
        space = space_from_name(name)
        for zeta in zetas:
            norm = 2j * space.kappa * zeta * mp_c(space, 1j * zeta)
            for t in (0.005, 0.02, 0.1):
                want = mp_q(space, 1j * zeta, t) / complex(norm)
                got = kernel(space, zeta, t)
                assert abs(got - want) / abs(want) < 1e-12, (name, zeta, t)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_t_names_itself(bad):
    # t = -inf once read "singular at coincident points" from the kernel and
    # "need t > 0" from the application: the sign was tested first.  An
    # infinite end of the support was accepted, and the first call
    # overflowed in sinh
    zeta = 0.3 + 0.2j
    app = ResolventApplication(H2, zeta, lambda s: 1.0, (0.2, 1.0))
    for call in (lambda: kernel(H2, zeta, bad), lambda: kernel_at(H2, zeta)(bad),
                 lambda: app(bad), lambda: apply_radial(H2, zeta, lambda s: 1.0, (0.5, bad)),
                 lambda: apply_radial(H2, zeta, lambda s: 1.0, (bad, 1.0))):
        with pytest.raises(NonFiniteInputError, match="t = .* is not finite"):
            call()
