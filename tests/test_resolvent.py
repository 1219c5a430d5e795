"""Continued resolvent kernel: closed form on H3, the two-kernel difference
identity, pole signalling, and the Green-representation application."""

import cmath
import math
import random
import warnings

import numpy as np
import pytest
from scipy.integrate import quad

from hyperscatter import quadpack, resolvent
from hyperscatter.cfunction import for_space
from hyperscatter.errors import NonFiniteInputError, PoleSignal, QuadratureError
from hyperscatter.model_h2 import oracle_h3
from hyperscatter.radial import eval_phi, eval_Q
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


def test_apply_radial_on_an_empty_grid_is_empty(monkeypatch):
    # an empty grid read ts[0] and raised a raw IndexError; it now gives an
    # empty complex array with no quadrature and no call to f
    def f(t):
        raise AssertionError("f called on an empty grid")

    def no_quad(*args, **kwargs):
        raise AssertionError("quadrature on an empty grid")

    monkeypatch.setattr(resolvent, "quad", no_quad)
    for ts in ([], np.array([])):
        got = apply_radial(H2, 0.9 - 0.2j, f, (0.3, 1.2)).on_grid(ts)
        assert got.shape == (0,) and got.dtype == complex


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


def _scalar(g):
    """The array integrand g of resolvent.quad read at one node."""
    return lambda s: complex(g(np.array([s]))[0])


def _scipy_quad(epsabs, epsrel):
    """resolvent.quad's contract by scipy's quad, real and imaginary parts
    integrated apart, as the library integrated before its own rule."""
    def integrate(g, lo, hi):
        return quad(_scalar(g), lo, hi, complex_func=True, epsabs=epsabs, epsrel=epsrel,
                    limit=200)[0]

    return integrate


@pytest.mark.parametrize("name", ["h2", "oh2", "chn:2"])
def test_apply_radial_grid_matches_a_scipy_quad_reference(monkeypatch, name):
    # the Green representation with every segment integrated by scipy's
    # quad to 1e-13 agrees with on_grid to 1e-10; and on_grid makes at
    # most half the integrand calls it made with scipy's quad at the
    # library's tolerances, which evaluated each node twice (126 against
    # 252 on each family here)
    space, zeta, (t_a, t_b) = space_from_name(name), 0.9 - 0.2j, (0.3, 1.2)
    ts = [0.2, 0.6, 0.9, 2.0]
    lam = 1j * zeta
    calls = []

    def f(s):
        calls.append(s)
        return math.exp(-((s - 0.75) / 0.15) ** 2)

    got = apply_radial(space, zeta, f, (t_a, t_b)).on_grid(ts)
    ours = len(calls)
    integral = _scipy_quad(0.0, 1e-13)
    norm = 1.0 / (2j * space.kappa * zeta * for_space(space).value(lam))

    def weighted(g):  # scalar reads, one per node
        return lambda s: np.array([g(space, lam, x) * f(x) * space.density_J_t(x)
                                   for x in s.tolist()])

    for t, g in zip(ts, got):
        lo = min(max(t, t_a), t_b)
        want = norm * (eval_Q(space, lam, t) * integral(weighted(eval_phi), t_a, lo)
                       + eval_phi(space, lam, t) * integral(weighted(eval_Q), lo, t_b))
        assert abs(g - want) / abs(want) < 1e-10, t
    monkeypatch.setattr(resolvent, "quad", _scipy_quad(1e-13, 1e-10))
    calls.clear()
    before = apply_radial(space, zeta, f, (t_a, t_b)).on_grid(ts)
    assert 0 < 2 * ours <= len(calls)
    assert np.max(np.abs(got - before) / np.abs(before)) < 1e-10


def test_quadrature_rule_and_its_interval_budget():
    # a polynomial of degree 19, which the 10 Gauss nodes integrate exactly
    # as well as the 21 Kronrod nodes, settles on one interval; an
    # integrand that turns 30,000 times over the support cannot settle in
    # 200 intervals (nor could scipy's quad at the same tolerances and
    # limit): QuadratureError, after at most 200 intervals of 21 nodes each.
    # The rule reads the polynomial once, on its 21 nodes, and f once per node
    calls = []

    def poly(s):
        calls.append(len(s))
        return (1.0 + 0.5j) * s**19 - 2.0 * s**7

    value = resolvent.quad(poly, 0.3, 1.7)
    exact = (1.0 + 0.5j) * (1.7**20 - 0.3**20) / 20 - (1.7**8 - 0.3**8) / 4
    assert calls == [21] and abs(value - exact) < 1e-14 * abs(exact)
    calls.clear()

    def wave(s):
        calls.append(s)
        return math.cos(2e5 * s)

    app = apply_radial(H2, 0.9 - 0.2j, wave, (0.5, 1.5))
    with pytest.raises(QuadratureError, match="after 200 intervals"):
        app(1.0)
    assert len(calls) <= 21 * (1 + 2 * 199)


# scipy's quad warns with one message per QUADPACK failure code
_SCIPY_FAILURES = {"maximum number of subdivisions": 1, "occurrence of roundoff": 2,
                   "Extremely bad integrand": 3, "does not converge": 4, "divergent": 5}


def test_qags_port_equals_scipys_quad_bit_for_bit():
    # on real integrands, smooth, singular at an end or inside, with a
    # jump, and five that end in each of QUADPACK's failure codes, the
    # port's integral, error estimate, interval count, integrand nodes and
    # failure code are those of scipy's quad (dqagse) at the same
    # tolerances and limit, bit for bit; the port reads the integrand once
    # per rule, on the array of its 21 nodes
    cases = [
        (math.exp, 0.5, 1.5, 0),
        (lambda x: x**19 - 2.0 * x**7, 0.3, 1.7, 0),
        (lambda x: x**-0.5 if x > 0.0 else 0.0, 0.0, 1.0, 0),
        (lambda x: math.log(x) if x > 0.0 else 0.0, 0.0, 1.0, 0),
        (lambda x: abs(x - 0.7) ** -0.5 if x != 0.7 else 0.0, 0.3, 1.2, 0),
        (lambda x: 1.0 if x < 0.7 else 0.0, 0.3, 1.2, 0),
        (lambda x: math.sin(1.0 / x) * x**-0.5 if x > 0.0 else 0.0, 0.0, 1.0, 1),
        (lambda x: math.exp(x) + 1e-7 * random.Random(x.hex()).random(), 0.0, 1.0, 2),
        (lambda x: 1.0 / (x - 1.0) if x != 1.0 else 0.0, 1.0, 1.0 + 1e-14, 3),
        (lambda x: (x - 0.3) ** -0.9 * math.cos(3.0 * x) if x > 0.3 else 0.0, 0.3, 1.2, 4),
        (lambda x: x**-1.1 if x > 0.0 else 0.0, 0.0, 1.0, 5),
    ]
    for f, a, b, code in cases:
        calls, nodes = [], []

        def counted(xs, f=f):
            calls.append(len(xs))
            nodes.extend(xs.tolist())
            return [f(x) for x in xs.tolist()]

        value, error, ier, last = quadpack.qags(counted, a, b)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            ref = quad(f, a, b, epsabs=quadpack.EPSABS, epsrel=quadpack.EPSREL,
                       limit=quadpack.LIMIT, full_output=1)
        info = ref[2]
        want = [v for k, v in _SCIPY_FAILURES.items() if k in ref[3]] if len(ref) > 3 else [0]
        assert ier == code and want == [code], (a, b, ref[3:])
        assert (value.real.hex(), value.imag, error.hex()) == (ref[0].hex(), 0.0, ref[1].hex())
        assert (last, len(nodes)) == (info["last"], info["neval"]) == (last, 42 * last - 21)
        assert calls == [21] * (2 * last - 1)


def _split_at(c):
    """A reference quad: the integral over [lo, hi] as F(hi) - F(lo), F(x)
    the integral from c to x after s = c +- u^2, smooth for data with a
    |s - c|^-1/2 singularity."""
    def from_c(g, x):
        sign = 1.0 if x >= c else -1.0
        return sign * quad(lambda u: g(c + sign * u * u) * 2.0 * u, 0.0, math.sqrt(abs(x - c)),
                           complex_func=True, epsabs=0.0, epsrel=1e-13)[0]

    return lambda g, lo, hi: from_c(_scalar(g), hi) - from_c(_scalar(g), lo)


@pytest.mark.parametrize("c", [0.3, 0.7])
def test_apply_radial_takes_data_singular_at_an_end_or_inside(monkeypatch, c):
    # f = |s - c|^-1/2 on the support (0.3, 1.2), singular at its lower
    # end or inside: on_grid agrees to 1e-10 with the Green representation
    # integrated after s = c -+ u^2 takes the singularity out (the
    # extrapolation of QUADPACK's dqagse settles what bisection alone
    # would not); f = (s - 0.3)^-0.9 is past what it settles at these
    # tolerances and raises QuadratureError, as scipy's quad did for it
    ts = [0.2, 0.6, 0.9, 2.0]

    def f(s):
        return abs(s - c) ** -0.5 if s != c else 0.0

    got = apply_radial(H2, 0.9 - 0.2j, f, (0.3, 1.2)).on_grid(ts)
    monkeypatch.setattr(resolvent, "quad", _split_at(c))
    want = apply_radial(H2, 0.9 - 0.2j, f, (0.3, 1.2)).on_grid(ts)
    assert np.max(np.abs(got - want) / np.abs(want)) < 1e-10
    monkeypatch.undo()
    steep = apply_radial(H2, 0.9 - 0.2j, lambda s: (s - 0.3) ** -0.9 if s > 0.3 else 0.0,
                         (0.3, 1.2))
    with pytest.raises(QuadratureError, match="extrapolation table"):
        steep.on_grid(ts)


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
def test_non_finite_t_names_itself(monkeypatch, bad):
    # t = -inf once read "singular at coincident points" from the kernel and
    # "need t > 0" from the application: the sign was tested first.  An
    # infinite end of the support was accepted, and the first call
    # overflowed in sinh.  A grid is refused before any quadrature
    def no_quad(*args, **kwargs):
        raise AssertionError("quadrature on a non-finite grid")

    monkeypatch.setattr(resolvent, "quad", no_quad)
    zeta = 0.3 + 0.2j
    app = ResolventApplication(H2, zeta, lambda s: 1.0, (0.2, 1.0))
    for call in (lambda: kernel(H2, zeta, bad), lambda: kernel_at(H2, zeta)(bad),
                 lambda: app(bad), lambda: app.on_grid([0.5, bad]),
                 lambda: apply_radial(H2, zeta, lambda s: 1.0, (0.5, bad)),
                 lambda: apply_radial(H2, zeta, lambda s: 1.0, (bad, 1.0))):
        with pytest.raises(NonFiniteInputError, match="t = .* is not finite"):
            call()
