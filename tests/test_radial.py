"""Radial eigenfunctions: series solution Q, spherical function phi,
connection coefficients, Wronskian limit."""

import cmath
import functools
import gc
import math
import random
import re
import types
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hyperscatter import errors, quadpack, radial
from hyperscatter.boundary import boundary_pair
from hyperscatter.cfunction import CFunction, for_space
from hyperscatter.errors import NonFiniteInputError, ResonantExponentError, StiffnessError
from hyperscatter.radial import (
    RadialSolution,
    abel_wronskian,
    connection_coefficients,
    continuation,
    eval_Q,
    eval_phi,
    frobenius_Q,
    phi_solution,
    q_solution,
    wronskian_limit,
)
from hyperscatter.model_h2 import ktype_radial_profile, oracle_h3
from hyperscatter.resolvent import apply_radial, kernel
from hyperscatter.resonances import enumerate_resonances, residue_contour_probe
from hyperscatter.space import space_from_name
from hyperscatter.verify import FAMILY_NAMES, lambda_grid

H2 = space_from_name("h2")
H3 = space_from_name("h3")
# a geometric grid from t = 0.4 down to 0.0035, deep in Q's singular region
_Q_NODES = 0.4 * 0.65 ** np.arange(12)
_LIBRARY_ERRORS = tuple(v for v in vars(errors).values()
                        if isinstance(v, type) and v.__module__ == errors.__name__)


def _rel(a, b):
    return abs(a - b) / max(abs(b), 1e-300)


def test_h3_closed_forms():
    # 8.3 + 0.4j: Q's series is too ill-conditioned there, the ODE runs
    for lam in (0.5, 2.0, 1 + 1j, 0.3 - 0.8j, 8.3 + 0.4j):
        for t in (0.0005, 0.02, 0.5, 1.0, 3.0, 7.0):
            oracle = oracle_h3(lam, t)
            assert _rel(eval_phi(H3, lam, t), oracle.phi) < 1e-10
            assert _rel(eval_Q(H3, lam, t), oracle.Q) < 1e-10


def test_cached_values_do_not_depend_on_request_order():
    # a cached value may depend on (space, lambda, t) alone: the
    # benchmark checks a warm pass against a cold one byte for byte
    space = space_from_name("chn:2")
    lam = 0.7 + 0.2j
    calls = [(1.3, lambda: connection_coefficients(space, lam))]
    for t in (0.0005, 0.004, 0.02, 0.2, 0.9, 1.5, 2.2, 4.0, 7.0):
        calls += [
            (t, lambda t=t: eval_phi(space, lam, t)),
            (t, lambda t=t: eval_Q(space, lam, t)),
            (t, lambda t=t: ktype_radial_profile(0.8, 2, t)),
        ]

    def run(order):
        continuation.cache_clear()
        return {i: calls[i][1]() for i in order}

    ascending = sorted(range(len(calls)), key=lambda i: calls[i][0])
    shuffled = list(ascending)
    random.Random(4).shuffle(shuffled)
    first = run(ascending)
    assert run(ascending[::-1]) == first
    assert run(shuffled) == first


def test_phi_is_even_in_lambda():
    for name in ("h2", "chn:2"):
        space = space_from_name(name)
        for lam in (0.8, 0.6 + 0.9j):
            for t in (0.7, 2.0):
                assert _rel(eval_phi(space, lam, t),
                            eval_phi(space, -lam, t)) < 1e-9, name


def test_phi_normalized_at_origin():
    sol = phi_solution(space_from_name("hhn:2"), 0.9 + 0.3j, 2.0)
    u, du = sol.at(1e-4)
    assert abs(u - 1.0) < 1e-6
    assert abs(du) < 1e-2  # slope vanishes at the center like t


def test_q_asymptotic_normalization():
    # Q_lambda(t) e^{(rho+lambda)t} -> 1
    for name in ("h2", "h3", "oh2"):
        space = space_from_name(name)
        for lam in (0.7, 1.1 + 0.5j):
            t = 18.0
            scaled = eval_Q(space, lam, t) * cmath.exp((space.rho + lam) * t)
            assert abs(scaled - 1.0) < 1e-7, name


def test_frobenius_excluded_exponents():
    # the recursion divides by nu (nu + 2 lambda) for even nu only, so it
    # is singular where 2 lambda is a negative even integer
    for lam in (-1.0, -2.0):
        with pytest.raises(ResonantExponentError):
            frobenius_Q(H2, lam)
    # nearby non-lattice points are fine
    assert frobenius_Q(H2, -0.5 + 0.01)
    # at an odd 2 lambda every denominator is odd: the coefficients are the
    # term-by-term recursion's
    for name in ("h2", "hn:4"):
        space = space_from_name(name)
        for lam in (-0.5, -1.5, -2.5):
            got = frobenius_Q(space, lam).coefficients
            want = _mp_frobenius(space, complex(lam))
            assert len(got) == len(want), (name, lam)
            for nu, (a, b) in enumerate(zip(got, want)):
                assert abs(a - b) <= 1e-14 * abs(b), (name, lam, nu)


@mpmath.workdps(30)
def _mp_frobenius(space, lam, tol=1e-16):
    """The Frobenius recursion summed term by term, sum_k b_k (e + nu - k)
    h_(nu-k) / (nu (nu + 2 lambda)), at 30 digits, with frobenius_Q's
    stopping rule: from nu = 8 on, two consecutive |h_nu| 2^-nu below tol
    times the sum of |h_j| 2^-j over j <= nu."""
    lam = mpmath.mpc(lam.real, lam.imag)
    e = mpmath.mpf(space.m_alpha + 2 * space.m_2alpha) / 2 + lam
    h, quiet, nu, size = [mpmath.mpc(1)], 0, 0, mpmath.mpf(1)
    while quiet < 2:
        nu += 2
        src = sum((2 * space.m_alpha + (4 * space.m_2alpha if k % 4 == 0 else 0))
                  * (e + nu - k) * h[nu - k] for k in range(2, nu + 1, 2))
        h += [mpmath.mpc(0), src / (nu * (nu + 2 * lam))]
        tail = abs(h[-1]) * mpmath.mpf(2) ** -nu
        size += tail
        quiet = quiet + 1 if nu >= 8 and tail < tol * size else 0
    return [complex(x) for x in h]


def test_frobenius_coefficients_match_mpmath_recursion():
    # the running sums reorder the source sum; every coefficient keeps its
    # digits (measured worst 2.5e-15 here) and the truncation is the
    # term-by-term recursion's
    lams = (0.3, -2.7 + 0.4j, 1.1 - 6j, 7.5 + 3j, -13.3, 19.5 + 0.1j,
            -11.2 - 15.1j, 14j)
    for name in _SERIES_FAMILIES:
        space = space_from_name(name)
        for lam in lams:
            got = frobenius_Q(space, lam).coefficients
            want = _mp_frobenius(space, complex(lam))
            assert len(got) == len(want), (name, lam)
            for nu, (a, b) in enumerate(zip(got, want)):
                assert abs(a - b) <= 1e-14 * abs(b), (name, lam, nu)


def test_connection_identity_spot_checks():
    for name in ("h2", "chn:2"):
        space = space_from_name(name)
        cf = for_space(space)
        for lam in (0.8 + 0.3j, 1.15):
            sol = phi_solution(space, lam, 3.2)
            cp, cm = cf.value(lam), cf.value(-lam)
            for t in (0.6, 1.5, 3.0):
                left = cp * eval_Q(space, -lam, t)
                right = cm * eval_Q(space, lam, t)
                scale = max(abs(sol(t)), abs(left), abs(right))
                assert abs(sol(t) - (left + right)) / scale < 1e-9, (name, lam, t)


def test_connection_coefficients_of_phi_are_c_values():
    cf = for_space(H3)
    lam = 0.8
    am, ap = connection_coefficients(H3, lam)
    assert _rel(am, cf.value(lam)) < 1e-8
    assert _rel(ap, cf.value(-lam)) < 1e-8


def test_connection_rejects_resonant_exponents():
    with pytest.raises(ResonantExponentError):
        connection_coefficients(H2, 0.5)
    with pytest.raises(ResonantExponentError):
        connection_coefficients(H2, 1.0)


def test_wronskian_limit_formula():
    # J(t) * dQ/dt -> -2 lambda c(lambda) as t -> 0
    for name, lam in (("h3", 0.7), ("h2", 1.3 + 0.4j), ("chn:2", 0.9)):
        space = space_from_name(name)
        cf = for_space(space)
        target = -2.0 * lam * cf.value(lam)
        assert _rel(wronskian_limit(space, lam), target) < 1e-6, name


def test_wronskian_limit_reads_abels_identity_without_c(monkeypatch, mp_c):
    # at log 2 phi is its series or ODE pieces (at 0.4 + 30j, whose switch
    # is below log 2) and Q its Frobenius series: no c value is read
    names = ("h2", "h3", "chn:2", "hhn:2", "oh2", "hn:7", "hn:40")
    lams = [0.3 - 1j, 0.9, 1.6 + 0.5j, 2.7 + 1j, -2.2 + 0.5j, 5.5 + 2j, 0.55,
            0.4 + 30j, 12.7 + 0.1j]
    targets = {}
    with mpmath.workdps(30):
        for name in names:
            for lam in lams:
                x = mpmath.mpc(lam.real, lam.imag)
                targets[name, lam] = complex(-2 * x * mp_c(space_from_name(name), x))

    def refuse(self, lam):
        raise AssertionError("CFunction.value called")

    monkeypatch.setattr(CFunction, "value", refuse)
    continuation.cache_clear()
    for name in names:
        for lam, got in zip(lams, wronskian_limit(space_from_name(name), lams)):
            assert _rel(got, targets[name, lam]) < 1e-13, (name, lam)


def test_radial_solution_range_and_residual():
    space = space_from_name("chn:2")
    sol = phi_solution(space, 1.2, 2.5)
    with pytest.raises(ValueError):
        sol.at(3.5)
    with pytest.raises(ValueError):
        sol.at(-0.1)
    assert sol.residual() < 1e-5


def test_radial_solution_from_callable_round_trip():
    lam = 0.8

    def f(t):
        return cmath.exp(-(1.0 + lam) * t) / (1.0 - math.exp(-2.0 * t))

    def fdot(t):
        return (-(1.0 + lam) * f(t)
                - 2.0 * math.exp(-2.0 * t) * f(t) / (1.0 - math.exp(-2.0 * t)))

    sol = RadialSolution(H3, lam, 0.4, 2.0, lambda t: (f(t), fdot(t)),
                         np.linspace(0.4, 2.0, 9))
    # the H3 second-kind solution solves the radial equation
    assert sol.residual() < 1e-6
    assert _rel(sol(1.0), eval_Q(H3, lam, 1.0)) < 1e-10


# -- batched solves -----------------------------------------------------------

_GRID = lambda_grid()


def test_batched_phi_and_q_match_mpmath_on_the_grid(mp_jacobi):
    # 4e-12 rather than a looser bound: it is what guards each lambda of a
    # batch against hiding its error behind the others.  The batches reach
    # 5.4e-15 (phi) and 1.1e-13 (Q at the deepest node, h2 at lambda =
    # -2.7, the recessive direction).
    mp_phi, mp_q = mp_jacobi
    tol = 4e-12
    for name in FAMILY_NAMES:
        space = space_from_name(name)
        for sol in phi_solution(space, _GRID, 5.2):
            for t in (0.5, 2.0, 5.0):
                assert _rel(sol(t), mp_phi(space, sol.lam, t)) < tol, \
                    (name, sol.lam, t)
        t = float(_Q_NODES[-1])
        for sol in q_solution(space, _GRID + [-lam for lam in _GRID], t):
            assert _rel(sol(t), mp_q(space, sol.lam, t)) < tol, \
                (name, sol.lam)


@pytest.mark.parametrize("name", ["hn:40", "hhn:8", "hn:100"])
def test_large_multiplicities_solve_within_the_jacobi_bounds(name, mp_jacobi):
    # near 0, e = b - 2 rho is about (m_alpha + m_2alpha) / t: Q's pole and
    # the ODE's fast mode e^(-e s) make a step's terms grow like e^(e h).
    # Steps of a fixed share of t alone raised StiffnessError here (each Q
    # batch, and phi on hn:100); with e h capped the worst is 2.3e-14
    # (hn:100 phi).  The bounds are the jacobi suite's.
    mp_phi, mp_q = mp_jacobi
    space = space_from_name(name)
    lams = [0.3 + 0.5j, 0.7, 3.0j, 8.0 + 8.0j, 0.3 + 20.0j, 20.3]
    for sol in phi_solution(space, lams, 5.2):
        for t in (0.5, 1.0, 2.0, 5.0):
            assert _rel(sol(t), mp_phi(space, sol.lam, t)) < 5e-12, (sol.lam, t)
    for sol in q_solution(space, lams, 0.005):
        for t in (0.005, 0.05, 0.3, 0.6):
            assert _rel(sol(t), mp_q(space, sol.lam, t)) < 3e-12, (sol.lam, t)


def test_batch_of_one_equals_the_scalar_call():
    space = space_from_name("hhn:2")
    lam = 0.9 - 0.4j
    phi_one, = phi_solution(space, [lam], 3.0)
    q_one, = q_solution(space, [lam], 0.05)
    phi, q = phi_solution(space, lam, 3.0), q_solution(space, lam, 0.05)
    for t in (0.005, 0.05, 0.4, 1.0, 3.0):
        assert phi_one.at(t) == phi.at(t)
    for t in (0.05, 0.4, 1.0, 3.0):
        assert q_one.at(t) == q.at(t)
    assert wronskian_limit(space, [lam]) == [wronskian_limit(space, lam)]
    with pytest.raises(ValueError):
        phi_solution(space, [], 3.0)


def test_batched_and_single_lambda_solutions_agree():
    space = space_from_name("chn:2")
    phis = phi_solution(space, _GRID, 3.0)
    qs = q_solution(space, _GRID, 0.05)
    for lam, phi, q in zip(_GRID, phis, qs):
        assert phi.lam == q.lam == lam
        single_phi, single_q = phi_solution(space, lam, 3.0), q_solution(space, lam, 0.05)
        for t in (0.3, 1.0, 3.0):
            assert _rel(phi(t), single_phi(t)) < 1e-10, (lam, t)
        for t in (0.05, 0.3, 1.0):
            assert _rel(q(t), single_q(t)) < 1e-10, (lam, t)


def test_mixed_family_batch_matches_the_per_family_solves():
    # the verify suites solve every (family, lambda) of the grid as one
    # system; each member agrees with its family's own batch, and with the
    # series routes within the jacobi suite's tolerances.  Measured worst
    # 8.7e-13 (against the family batches, nearly all of it theirs), 2.3e-13
    # (phi) and 3.5e-14 (Q) against the series
    families = [space_from_name(name) for name in FAMILY_NAMES]
    spaces = [space for space in families for _ in _GRID]
    phis = phi_solution(spaces, _GRID * len(families), 5.2)
    qs = q_solution(spaces, _GRID * len(families), 0.005)
    assert [sol.space for sol in phis] == [sol.space for sol in qs] == spaces
    for k, space in enumerate(families):
        mixed = slice(k * len(_GRID), (k + 1) * len(_GRID))
        for sol, own in zip(phis[mixed], phi_solution(space, _GRID, 5.2)):
            for t in (0.5, 1.0, 2.0, 5.0):
                assert _rel(sol(t), own(t)) < 1e-12, (space, sol.lam, t)
                assert _rel(sol(t), eval_phi(space, sol.lam, t)) < 5e-12, (space, sol.lam, t)
        for sol, own in zip(qs[mixed], q_solution(space, _GRID, 0.005)):
            for t in (0.005, 0.05, 0.3, 0.6):
                assert _rel(sol(t), own(t)) < 1e-12, (space, sol.lam, t)
                assert _rel(sol(t), eval_Q(space, sol.lam, t)) < 3e-12, (space, sol.lam, t)
    with pytest.raises(ValueError, match="one space per lambda"):
        phi_solution(families, _GRID, 5.2)


def test_mixed_family_forward_batch_checks_each_growth_limit(mp_jacobi):
    # phi at lambda = 3 on h2 (rho = 1/2) passes e^700 at t = 280; oh2
    # (rho = 11) at 5 never does.  The batch is refused past 280 and names
    # the h2 lambda, though oh2 comes first and has the wider lambda.  Each
    # column keeps its own scale: oh2's phi, which falls like e^(-6 t),
    # underflows from t = 118 on, while the h2 column reads mpmath's phi
    mp_phi, _ = mp_jacobi
    oh2 = space_from_name("oh2")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        falling, growing = phi_solution([oh2, H2], [5.0, 3.0], 250.0)
        assert falling(250.0) == 0
        assert _rel(falling(75.0), mp_phi(oh2, 5.0, 75.0)) < 1e-11
        for t in (50.0, 150.0, 250.0):
            assert _rel(growing(t), mp_phi(H2, 3.0, t)) < 1e-11, t
    with pytest.raises(ValueError, match=re.escape("lambda = (3+0j) leaves")):
        phi_solution([oh2, H2], [5.0, 3.0], 300.0)


def _solves(monkeypatch):
    """The _TaylorSteps of every solve_ivp call, as they are made."""
    solves = []
    driver = radial.solve_ivp

    def recording(*args, **kwargs):
        solves.append(driver(*args, **kwargs))
        return solves[-1]

    monkeypatch.setattr(radial, "solve_ivp", recording)
    return solves


def test_step_polynomials_are_the_dense_output(monkeypatch):
    # each step forms its terms once, and its polynomial is the solution
    # between its ends: a read at the span's start gives the initial values
    # back, the two steps that meet at a step end agree there, and no read
    # forms terms again, forward and backward.  The last step is not
    # shortened: it is the first to end past the span's far end
    solves = _solves(monkeypatch)
    formed = []
    form = radial._step_terms
    monkeypatch.setattr(radial, "_step_terms",
                        lambda ode, t0, h, start: formed.append(t0) or form(ode, t0, h, start))
    space, lams = space_from_name("hn:7"), [0.3 - 1j, 1.6, 2.7 + 0.5j, -0.8j]
    for span, inits in (((0.2, 2.0), [(1.0, 0.1j)] * 4), ((0.6, 0.01), [(1.0, -0.5)] * 4)):
        formed.clear()
        sols = radial.integrate_radial_ode(space, lams, span, inits)
        steps = solves[-1]
        ends = steps.t.tolist()
        sign = 1.0 if span[1] > span[0] else -1.0
        assert ends[0] == span[0] and len(ends) > 4
        assert sign * ends[-2] <= sign * span[1] < sign * ends[-1]
        assert formed == ends[:-1] and steps.nfev > 2 * len(formed)
        for i, (u, du) in enumerate(inits):
            got = sols[i].at(span[0])
            assert got[0] == u and abs(got[1] - du) < 1e-15, (i, got)
        for t in ends[1:-1]:
            at = sols[0].at(t)
            after = sols[0].at(np.nextafter(t, sign * math.inf))
            assert all(_rel(a, b) < 1e-14 for a, b in zip(after, at)), t
        assert formed == ends[:-1]


def test_terms_that_do_not_settle_or_are_not_finite_raise_stiffness_error(monkeypatch):
    # a step whose terms have not fallen below the tail within the term
    # limit, or turn non-finite, fails the solve
    with pytest.raises(StiffnessError, match="turn non-finite"):
        radial.integrate_radial_ode(H2, [0.5], (0.2, 2.0), [(math.inf, 0.0)])
    monkeypatch.setattr(radial, "_MAX_TERMS", 8)
    with pytest.raises(StiffnessError, match="do not settle within 8 terms"):
        radial.integrate_radial_ode(H2, [0.7 + 0.3j], (0.2, 2.0), [(1.0, 0.0)])


def test_a_large_batch_agrees_with_single_solves():
    # 2100 lambdas share one solve and its steps; each phi agrees with its
    # own single-lambda solve to 1e-11
    lams = list(np.linspace(0.1, 3.0, 2100) + 0.1j)
    batch = phi_solution(H2, lams, 4.0)
    for k in (5, 1000, 2099):
        assert _rel(batch[k](3.0), phi_solution(H2, lams[k], 4.0)(3.0)) < 1e-11, lams[k]


def test_wronskian_limit_on_a_sequence_matches_scalar_calls():
    space = space_from_name("h2")
    lams = [0.3 - 1j, 1.6, 2.7 + 0.5j]
    batch = wronskian_limit(space, lams)
    assert len(batch) == len(lams)
    for lam, got in zip(lams, batch):
        assert _rel(got, wronskian_limit(space, lam)) < 1e-10, lam


@pytest.mark.parametrize("order", ["ascending", "descending", "shuffled"])
def test_batch_reads_equal_direct_dense_output_reads(monkeypatch, order):
    # a batch's solutions share one read of the steps per t; whatever the
    # order of the (lambda, t) requests, and past the 32 t it keeps, each
    # value is the one a direct read of the shared steps gives
    solves = _solves(monkeypatch)
    space, lams = space_from_name("hn:7"), [0.3 - 1j, 1.6, 2.7 + 0.5j, -0.8j]
    sols = radial.integrate_radial_ode(space, lams, (0.2, 2.0), [(1.0, 0.1j)] * 4)
    steps = solves[0]
    requests = [(i, t) for i in range(len(lams)) for t in np.linspace(0.2, 2.0, 40)]
    if order == "descending":
        requests.reverse()
    elif order == "shuffled":
        random.Random(4).shuffle(requests)
    for i, t in requests:
        u, du = steps(t)
        assert sols[i].at(t) == (complex(u[i]), complex(du[i])), (i, t)
    # every lambda of the batch at a new t: one read of the steps
    reads = []
    read = type(steps).__call__
    monkeypatch.setattr(type(steps), "__call__",
                        lambda self, t: reads.append(t) or read(self, t))
    for sol in sols:
        sol.at(1.2345)
    assert reads == [1.2345]


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf"),
                                 complex(float("nan"), 0.5),
                                 complex(0.5, float("inf"))])
def test_non_finite_lambda_raises_structured_error(bad):
    calls = (
        lambda: eval_phi(H2, bad, 0.005),
        lambda: eval_phi(H2, bad, 1.0),
        lambda: eval_Q(H2, bad, 0.5),
        lambda: eval_Q(H2, bad, 2.0),
        lambda: connection_coefficients(H2, bad),
        lambda: wronskian_limit(H2, bad),
        lambda: phi_solution(H2, [0.7, bad], 2.0),
        lambda: q_solution(H2, [0.7, bad], 0.5),
    )
    for call in calls:
        with pytest.raises(NonFiniteInputError):
            call()


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_non_finite_t_and_zeta_name_themselves(bad):
    # a nan t once read "eval_Q needs t > 0", and plancherel_density(inf)
    # reported the argument nan+infj
    rec = enumerate_resonances(H2, 1)[0]
    for call in (lambda: eval_phi(H2, 0.7, bad), lambda: eval_phi(H2, 0.7, -bad),
                 lambda: eval_Q(H2, 0.7, bad), lambda: eval_Q(H2, 0.7, -bad),
                 lambda: residue_contour_probe(H2, rec, bad)):
        with pytest.raises(NonFiniteInputError, match="t = .* is not finite"):
            call()
    with pytest.raises(NonFiniteInputError, match=re.escape(f"zeta = {complex(bad)}")):
        for_space(H2).plancherel_density(bad)


_NAN, _INF = float("nan"), float("inf")


# each of these once hung for more than 20 s in the ODE, or (q_solution at
# nan) returned a solution on [nan, inf)
@pytest.mark.parametrize("call", [
    lambda: phi_solution(H2, 0.5, _NAN),
    lambda: phi_solution(H2, 0.5, _INF),
    lambda: q_solution(H2, 0.5, _NAN),
    lambda: q_solution(H2, 0.5, -_INF),
    lambda: radial.integrate_radial_ode(H2, [0.5], (0.2, _NAN), [(1.0, 0.0)]),
    lambda: radial.integrate_radial_ode(H2, [0.5], (_INF, 0.2), [(1.0, 0.0)]),
], ids=["phi_solution-nan", "phi_solution-inf", "q_solution-nan", "q_solution-minus-inf",
        "integrate-end-nan", "integrate-start-inf"])
def test_non_finite_radius_of_a_solve_raises_structured_error(call):
    with pytest.raises(NonFiniteInputError, match="t = .* is not finite"):
        call()


# -- phi without the ODE ------------------------------------------------------

_SERIES_FAMILIES = ("h2", "h3", "chn:2", "hhn:2", "oh2", "hn:7")
# both sides of the series / c Q switch at t = 1.5, and far out
_PHI_TS = (0.005, 0.3, 1.0, 1.45, 1.5, 1.5000001, 1.55, 3.0, 9.0)


def _phi_errors(mp_phi, space, lams, ts):
    return [(_rel(eval_phi(space, lam, t), mp_phi(space, lam, t)), lam, t)
            for lam in lams for t in ts]


def test_eval_phi_matches_mpmath_off_the_lattice(mp_jacobi):
    # 14 seeded lambdas with |lambda| <= 20 and |Im lambda| <= 3, plus the
    # largest real parts and oh2's worst case: c Q just above t = 1.5 for
    # lambda near 0.5, where the two terms are ~500 times phi.  Measured
    # worst 1.0e-12 there and 1.3e-13 on the seeded points; the ODE route
    # reads 2e-12 to 7e-12 on such points.
    mp_phi, _ = mp_jacobi
    rng = random.Random(6)
    lams = [complex(rng.uniform(-20.0, 20.0), rng.uniform(-3.0, 3.0))
            for _ in range(14)]
    lams += [19.7 + 3j, -19.8 - 3j, 0.55, 0.55 + 0.3j]
    for name in _SERIES_FAMILIES:
        space = space_from_name(name)
        worst = max(_phi_errors(mp_phi, space, lams, _PHI_TS), key=lambda e: e[0])
        assert worst[0] < 2e-12, (name, worst)


def test_eval_phi_matches_mpmath_near_the_lattice(mp_jacobi):
    # 2 lambda = k +- 1e-4 and k +- 1e-2: inside the guard for even k (the
    # ODE continues the series from t = 1.5) and c Q for odd k; lambda =
    # m +- 0.06 is just outside the guard.  Measured worst: 7.2e-12 inside
    # (the ODE, at t = 9), 5.4e-13 at odd k and 2.7e-12 just outside (oh2
    # near lambda = 1, t = 1.55).
    mp_phi, _ = mp_jacobi
    inside, outside = [], []
    for k in (0, 1, -1, 2, -3, 24, -25):
        for d in (1e-4, -1e-4, 1e-2, -1e-2j):
            (inside if k % 2 == 0 else outside).append((k + d) / 2.0)
    for m in (0, 1, 12):
        outside += [m + 0.06, m - 0.06j]
    ts = (0.3, 1.45, 1.55, 3.0, 9.0)
    for name in _SERIES_FAMILIES:
        space = space_from_name(name)
        worst = max(_phi_errors(mp_phi, space, inside, ts), key=lambda e: e[0])
        assert worst[0] < 2e-11, (name, "inside", worst)
        worst = max(_phi_errors(mp_phi, space, outside, ts), key=lambda e: e[0])
        assert worst[0] < 1e-11, (name, "outside", worst)


def test_eval_phi_at_the_h2_resonances(mp_jacobi):
    # lambda = i zeta_k = -(1/2 + k): 2 lambda is an odd integer and c(lambda)
    # vanishes, so past t = 1.5 phi is c(-lambda) Q_lambda, both Frobenius
    # series existing there
    mp_phi, _ = mp_jacobi
    for k in range(4):
        lam = -(0.5 + k)
        for t in (0.005, 0.7, 1.5, 2.4, 6.0, 9.0):
            assert _rel(eval_phi(H2, lam, t), mp_phi(H2, lam, t)) < 1e-10, (k, t)


def test_phi_off_the_lattice_runs_no_ode(monkeypatch):
    # phi off the lattice, and Q and the resolvent kernel in the box the
    # spectral sweep draws lambda from (|Re| < 2.9, |Im| < 1.2)
    def refuse(*args, **kwargs):
        raise AssertionError("solve_ivp called")

    monkeypatch.setattr(radial, "solve_ivp", refuse)
    continuation.cache_clear()
    for name in ("h2", "oh2", "hn:7"):
        space = space_from_name(name)
        for lam in (0.8 + 0.3j, -2.7, 13.4 - 2.9j):
            for t in (0.005, 0.3, 1.0, 1.5, 1.6, 3.0, 9.0):
                eval_phi(space, lam, t)
            try:
                connection_coefficients(space, lam)
            except errors.IllConditionedError:
                # refused: pairing phi with Q_-lambda cancels its dominant
                # term, condition 1.1e8 at Re lambda = 13.4 (h2)
                assert lam.real > 10.0, (name, lam)
    for name in _SERIES_FAMILIES:
        space = space_from_name(name)
        for lam in (0.8 + 0.3j, -2.85 + 1.15j, 2.85 - 1.15j, -1.4 - 0.6j):
            for t in (0.005, 0.05, 0.3, 0.69, 0.7, 2.0):
                eval_Q(space, lam, t)
                kernel(space, -1j * lam, t)


_ODD_FAMILIES = ("h2", "h3", "chn:2", "hhn:2", "oh2", "hn:4")


def test_phi_near_an_odd_two_lambda_is_c_q(monkeypatch, mp_jacobi):
    # within 1e-6 of an odd 2 lambda c has no pole and both Frobenius series
    # exist, so past t = 1.5 phi is c Q, with no ODE (which read up to
    # 6.7e-12 here).  Measured worst 3.2e-14, but oh2 just past the switch,
    # where the two c Q terms are hundreds of times phi, reads 7.5e-13 at
    # lambda = 0.5 + 3e-7 and t = 1.6 (the ODE read 1.0e-13 there)
    def refuse(*args, **kwargs):
        raise AssertionError("solve_ivp called")

    mp_phi, _ = mp_jacobi
    monkeypatch.setattr(radial, "solve_ivp", refuse)
    continuation.cache_clear()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for name in _ODD_FAMILIES:
            space = space_from_name(name)
            for k in (1, -1, 3, -3, 5, -5):
                for lam in (k / 2, k / 2 + 3e-7, k / 2 - 4e-7j):
                    for t in (1.6, 4.0, 9.0, 30.0):
                        tol = 1e-12 if (name, t) == ("oh2", 1.6) else 1e-13
                        err = _rel(eval_phi(space, lam, t), mp_phi(space, lam, t))
                        assert err < tol, (name, lam, t, err)


def test_public_refusals_at_every_negative_integer_two_lambda():
    # the spectral sweep's exclusion queries, lambda = -0.5 k for k = 1..5,
    # odd 2 lambda included: eval_Q and connection_coefficients refuse them,
    # and so does kernel where c(lambda) is finite and nonzero (a zero or
    # pole of c is reported first, as PoleSignal)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for name in _ODD_FAMILIES:
            space = space_from_name(name)
            for k in range(1, 6):
                lam = -0.5 * k
                with pytest.raises(ResonantExponentError):
                    eval_Q(space, lam, 1.0)
                with pytest.raises(ResonantExponentError):
                    connection_coefficients(space, lam)
                with pytest.raises(ResonantExponentError):
                    connection_coefficients(space, -lam)
                regular = for_space(space).zero_order(lam) == 0
                with pytest.raises(ResonantExponentError if regular else errors.PoleSignal):
                    kernel(space, -1j * lam, 1.0)
                with pytest.raises(ResonantExponentError if regular else errors.PoleSignal):
                    apply_radial(space, -1j * lam, lambda s: 1.0, (0.3, 1.2)).on_grid([0.5, 2.0])


# -- array reads ----------------------------------------------------------------


def _kronrod_nodes(a, b):
    """The 21 nodes at which quadpack's rule reads an integrand on [a, b]."""
    nodes = []
    quadpack.quad(lambda s: nodes.append(s) or np.zeros(len(s)), a, b)
    return nodes[0]


# (kind, lambda, interval): every region of phi's and Q's cache entries,
# the intervals crossing from one region to the next
_ARRAY_READS = [
    ("phi", 0.7 + 0.3j, (0.05, 1.2)),  # the Jacobi series
    ("phi", 10j, (0.2, 2.0)),  # the series to 0.42, the forward bridge, c Q past T_PHI
    ("phi", 3.0, (0.5, 3.0)),  # near the lattice: the series, the bridge with no end
    ("phi", 0.7 + 0.3j, (1.0, 4.0)),  # the series, c Q past T_PHI
    ("Q", 0.4 + 0.5j, (0.3, 2.0)),  # the second-kind series, the Frobenius series
    ("Q", 0.4 + 0.5j, (0.01, 0.6)),  # the second-kind series
    ("Q", -10 + 40j, (0.35, 1.0)),  # the backward bridge, the Frobenius series
]


@pytest.mark.parametrize("name", ["h2", "chn:2", "hhn:2", "oh2"])
def test_array_reads_equal_scalar_reads(name):
    # an array read at a rule's 21 nodes, (u, u') of the cache entry and
    # eval_phi or eval_Q, agrees with the scalar reads at each node to 1e-14
    # of the largest value on the rule: an array series sums its terms by a
    # matrix product, not one vector product per t, and numpy's tanh, cosh
    # and exp are not math's to the last bit.  The bridge reads its t one at
    # a time, bit for bit the scalar reads
    space = space_from_name(name)
    for kind, lam, (a, b) in _ARRAY_READS:
        lam = complex(lam)
        t = _kronrod_nodes(a, b)
        entry = continuation(space, lam,
                             radial._phi_series if kind == "phi" else radial._q_second_kind)
        read = eval_phi if kind == "phi" else eval_Q
        got = (*entry.pair(t), read(space, lam, t))
        want = (*np.array([entry.pair(x) for x in t.tolist()]).T,
                np.array([read(space, lam, x) for x in t.tolist()]))
        for g, w in zip(got, want):
            assert np.max(np.abs(g - w)) <= 1e-14 * np.max(np.abs(w)), (kind, lam, a, b)
        bridge = ((t - entry.switch) * entry.sign > 0.0) & ((t - entry.end) * entry.sign <= 0.0)
        assert bridge.any() == (entry.end != entry.switch), (kind, lam, a, b)
        for g, w in zip(got, want):
            assert np.array_equal(g[bridge], w[bridge]), (kind, lam, a, b)
        assert read(space, lam, np.empty(0)).shape == (0,)


# -- Q without the ODE below log 2 --------------------------------------------


def _q_errors(mp_q, space, lams, ts):
    return [(_rel(eval_Q(space, lam, t), mp_q(space, lam, t)), lam, t)
            for lam in lams for t in ts]


def test_eval_Q_matches_mpmath_in_the_sweep_box(mp_jacobi):
    # the second-kind series below log 2; measured worst 6.8e-14 (h3 near
    # Re lambda = 2.9 and t = log 2), where the backward ODE read 1e-12
    _, mp_q = mp_jacobi
    rng = random.Random(7)
    lams = [complex(rng.uniform(-2.9, 2.9), rng.uniform(-1.2, 1.2)) for _ in range(8)]
    lams += [2.85 + 1.15j, -2.85 - 1.15j, 0.05j]
    ts = (0.005, 0.02, 0.1, 0.3, 0.5, 0.69)
    for name in _SERIES_FAMILIES:
        space = space_from_name(name)
        worst = max(_q_errors(mp_q, space, lams, ts), key=lambda e: e[0])
        assert worst[0] < 1e-13, (name, worst)


def test_eval_Q_matches_mpmath_in_the_recessive_region(mp_jacobi):
    # Re lambda <= -6: integrated backward from log 2, Q is the recessive
    # solution and the ODE lost up to 4e-3 at lambda = -20; the series
    # reads at most 2e-14 here
    _, mp_q = mp_jacobi
    lams = [-6.0 + 0.4j, -7.3 - 2.1j, -9.6 + 1.1j, -12.3, -15.2 + 3.0j,
            -17.9 - 0.7j, -19.6 - 1.1j, -20.0 + 0.25j]
    for name in _SERIES_FAMILIES:
        space = space_from_name(name)
        worst = max(_q_errors(mp_q, space, lams, (0.005, 0.02, 0.1)), key=lambda e: e[0])
        assert worst[0] < 1e-12, (name, worst)


# -- one shape per cache entry: start series, Taylor bridge, end series ---------


_BRIDGE_FAMILIES = ("h2", "chn:2", "oh2")

# measured worst over the three families, and the bound (about twice it).
# phi's switch falls below T_PHI from |Im lambda| = 4.4 on, and the bridge
# runs to T_PHI; the forward ODE to every t read up to 9.7e-13 (oh2, 40j)
_PHI_BRIDGED = {5j: 1.5e-13,  # 6.2e-14 (h2)
                0.3 + 7j: 2e-14,  # 6.1e-15 (oh2)
                10j: 3e-13,  # 1.2e-13 (chn:2)
                1.3 + 20j: 2e-14,  # 8.5e-15 (chn:2)
                40j: 6e-13,  # 2.9e-13 (oh2)
                -2 + 40j: 4e-14}  # 1.6e-14 (oh2)


def test_phi_bridge_ends_at_t_phi(monkeypatch, mp_jacobi):
    # past T_PHI phi is c Q whatever |Im lambda| is: no solve serves a read
    # there, and phi at 40j, t = 60 reads 2.1e-14 (h2) and 1.5e-14 (oh2)
    # of mpmath, where the ODE read 7.7e-13 and 9.7e-13
    mp_phi, _ = mp_jacobi
    solves = _solves(monkeypatch)
    for name in _BRIDGE_FAMILIES:
        space = space_from_name(name)
        for lam, bound in _PHI_BRIDGED.items():
            continuation.cache_clear()
            entry = continuation(space, lam, radial._phi_series)
            assert entry.end == radial.T_PHI and entry.beyond is not None
            for t in (0.7, 0.9, 1.2, 1.5, 3.0, 20.0, 60.0):
                made = len(solves)
                err = _rel(eval_phi(space, lam, t), mp_phi(space, lam, t))
                assert err < bound, (name, lam, t, err)
                assert t <= radial.T_PHI or len(solves) == made, (name, lam, t)
    for name, bound in (("h2", 3e-14), ("oh2", 3e-14)):
        space = space_from_name(name)
        assert _rel(eval_phi(space, 40j, 60.0), mp_phi(space, 40j, 60.0)) < bound


# measured worst over the three families, and the bound.  Where the
# second-kind series is ill-conditioned at log 2, the backward bridge hands
# over to it where its rounding falls below the ODE's; eval_Q, which took
# one of the two routes per lambda, read 2.4e-5 (-20+60i) and 6.0e-10
# (-10+60i)
_Q_BRIDGED = {-20 + 60j: 1e-10,  # 2.7e-11 (chn:2)
              -10 + 60j: 5e-12,  # 1.9e-12 (oh2)
              -10 + 40j: 1.5e-12,  # 5.2e-13 (h2)
              -20 + 3j: 2e-14,  # 9.4e-15 (h2): no bridge
              1 + 16j: 1e-14,  # 4.0e-15 (h2): Re lambda > 0, the bridge serves every t
              3 + 8j: 4e-14,  # 1.8e-14 (chn:2)
              8.3 + 0.4j: 1e-14,  # 4.8e-15 (oh2)
              0.3 + 12.2j: 3e-14}  # 1.3e-14 (oh2)


def test_q_bridge_hands_over_to_the_second_kind_series(mp_jacobi):
    _, mp_q = mp_jacobi
    for name in _BRIDGE_FAMILIES:
        space = space_from_name(name)
        for lam, bound in _Q_BRIDGED.items():
            continuation.cache_clear()
            entry = continuation(space, lam, radial._q_second_kind)
            assert entry.beyond is not None and 0.0 <= entry.end <= radial.T_SWITCH
            for t in (0.005, 0.02, 0.1, 0.2, 0.3, 0.45, 0.6, 0.69):
                err = _rel(eval_Q(space, lam, t), mp_q(space, lam, t))
                assert err < bound, (name, lam, t, err)


def _q_bridge_end_by_scan(space, lam):
    """Q's bridge end by the scan over every candidate, with the Gamma
    prefactors' x20 rounding for Re lambda > 0."""
    series = radial._second_kind_series(space, lam)
    if series.condition(radial.T_SWITCH) <= radial._Q_CONDITION:
        return radial.T_SWITCH
    rounding, growth = (2e-15 if lam.real > 0.0 else 1e-16), 2.0 * max(0.0, -lam.real)
    return next((t for t in radial._Q_BRIDGE_ENDS
                 if math.log(series.condition(t) * rounding / 1e-15)
                 <= growth * (radial.T_SWITCH - t)), 0.0)


def test_q_bridge_end_for_positive_re_lambda_is_the_scan_end():
    # for Re lambda > 0 the scan passes a t only where the series'
    # condition is at most 0.5, and a condition is at least 1: the bridge
    # ends at 0 with no scan.  The ends stay bit-identical to the scan's
    for name in _BRIDGE_FAMILIES:
        space = space_from_name(name)
        for lam in (*_Q_BRIDGED, 12.0 + 0.5j, 25.3, 40j, -40j, -3.0 + 20j, 0.7 + 0.2j):
            lam = complex(lam)
            continuation.cache_clear()
            end = continuation(space, lam, radial._q_second_kind).end
            assert end == _q_bridge_end_by_scan(space, lam), (name, lam)
            if lam.real > 0.0 and end < radial.T_SWITCH:
                assert end == 0.0, (name, lam)


def test_forward_growth_refusal_does_not_depend_on_request_order():
    # h2 at lambda = 3 passes e^700 at t = 280; a piece read at 279.9 runs
    # to the first step end past it (280.7), and a read at 280.5 was then
    # served (1.2e304) where a fresh one was refused
    for earlier in ((), (279.9,)):
        continuation.cache_clear()
        for t in earlier:
            eval_phi(H2, 3.0, t)
        with pytest.raises(errors.OutOfRangeError, match="floating-point range"):
            eval_phi(H2, 3.0, 280.5)


@pytest.mark.parametrize("name", ["h2", "chn:2"])
def test_connection_coefficients_refuse_an_unresolved_recessive_term(name, mp_c):
    # pairing phi with the dominant Q cancels phi's own dominant term, which
    # is about e^(2 |Re lambda| log 2) of the other at log 2: the condition
    # is 3.5e13 (h2) at +-20.3, and +-10.3 reads within 5.6e-10
    space = space_from_name(name)
    for lam in (10.3, -10.3):
        a_minus, a_plus = connection_coefficients(space, lam)
        assert _rel(a_minus, complex(mp_c(space, mpmath.mpf(lam)))) < 1e-8
        assert _rel(a_plus, complex(mp_c(space, mpmath.mpf(-lam)))) < 1e-8
    for lam in (20.3, 50.3, 500.3, -20.3):
        with pytest.raises(errors.IllConditionedError) as caught:
            connection_coefficients(space, lam)
        assert caught.value.condition > 1e8, lam


def test_connection_coefficients_answer_within_their_bound_at_a_large_re_lambda(mp_c):
    # each answered pair is within the refusal bound, 1e-8, of mpmath.  The
    # pairing's condition once assumed inputs good to an ulp, but phi's
    # series at log 2 carries about |lambda| ulps: 358 of these 465 lambda
    # were answered and 88 were up to 4.3e-8 off.  With the heads'
    # rounding, 109 are answered, the worst 5.6e-9 off
    answered = 0
    for name in ("h2", "h3", "chn:2"):
        space = space_from_name(name)
        for re_lam in np.arange(11.05, 14.1, 0.1):
            for im_lam in (-1.0, -0.5, 0.0, 0.5, 1.0):
                lam = complex(re_lam, im_lam)
                try:
                    got = connection_coefficients(space, lam)
                except errors.IllConditionedError:
                    continue
                answered += 1
                with mpmath.workdps(30):
                    for value, x in zip(got, (lam, -lam)):
                        want = complex(mp_c(space, mpmath.mpc(x.real, x.imag)))
                        assert _rel(value, want) < 1e-8, (name, x)
    assert answered >= 100


@pytest.mark.parametrize("name", ["h2", "chn:2"])
def test_boundary_pair_condition_covers_the_recessive_error(name, mp_c):
    # pairing phi with the dominant Q_-lambda cancels phi's dominant term:
    # at 20.3 a_plus reads 1.6e-4 (h2) and 1.1e-3 (chn:2) off, and the
    # condition times 1e-16 is 3.5e-3 and 4.4e-3.  Without the heads'
    # rounding, 1 + (rho + |lambda|) log 2, it claimed 2.7e-4 on chn:2
    space = space_from_name(name)
    lam = 20.3 + 0j
    sol = continuation(space, lam, radial._phi_series).view(0.0, 1.3)
    pair = boundary_pair(space, lam, sol)
    err = _rel(pair.a_plus, complex(mp_c(space, mpmath.mpf(-20.3))))
    assert pair.condition * 1e-16 >= err > 1e-8, (pair.condition, err)


@pytest.mark.parametrize("name", ["h2", "chn:2", "oh2"])
def test_connection_coefficients_near_zero(name, mp_c):
    # the Abel pairing reads c(+-lambda) near c's pole at 0, with no
    # cancellation: measured worst 1.6e-15 (oh2 at -1e-8)
    space = space_from_name(name)
    for lam in (1e-13, 1e-8, 1e-4 + 1e-5j, 0.3j):
        got = connection_coefficients(space, lam)
        for value, x in zip(got, (complex(lam), -complex(lam))):
            want = complex(mp_c(space, mpmath.mpc(x.real, x.imag)))
            assert _rel(value, want) < 1e-13, (name, x)


def test_connection_coefficients_read_the_wronskian_limit():
    # c(lambda) is the Wronskian limit over -2 lambda, bit for bit: one
    # Abel pairing serves both
    for name in FAMILY_NAMES:
        space = space_from_name(name)
        for lam in _GRID[::4]:
            assert connection_coefficients(space, lam)[0] == \
                wronskian_limit(space, lam) / (-2 * lam), (name, lam)


def test_eval_Q_near_the_singularity_at_zero():
    # tanh(t)^2 underflows below t ~ 1e-162; Q is still returned where it
    # is a float (H3: e^(-lambda t) / (2 sinh t)), and refused where not
    lam = 0.7 + 0.2j
    for t in (1e-30, 1e-200):
        assert _rel(eval_Q(H3, lam, t), cmath.exp(-lam * t) / (2.0 * math.sinh(t))) < 1e-12
    with pytest.raises(ValueError, match="overflows"):
        eval_Q(space_from_name("oh2"), lam, 1e-30)


@pytest.mark.parametrize("lam, t", [(0.8, 1e4), (0.8, 2400.0), (-5.3, 1000.0),
                                    (3.0, 300.0)])
def test_eval_phi_refuses_where_phi_overflows(lam, t):
    # phi grows like e^((|Re lambda| - rho) t): past e^700 the c Q route
    # and, near the lattice (3.0), the ODE would overflow; a ValueError,
    # not an OverflowError or scipy's RuntimeWarnings
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="floating-point range"):
            eval_phi(H2, lam, t)
        if (lam - H2.rho) * t > 700.0:
            with pytest.raises(ValueError, match="floating-point range"):
                phi_solution(H2, lam, t)


@pytest.mark.parametrize("lam, t", [(3.0, 200.0), (1.0, 1000.0)])
def test_eval_phi_near_the_lattice_up_to_the_growth_limit(lam, t):
    # near the lattice the ODE continues phi up to the first step end past
    # t, where phi is still a float: the growth limit is 280 and 1400 here
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _rel(eval_phi(H2, lam, t), phi_solution(H2, lam, t)(t)) < 1e-12


@pytest.mark.parametrize("lam, t", [(3.0, 10.0), (3.0, 50.0), (3.0, 200.0),
                                    (1.0, 1000.0), (3.02, 100.0)])
def test_eval_phi_near_the_lattice_far_out(mp_jacobi, lam, t):
    # near the lattice the forward ODE continues phi in pieces that end at
    # the first step end past each t asked; measured worst 6.2e-15 (3.0, 200)
    mp_phi, _ = mp_jacobi
    assert _rel(eval_phi(H2, lam, t), mp_phi(H2, lam, t)) < 1e-13


@pytest.mark.parametrize("name", FAMILY_NAMES)
def test_phi_at_rho_is_one(name):
    # phi_rho = 1, the trivial representation.  2 rho is an integer, so the
    # ODE continues phi from t = 1.5, with no shift (rho - |Re lambda| = 0),
    # so that the steps' terms past the first nearly vanish; the worst is
    # 2.7e-15 (oh2)
    space = space_from_name(name)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for t in (0.7, 10.0, 300.0, 2000.0):
            assert abs(eval_phi(space, space.rho, t) - 1.0) <= 1e-14, t


# both sides of 2 |Re lambda| = rho (oh2: all but 7.6; hhn:2, rho = 5: 0.4,
# 2.5, -1.3 and 0.9 below)
_RESCALED = (0.4 + 0.3j, 2.5 - 1.2j, 5.1 + 3.0j, -3.7 + 2.2j, 7.6, 0.9 - 3.0j,
             -1.3 - 0.6j, 4.0 + 2.9j)


@pytest.mark.parametrize("name", ["oh2", "hhn:2"])
def test_rescaled_solves_match_mpmath(mp_jacobi, name):
    # phi_solution integrates forward, q_solution backward; the bounds are
    # the jacobi suite's.  Measured worst 3.2e-15 (phi, oh2 at 2.5-1.2j) and
    # 4.0e-15 (Q, oh2 at 0.9-3j)
    mp_phi, mp_q = mp_jacobi
    space = space_from_name(name)
    for sol in phi_solution(space, _RESCALED, 5.2):
        for t in (0.01, 0.05, 0.3, 1.0, 2.5, 5.2):
            assert _rel(sol(t), mp_phi(space, sol.lam, t)) < 5e-12, (sol.lam, t)
    for sol in q_solution(space, _RESCALED, float(_Q_NODES[-1])):
        for t in _Q_NODES.tolist():
            assert _rel(sol(t), mp_q(space, sol.lam, t)) < 3e-12, (sol.lam, t)


def test_long_forward_solves_stay_in_range(mp_jacobi):
    # each column keeps its scale as a power of two, so nothing overflows or
    # reads u back through a factor that underflows: at t_max phi is below
    # e^-690, halfway it matches mpmath (measured worst 1.7e-14, h2 at 0.2)
    mp_phi, _ = mp_jacobi
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for space, lam, t_max in ((space_from_name("oh2"), 5.0, 150.0),
                                  (space_from_name("oh2"), 2.0 + 0.5j, 300.0),
                                  (H2, 0.2, 4000.0)):
            sol = phi_solution(space, lam, t_max)
            assert abs(sol(t_max)) < 1e-300, (lam, t_max)
            if abs(mp_phi(space, lam, t_max / 2.0)) > 1e-300:
                assert _rel(sol(t_max / 2.0), mp_phi(space, lam, t_max / 2.0)) < 1e-10, lam


def test_boundary_pair_at_a_large_lambda_without_overflow():
    # Q_-lambda is about e^350 at log 2 for lambda = 500.3, and each pairing
    # at most e^700: the stacked matching solve once squared its column
    # norms, overflowing with a RuntimeWarning.  connection_coefficients
    # refuses the pair there (a_plus is e^-700 of phi at log 2), so the
    # pair is read by boundary_pair (a_minus measured 9.6e-14 off)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        phi = continuation(H2, 500.3 + 0j, radial._phi_series).view(0.0, 1.3)
        pair = boundary_pair(H2, 500.3, phi)
        with pytest.raises(errors.IllConditionedError):
            connection_coefficients(H2, 500.3)
    assert _rel(pair.a_minus, for_space(H2).value(500.3)) < 1e-12
    assert math.isfinite(pair.condition)


_RANGE = "floating-point range"
_HN100 = space_from_name("hn:100")


@pytest.mark.parametrize("call, error, match", [
    # these four read a builtin ValueError, where c and the Frobenius
    # coefficients already raised OutOfRangeError past the float range
    (lambda: eval_phi(H2, 0.7, 1e4), errors.OutOfRangeError, _RANGE),
    (lambda: eval_Q(H2, -360.3, 2.0), errors.OutOfRangeError, _RANGE),
    (lambda: eval_Q(space_from_name("oh2"), 0.7, 1e-30), errors.OutOfRangeError, _RANGE),
    (lambda: phi_solution(H2, 0.7, 1e4), errors.OutOfRangeError, _RANGE),
    (lambda: eval_Q(H2, 0.7, 0.0), ValueError, "eval_Q needs t > 0"),
    (lambda: eval_phi(H2, 0.7, -1.0), ValueError, "eval_phi needs t >= 0"),
    # array reads, as the resolvent's quadrature makes them: the c Q route,
    # the Frobenius and second-kind series, the forward bridge near the
    # lattice and apply_radial's last read of phi
    (lambda: eval_phi(H2, 0.7, np.array([0.5, 1e4])), errors.OutOfRangeError, _RANGE),
    (lambda: eval_Q(H2, -10.3, np.array([1.0, 100.0])), errors.OutOfRangeError, _RANGE),
    (lambda: eval_Q(space_from_name("oh2"), 0.7, np.array([1e-30, 0.5])),
     errors.OutOfRangeError, _RANGE),
    (lambda: eval_phi(H2, 3.0, np.array([0.5, 300.0])), errors.OutOfRangeError, _RANGE),
    (lambda: apply_radial(H2, -20.3j, lambda s: 1.0, (0.3, 1.2)).on_grid([0.5, 60.0]),
     errors.OutOfRangeError, _RANGE),
    (lambda: eval_Q(H2, 0.7, np.array([0.5, 0.0])), ValueError, "eval_Q needs t > 0"),
    (lambda: eval_phi(H2, 0.7, np.array([0.5, -1.0])), ValueError, "eval_phi needs t >= 0"),
    (lambda: q_solution(H2, 0.7, 0.0), ValueError, "singular at t = 0"),
    (lambda: radial.integrate_radial_ode(H2, [0.7], (0.0, 1.0), [(1.0, 0.0)]),
     ValueError, "inside"),
    (lambda: radial.integrate_radial_ode(H2, [0.7, 0.9], (0.2, 1.0), [(1.0, 0.0)]),
     ValueError, "one initial"),
    (lambda: connection_coefficients(H2, 0.0), errors.IllConditionedError,
     "resolved only to inf"),
    # J W(phi, Q_-lambda) at log 2 is about e^(2 lambda log 2), past e^709
    (lambda: connection_coefficients(H2, 1000.3), errors.OutOfRangeError, _RANGE),
    # near the lattice phi^S is ODE pieces, refused past t = 700 / 2.5 ...
    (lambda: ktype_radial_profile(3.0, 0, 2000.0), errors.OutOfRangeError,
     "leaves the floating-point range before t = 2000"),
    # ... and (2 sinh t)^m is a float of its own, which overflows past 710
    (lambda: ktype_radial_profile(1.0, 1, 720.0), errors.OutOfRangeError,
     "leaves the floating-point range at t = 720"),
    # the pairing reads Q's Frobenius series, which needs t >= log 2
    (lambda: boundary_pair(H2, 0.7, continuation(H2, 0.7 + 0j, radial._phi_series)
                           .view(0.0, 0.5)), ValueError, "matching point"),
    # Q_-lambda = Q_lambda at 0: no pair
    (lambda: boundary_pair(H2, 0.0, phi_solution(H2, 0.0, 1.0)),
     errors.IllConditionedError, "coincide"),
    # on hn:100 Q grows like t^-98 toward 0: past the float range at 1e-4,
    # where the backward bridge (every t below log 2 for Re lambda > 0, or
    # the conditioned second-kind series' bridge) once read inf or nan
    (lambda: eval_Q(_HN100, 0.7 + 0.3j, 1e-4), errors.OutOfRangeError, _RANGE),
    (lambda: eval_Q(_HN100, 5.0, 1e-4), errors.OutOfRangeError, _RANGE),
    (lambda: eval_Q(_HN100, 0.7 + 0.3j, np.array([1e-2, 1e-4])), errors.OutOfRangeError,
     _RANGE),
    (lambda: q_solution(_HN100, 0.7 + 0.3j, 1e-4)(1e-4), errors.OutOfRangeError, _RANGE),
    (lambda: kernel(_HN100, -0.7j, 1e-4), errors.OutOfRangeError, _RANGE),
    (lambda: radial.integrate_radial_ode(
        _HN100, [0.7 + 0.3j], (radial.T_SWITCH, 1e-4),
        [radial._series(_HN100, 0.7 + 0.3j).pair(radial.T_SWITCH)])[0].at(1e-4),
     errors.OutOfRangeError, _RANGE),
], ids=["eval_phi-range", "eval_Q-frobenius-range", "eval_Q-second-kind-range",
        "phi_solution-range", "eval_Q-at-0", "eval_phi-below-0",
        "eval_phi-array-range", "eval_Q-array-frobenius-range",
        "eval_Q-array-second-kind-range", "eval_phi-array-growth-limit",
        "apply-range", "eval_Q-array-at-0", "eval_phi-array-below-0", "q_solution-at-0",
        "span-at-0", "one-init-two-lambdas", "ill-conditioned-match", "pairing-range",
        "growth-limit",
        "ktype-factor-range", "match-outside-solution", "boundary-pair-at-0",
        "eval_Q-bridge-range", "eval_Q-dominant-bridge-range", "eval_Q-array-bridge-range",
        "q_solution-bridge-range", "kernel-bridge-range", "ode-solution-range"])
def test_refusals(call, error, match):
    # overflows, and refusals that no test, verify suite or benchmark
    # workload reached, each raised as its structured error with no warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error, match=match) as caught:
            call()
    if error is errors.IllConditionedError:
        assert caught.value.condition == math.inf


def test_huge_lambda_gives_one_at_zero_and_value_errors_elsewhere():
    # the series of phi overflows at every t > 0 from |lambda| ~ 1e154 on;
    # phi(0) = 1 needs no series
    assert eval_phi(H2, 1e200, 0.0) == 1
    for call in (lambda: eval_phi(H2, 1e160j, 0.5),
                 lambda: connection_coefficients(H2, 1e160j),
                 lambda: phi_solution(H2, 1e160j, 1.0)):
        with pytest.raises(ValueError, match="overflows"):
            call()


def test_ode_pieces_refuse_a_huge_imaginary_lambda():
    # the steps of a piece grow with |Im lambda| times its length; at
    # 1e10j the forward (phi) and backward (Q) pieces would take hours
    for call in (lambda: eval_phi(H2, 1e10j, 0.3), lambda: eval_Q(H2, 1e10j, 0.3),
                 lambda: phi_solution(H2, 1e10j, 0.3), lambda: q_solution(H2, 1e10j, 0.3)):
        with pytest.raises(ValueError, match="radians"):
            call()


def test_phi_and_Q_inside_the_floating_point_range_at_large_t():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for lam, t in ((0.8, 2000.0), (3.0, 130.0), (0.8j, 1e5)):
            assert cmath.isfinite(eval_phi(H2, lam, t))
        # phi_solution's one piece ends one step past t_max, where phi is
        # about e^500
        assert cmath.isfinite(phi_solution(H2, 3.0, 200.0)(200.0))
        # Q_lambda grows like e^(-(rho + Re lambda) t) for Re lambda < -rho
        with pytest.raises(ValueError, match="floating-point range"):
            eval_Q(H2, -5.3, 1000.0)
        assert cmath.isfinite(eval_Q(H2, -5.3, 100.0))


def test_phi_solution_at_large_lambda(mp_jacobi):
    # the series that seeds the ODE overflows at t = 0.01 from |lambda| ~ 1e4
    # on; the seed moves to 0.005, 0.0025, ... instead
    mp_phi, _ = mp_jacobi
    for lam in (1e4 + 0.3, 3e4 + 0.3):
        try:
            sol = phi_solution(H2, lam, 0.011)
        except _LIBRARY_ERRORS:
            continue
        assert _rel(sol(0.011), mp_phi(H2, lam, 0.011)) < 1e-9, lam


@pytest.mark.parametrize("t_max", [0.05, 0.15])
def test_phi_solution_below_the_seed(mp_jacobi, t_max):
    # a t_max below 2 T_SEED moves the seed to t_max / 2, so the ODE still
    # runs a piece; measured worst 5.3e-14 (h2 at 0.15)
    mp_phi, _ = mp_jacobi
    for name in ("h2", "hhn:2", "oh2"):
        space = space_from_name(name)
        for sol in phi_solution(space, [0.3 - 1j, 2.7 + 0.5j, 1.6, 5.1 + 3j], t_max):
            assert sol.ts[0] == t_max / 2.0 and sol.ts[-2] <= t_max < sol.ts[-1]
            for t in (t_max / 4.0, t_max / 2.0, 0.75 * t_max, t_max):
                assert _rel(sol(t), mp_phi(space, sol.lam, t)) < 1e-12, (name, sol.lam, t)
    with pytest.raises(ValueError, match="exceed"):
        phi_solution(H2, 0.5, 0.01)


def test_phi_solution_seed_at_a_large_imaginary_lambda(mp_jacobi):
    # |Im lambda| tanh(t) passes _SERIES_REACH = 4 before T_SEED = 0.2, so the
    # ODE starts at atanh(4/30) = 0.134, where the series keeps its digits.
    # The seed at 0.01 read 2.4e-12 to 1.45e-11 here (worst h2 at 30j); from
    # 0.134 it reads 2.4e-12 to 1.24e-11
    mp_phi, _ = mp_jacobi
    seed = math.atanh(radial._SERIES_REACH / 30.0)
    for name in ("h2", "chn:2", "oh2"):
        space = space_from_name(name)
        for sol in phi_solution(space, [0.7 + 30j, -1.3 - 30j, 30j], 2.0):
            assert sol.ts[0] == seed < radial.T_SEED
            for t in (0.05, 0.1, 0.2, 0.5, 1.0, 2.0):
                assert _rel(sol(t), mp_phi(space, sol.lam, t)) < 2e-11, (name, sol.lam, t)


def test_abel_wronskian_is_minus_two_lambda_c():
    # J (phi Q' - phi' Q) at 0.8, 1 and 1.2, read from the two series,
    # against -2 lambda c(lambda)
    for name in FAMILY_NAMES:
        space = space_from_name(name)
        cf = for_space(space)
        for lam in _GRID[::3]:
            target = -2.0 * lam * cf.value(lam)
            for t in (0.8, 1.0, 1.2):
                assert _rel(abel_wronskian(space, lam, t), target) < 1e-13, (name, lam, t)
    # Q's Frobenius series needs t >= log 2; past T_PHI phi would read c
    for t in (0.5, 1.6):
        with pytest.raises(ValueError, match="needs log 2 <= t"):
            abel_wronskian(H2, 0.7, t)


@pytest.mark.parametrize("lam, refusal, tol", [
    (1.0, ResonantExponentError, 1e-14),
    (2.0, ResonantExponentError, 1e-14),
    (600.3, errors.OutOfRangeError, 1e-12),
])
def test_wronskian_limit_pairs_with_q_lambda_alone(lam, refusal, tol):
    # -2 lambda c(lambda) needs only the recessive Q_lambda: phi's pairing
    # with Q_-lambda is refused at these lambda (frobenius_Q at a positive
    # integer, the floating-point range at 600.3), but c is finite there
    # (measured 5.2e-16 off at 1 and 2, 7.4e-13 at 600.3)
    phi = continuation(H2, complex(lam), radial._phi_series).view(0.0, 1.3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(refusal):
            radial._connection_solve(H2, (-lam,), phi)
        got = wronskian_limit(H2, lam)
    assert _rel(got, -2.0 * lam * for_space(H2).value(lam)) < tol


def _hyp_terms_by_recurrence(a, b, c, w, size):
    """The terms of 2F1(a, b; c; w) one at a time by the term ratio, with
    _hyp_coefficients' cut rule, size cap and OverflowErrors."""
    a, b, c = a - 1.0, b - 1.0, c - 1.0
    terms = [1.0 + 0j]
    term, peak, prev = terms[0], 1.0, 1.0
    for n in range(1, size):
        term *= (a + n) * (b + n) / ((c + n) * n) * w
        mag = abs(term) * (1.0 + math.log(n + 1.0))
        if not mag < math.inf:
            raise OverflowError(f"2F1 at w = {w} overflows at term {n}")
        terms.append(term)
        if mag > peak:
            peak = mag
        elif mag < radial._SERIES_TOL * peak and mag < prev:
            break
        prev = mag
    else:
        if size >= radial._SERIES_MAX_TERMS:
            raise OverflowError(f"2F1 at w = {w} needs more than {size} terms")
    return np.array(terms)


def _same_hyp_outcome(*args):
    """Whether _hyp_coefficients and the recurrence give equal terms (signed
    zeros aside), or OverflowErrors with one message."""
    outcomes = []
    for build in (radial._hyp_coefficients, _hyp_terms_by_recurrence):
        try:
            outcomes.append(build(*args))
        except OverflowError as exc:
            outcomes.append(str(exc))
    got, want = outcomes
    if isinstance(want, str) or isinstance(got, str):
        return got == want
    return len(got) == len(want) and np.array_equal(got, want)


def test_hyp_coefficients_equal_the_term_recurrence():
    # every term (bit for bit, signed zeros aside) and every truncation
    # length, over phi's series and both second-kind series at phi's seed,
    # log 2 and T_PHI; the chunks (16 + 50 / -log w terms, then twice as
    # many each) meet the cut at their edges and inside them
    rng = random.Random(5)
    cases = []
    for _ in range(150):
        space = space_from_name(rng.choice(_SERIES_FAMILIES))
        lam = complex(rng.uniform(-25.0, 25.0), rng.uniform(-12.0, 12.0))
        a, b, c1 = radial._jacobi_abc(space, lam)
        c, alpha = 1.0 + lam, c1 - 1.0
        for reach in (radial.T_SEED, radial.T_SWITCH, radial.T_PHI):
            w = math.tanh(reach) ** 2
            cases.append((a, b, c1, w, radial._SERIES_MAX_TERMS))
            if alpha != round(alpha):
                cases.append((c - a, c - b, 1.0 - alpha, w, radial._SERIES_MAX_TERMS))
            elif round(alpha):
                cases.append((c - a, c - b, 1.0 - round(alpha), w, round(alpha)))
    for args in cases:
        assert _same_hyp_outcome(*args), args
    assert len({len(radial._hyp_coefficients(*args)) for args in cases}) > 50


@pytest.mark.parametrize("lam, w, size", [
    (0.3 + 0.2j, 0.81, 100),  # capped before the terms settle
    (0.3 + 0.2j, 0.81, 1),
    (0.3 + 0.2j, math.tanh(12.0) ** 2, radial._SERIES_MAX_TERMS),  # never settles
    (1e160j, 1e-4, radial._SERIES_MAX_TERMS),  # the first term overflows
    (-700.7 + 0.4j, math.tanh(1.5) ** 2, radial._SERIES_MAX_TERMS),  # a later one does
    (1e4 + 0.3, math.tanh(0.01) ** 2, radial._SERIES_MAX_TERMS),
    (-0.5, 0.81, radial._SERIES_MAX_TERMS),  # a = 0: every term past the first is 0
])
def test_hyp_coefficients_cap_and_overflow_as_the_recurrence(lam, w, size):
    args = (*radial._jacobi_abc(H2, complex(lam)), w, size)
    assert _same_hyp_outcome(*args)
    if size < radial._SERIES_MAX_TERMS:
        assert len(radial._hyp_coefficients(*args)) == size


def test_phi_at_lambda_in_the_hundreds(mp_jacobi):
    # the series sums where phi is a float: no overflow warning on the way
    # (-700.7 + 0.4j) and no handover to an ODE piece that would overflow
    # before t = 1.5 (1000.3).  Measured worst 1.1e-13 (t = 0.8), about
    # half of it from rounding tanh(t) and cosh(t) at |lambda| = 700
    mp_phi, _ = mp_jacobi
    space = space_from_name("chn:2")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for lam, t in ((-700.7 + 0.4j, 0.05), (-700.7 + 0.4j, 0.3), (-700.7 + 0.4j, 0.8),
                       (1000.3, 0.05)):
            assert _rel(eval_phi(space, lam, t), mp_phi(space, lam, t)) < 2e-13, (lam, t)
        # phi(0) = 1 and phi'(0) = 0 exactly, from the series' t = 0 branch
        for name in FAMILY_NAMES:
            for lam in (0.7 + 0.2j, 6j):
                assert eval_phi(space_from_name(name), lam, 0.0) == 1, (name, lam)
                phi = continuation(space_from_name(name), lam, radial._phi_series)
                assert phi.pair(0.0)[1] == 0, (name, lam)


_hypothesis_settings = settings(max_examples=40, deadline=None, derandomize=True,
                                database=None)


@st.composite
def _off_lattice_point(draw):
    name = draw(st.sampled_from(_SERIES_FAMILIES))
    lam = draw(st.complex_numbers(max_magnitude=20.0, allow_nan=False,
                                  allow_infinity=False))
    assume(abs(lam - round(lam.real)) >= 0.05)
    assume(abs(2.0 * lam - round(2.0 * lam.real)) > 1e-6)
    return space_from_name(name), lam


@_hypothesis_settings
@given(_off_lattice_point(), st.floats(1e-3, 9.0))
def test_phi_is_even_in_lambda_property(point, t):
    # the Pfaff form of the series is not even in lambda; the gap is
    # measured against phi_{Re lambda}(t), which bounds |phi_lambda(t)|
    # and stays away from the zeros phi has for complex lambda
    space, lam = point
    gap = abs(eval_phi(space, lam, t) - eval_phi(space, -lam, t))
    assert gap <= 1e-10 * abs(eval_phi(space, lam.real, t)), (space, lam, t)


@settings(_hypothesis_settings, max_examples=15)
@given(_off_lattice_point(),
       st.lists(st.floats(1e-3, 9.0), min_size=2, max_size=6),
       st.randoms(use_true_random=False))
def test_phi_does_not_depend_on_request_order_property(point, ts, rnd):
    space, lam = point
    ts = sorted(ts) + [1.4, 1.5, 1.6]

    def run(order):
        continuation.cache_clear()
        return {t: eval_phi(space, lam, t) for t in order}

    shuffled = list(ts)
    rnd.shuffle(shuffled)
    first = run(ts)
    assert run(ts[::-1]) == first
    assert run(shuffled) == first


@settings(_hypothesis_settings, max_examples=30)
@given(_off_lattice_point(), st.floats(1e-3, 3.0))
def test_wronskian_is_constant_across_the_switches_property(point, t):
    # J (phi Q' - phi' Q) from the cached phi and Q, on both sides of log 2
    # (Q's series / Frobenius switch) and of 1.5 (phi's series / c Q
    # switch), equals the closed form -2 lambda c(lambda)
    space, lam = point
    target = -2.0 * lam * for_space(space).value(lam)
    phi = continuation(space, lam, radial._phi_series)
    q = continuation(space, lam, radial._q_second_kind)
    for s in (t, 0.5, radial.T_SWITCH - 1e-9, radial.T_SWITCH, 1.45, 1.55):
        (u, du), (v, dv) = phi.pair(s), q.pair(s)
        left, right = u * dv, du * v
        scale = space.density_J_t(s) * max(abs(left), abs(right))
        gap = abs(space.density_J_t(s) * (left - right) - target)
        assert gap <= 1e-10 * max(scale, abs(target)), (space, lam, s)


# -- cache entries are data ----------------------------------------------------


_CACHE_WRAPPER = type(functools.lru_cache()(abs))


def _code_reachable_from(root, skip):
    """The functions, bound methods, cells and functools cache wrappers
    reachable from root through gc referents, not entering ``skip``, classes
    or modules."""
    seen, stack, found = {id(skip)}, [root], []
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, (type, types.ModuleType)):
            continue
        seen.add(id(obj))
        if isinstance(obj, (types.FunctionType, types.MethodType, types.CellType,
                            _CACHE_WRAPPER)):
            found.append(obj)
        else:
            stack.extend(gc.get_referents(obj))
    return found


@pytest.mark.parametrize("space, lam, kind, ts", [
    (H2, 0.8 + 0.3j, radial._phi_series, (0.5, 3.0)),  # c Q beyond the switch
    (H2, 3.02 + 0j, radial._phi_series, (0.5, 3.0)),  # near the lattice: ODE pieces
    (H2, 0.8 + 0.3j, radial._q_second_kind, (1.0, 0.3)),  # second-kind series below
    (H3, 8.3 + 0.4j, radial._q_second_kind, (1.0, 0.3)),  # ill-conditioned: ODE pieces
])
def test_cache_entries_keep_no_code_outside_their_ode_pieces(space, lam, kind, ts):
    # an entry is data (series, c values, switch, end) plus the ODE pieces:
    # a closure or cache per entry adds cells and functions that every full
    # garbage collection traverses.  Pieces are made only for reads on the
    # bridge between the switch and the end
    continuation.cache_clear()
    entry = continuation(space, lam, kind)
    for t in ts:
        entry.pair(t)
    assert _code_reachable_from(entry, entry.pieces) == []
    sign = entry.sign
    bridge = [t for t in ts if (t - entry.switch) * sign > 0.0 >= (t - entry.end) * sign]
    assert bool(bridge) == bool(entry.pieces)


@pytest.mark.parametrize("space, lam, kind, ts", [
    (H2, 3.02 + 0j, radial._phi_series, (1.6, 2.2, 3.7, 9.0, 20.0, 50.0)),  # near the lattice
    (space_from_name("oh2"), 5.0 + 0j, radial._phi_series, (1.6, 2.5, 4.0, 9.0, 20.0)),
    (H2, 40j, radial._phi_series, (0.15, 0.3, 0.7, 1.2, 2.0)),  # switch below log 2
    (H3, 8.3 + 0.4j, radial._q_second_kind, (0.6, 0.3, 0.1, 0.02, 0.005)),  # ill-conditioned
], ids=["h2-3.02", "oh2-5", "h2-40j", "h3-8.3+0.4j"])
def test_ode_pieces_read_alike_in_any_request_order(space, lam, kind, ts):
    # a piece ends at the first step end past the t that asked for it, and
    # the next continues its solve's own state: the pieces are one solve's
    # steps, so every read, at a piece's end included, is the same bits
    # whatever the order of the reads
    def run(order):
        continuation.cache_clear()
        entry = continuation(space, lam, kind)
        return {t: entry.pair(t) for t in order}, entry

    ascending = sorted(ts, key=lambda t: (t - ts[0]) * (ts[1] - ts[0]))
    _, entry = run(ascending)
    ends = [float(p.ts[-1]) for p in entry.pieces] + [float(entry.pieces[-1].ts[1])]
    ts = ascending + ends
    shuffled = list(ts)
    random.Random(4).shuffle(shuffled)
    first, entry = run(ts)
    assert len(entry.pieces) > 1
    assert run(ts[::-1])[0] == first
    assert run(shuffled)[0] == first


def test_a_piece_ends_one_step_past_the_asked_t(monkeypatch):
    # at |Im lambda| = 1e3 and 1e4 phi's series hands over at 0.004 and
    # 4e-4, and a step is at most 4 / |lambda| long: a piece that ran on to
    # a fixed t = 1.5 took 375 and 3,750 steps
    solves = _solves(monkeypatch)
    for lam, t, most in ((1e3j, 0.05, 20), (1e4j, 0.3, 800)):
        continuation.cache_clear()
        solves.clear()
        eval_phi(H2, lam, t)
        assert 0 < sum(len(s.t) - 1 for s in solves) <= most, lam


def test_phi_read_up_to_its_switch_makes_no_c_value_or_frobenius_series(monkeypatch):
    # c(lambda) Q_{-lambda} + c(-lambda) Q_lambda is made at the first read
    # past phi's switch, once: an entry read only below it makes neither c
    # value nor either Frobenius series
    built, values = [], []
    build, value = radial.frobenius_Q, CFunction.value
    monkeypatch.setattr(radial, "frobenius_Q",
                        lambda space, lam: built.append(lam) or build(space, lam))
    monkeypatch.setattr(CFunction, "value",
                        lambda self, lam: values.append(lam) or value(self, lam))
    continuation.cache_clear()
    radial._series.cache_clear()
    lam = 0.8 + 0.3j
    entry = continuation(H2, lam, radial._phi_series)
    for t in (0.0, 0.3, 1.0, radial.T_PHI):
        entry.pair(t)
    assert built == [] and values == []
    assert entry.switch == radial.T_PHI
    for t in (1.6, 3.0, 9.0):
        entry.pair(t)
    assert sorted(built, key=lambda x: x.real) == [-lam, lam]
    assert values == [lam, -lam]


def test_frobenius_tail_is_measured_against_the_sum(mp_jacobi):
    # on hn:200 h(1/2) is huge: an absolute tail of 1e-16 was never reached
    # within 400 terms, and the AccuracyWarning refused a correct Q
    _, mp_q = mp_jacobi
    space, lam = space_from_name("hn:200"), 0.3 + 0.5j
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert frobenius_Q(space, lam).truncation < radial._FROBENIUS_MAX_TERMS
        for t in (0.7, 1.0, 3.0):
            assert _rel(eval_Q(space, lam, t), mp_q(space, lam, t)) < 1e-12, t


@pytest.mark.parametrize("name", ["hn:1000", "chn:1000"])
def test_frobenius_coefficients_past_the_float_range_are_refused(name):
    # at a large multiplicity the Frobenius coefficients overflow before the
    # tail settles: frobenius_Q summed 400 nan terms and only warned, so
    # eval_Q and kernel returned nan+nanj
    space = space_from_name(name)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in (lambda: frobenius_Q(space, 0.7), lambda: eval_Q(space, 0.7, 1.0),
                     lambda: eval_Q(space, 0.7, 0.3), lambda: kernel(space, 0.7, 1.0),
                     lambda: eval_phi(space, 0.7, 3.0)):
            with pytest.raises(errors.OutOfRangeError, match="floating-point range"):
                call()
