"""Verification suites: every library-level identity with a numeric budget.

Each suite function returns CheckRow records (one per measured quantity) so
the command-line front end and the test suite share a single source of
truth.  A row's ``measured`` and ``tolerance`` are what gets printed; the
``passed`` flag is authoritative (a few checks pass on equality or a
lower bound rather than ``measured < tolerance``).

The lambda grid used by the connection and Wronskian suites avoids the
half-integer lattice where boundary exponents collide, per the solver
preconditions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.random import default_rng  # at import: np.random loads on first use

from . import model_h2, resonances, scattering
from .boundary import boundary_pair, bv_limit
from .cfunction import for_space
from .errors import PoleSignal
from .radial import (
    RadialBatch,
    RadialSolution,
    abel_wronskian,
    eval_phi,
    eval_Q,
    phi_solution,
    q_solution,
)
from .resolvent import resolvent_difference
from .space import RankOneSpace, space_from_name

FAMILY_NAMES = ("h2", "h3", "chn:2", "hhn:2", "oh2")

LAMBDA_RE = (0.3, 0.9, 1.6, 2.2, 2.7)
LAMBDA_IM = (-1.0, -0.5, 0.0, 0.5, 1.0)

_QUAD_SEED = 20260522


@dataclass(frozen=True)
class CheckRow:
    suite: str
    name: str
    measured: float
    tolerance: float
    passed: bool


def _row(suite, name, measured, tolerance, passed=None):
    measured = float(measured)
    if passed is None:
        passed = measured < tolerance
    return CheckRow(suite, name, measured, float(tolerance), bool(passed))


def _families(spaces=None):
    if spaces is None:
        return [(name, space_from_name(name)) for name in FAMILY_NAMES]
    return list(spaces)


def lambda_grid():
    """The 25-point lattice-avoiding lambda grid shared by suites 1 and 2."""
    return [complex(re, im) for re in LAMBDA_RE for im in LAMBDA_IM]


def _grid_points(spaces):
    """(family name, space, lambda) over every family and the shared grid."""
    return [(name, space, lam) for name, space in _families(spaces)
            for lam in lambda_grid()]


def _grid_c(spaces, signs):
    """c(s lambda) over _grid_points(spaces), one row per sign s: one array
    read of c per space."""
    grid = np.array(lambda_grid())
    args = np.concatenate([s * grid for s in signs])
    vals = np.array([for_space(space).value(args).reshape(len(signs), -1)
                     for _, space in _families(spaces)])
    return vals.transpose(1, 0, 2).reshape(len(signs), -1)


# -- 1: connection identity --------------------------------------------------

def check_connection(spaces=None):
    """phi = c(lambda) Q_{-lambda} + c(-lambda) Q_lambda, two independent routes.

    Per grid point the row aggregates (a) the identity residual at each t,
    normalized by the largest of the three terms — the boundary branches can
    dwarf phi by 1e7 at small t on the high-rho families, where a phi-relative
    residual would only measure the conditioning of the cancellation, not the
    correctness of the factors — and (b) the boundary pair of the integrated
    phi (solved to 5.2, so it covers log 2), read by boundary_pair's Abel
    pairing with the Frobenius Q_{+-lambda} at log 2, against the
    closed-form c values, which stays fully discriminating at those points.
    phi is one batched solve over every family and grid point (125 lambdas
    for the five families), Q_{-lambda} and Q_lambda (continued down to
    t = 0.5) one of 250; each is read by one RadialBatch per t, the
    boundary pairs by one batched pairing, and c(+-lambda) by one array read
    per space.
    """
    ts = (0.5, 1.0, 2.0, 5.0)
    points = _grid_points(spaces)
    names, grid_spaces, lams = zip(*points)
    count = len(lams)
    phis = phi_solution(grid_spaces, lams, 5.2)
    qs = q_solution(grid_spaces * 2, [-lam for lam in lams] + list(lams), min(ts))
    cp, cm = _grid_c(spaces, (1, -1))
    pairs = boundary_pair(grid_spaces, lams, phis)
    worst = np.maximum(abs(np.array([p.a_minus for p in pairs]) - cp) / abs(cp),
                       abs(np.array([p.a_plus for p in pairs]) - cm) / abs(cm))
    phi_batch, q_batch = RadialBatch(phis), RadialBatch(qs)
    for t in ts:
        phi, q = phi_batch(t), q_batch(t)
        left, right = cp * q[:count], cm * q[count:]
        scale = np.maximum(np.maximum(abs(phi), abs(left)), abs(right))
        worst = np.maximum(worst, abs(phi - (left + right)) / scale)
    return [_row("connection", f"{name} lambda={lam:g}", gap, 1e-8)
            for name, lam, gap in zip(names, lams, worst)]


# -- 2: Wronskian limit ------------------------------------------------------

_ABEL_TS = (0.8, 1.0, 1.2)


def check_wronskian(spaces=None):
    """J (phi Q' - phi' Q) = -2 lambda c(lambda) on the shared lambda grid.

    By Abel's identity the left side is constant in t, and its value is lim
    J Q', which the closed-form c gives on the right.  The row is the worst
    relative gap over t = 0.8, 1, 1.2, where phi is its Jacobi series and Q
    its Frobenius series, so the left side reads no c and integrates
    nothing: one batched pairing per t over every family and grid point,
    and c by one array read per space.
    """
    names, grid_spaces, lams = zip(*_grid_points(spaces))
    target = -2.0 * np.array(lams) * _grid_c(spaces, (1,))[0]
    gap = np.zeros(len(lams))
    for t in _ABEL_TS:
        gap = np.maximum(gap, abs(np.array(abel_wronskian(grid_spaces, lams, t)) - target))
    return [_row("wronskian", f"{name} lambda={lam:g}", g, 1e-6)
            for name, lam, g in zip(names, lams, gap / abs(target))]


# -- 3: H^3 closed forms -----------------------------------------------------

def check_h3_oracles(spaces=None):
    """eval_phi / eval_Q / c against the elementary hyperbolic-3-space forms."""
    rows = []
    space = space_from_name("h3")
    cf = for_space(space)
    for lam in (0.5, 2.0, 1.0 + 1.0j):
        for t in (0.5, 1.0, 3.0):
            ora = model_h2.oracle_h3(lam, t)
            worst = max(
                abs(eval_phi(space, lam, t) - ora.phi) / abs(ora.phi),
                abs(eval_Q(space, lam, t) - ora.Q) / abs(ora.Q),
                abs(cf.value(complex(lam)) - ora.c) / abs(ora.c),
            )
            rows.append(_row("h3-oracles", f"lambda={lam:g} t={t:g}", worst, 1e-10))
    return rows


# -- 4: resonance enumeration ------------------------------------------------

def check_resonances(spaces=None):
    rows = []
    h2 = space_from_name("h2")
    for rec in resonances.enumerate_resonances(h2, 10, verify_complete=True):
        dist = abs(rec.zeta - 1j * (0.5 + rec.k))
        rows.append(_row("resonances", f"h2 k={rec.k}", dist, 1e-10))
    empty = resonances.enumerate_resonances(
        space_from_name("h3"), 10, verify_complete=True
    )
    rows.append(_row("resonances", "h3 empty", float(len(empty)), 1.0,
                     passed=len(empty) == 0))
    ch2 = space_from_name("chn:2")
    for rec in resonances.enumerate_resonances(ch2, 5, verify_complete=True):
        dist = abs(rec.zeta - 1j * (2.0 + 2.0 * rec.k))
        rows.append(_row("resonances", f"chn:2 k={rec.k}", dist, 1e-10))
    return rows


# -- 5: boundary-integral route to the resolvent difference ------------------

def quadrature_draws():
    """Ten seeded (zeta, z1, z2) draws: |zeta| <= 2, away from the imaginary axis
    (all scattering/resolvent poles sit on it), points in the disk separated
    enough that the geodesic distance is well conditioned."""
    rng = default_rng(_QUAD_SEED)
    draws = []
    while len(draws) < 10:
        zr = rng.uniform(-2.0, 2.0)
        zi = rng.uniform(-1.5, 1.5)
        zeta = complex(zr, zi)
        r1, r2 = rng.uniform(0.08, 0.45, 2)
        a1, a2 = rng.uniform(0.0, 2.0 * math.pi, 2)
        z1 = r1 * complex(math.cos(a1), math.sin(a1))
        z2 = r2 * complex(math.cos(a2), math.sin(a2))
        if abs(zeta) > 2.0 or abs(zr) < 0.15:
            continue
        if model_h2.distance(z1, z2) < 0.05:
            continue
        draws.append((zeta, z1, z2))
    return draws


def check_quadrature(spaces=None):
    """Kernel-difference identity vs. the boundary quadrature on the disk."""
    rows = []
    h2 = model_h2.H2
    for i, (zeta, z1, z2) in enumerate(quadrature_draws()):
        t = model_h2.distance(z1, z2)
        lhs = resolvent_difference(h2, zeta, t)
        rhs = model_h2.resolvent_difference_quadrature(zeta, z1, z2)
        rel = abs(lhs - rhs) / abs(lhs)
        rows.append(_row("quadrature", f"draw {i} zeta={zeta:.3g}", rel, 1e-5))
    return rows


# -- 6: boundary values of Poisson transforms --------------------------------

_FATOU_KTYPES = range(-4, 5)


def _poisson_profiles(lam):
    """pairs(t): the radial pairs of P_lambda e^{in theta} for every n in
    _FATOU_KTYPES, from one quadrature per t."""
    @lru_cache(maxsize=None)
    def pairs(t):
        return model_h2.poisson_radial_pair(lam, _FATOU_KTYPES, t)

    return pairs


def check_fatou(spaces=None):
    """bv(P_lambda e^{in theta}) = c(lambda) e^{in theta}: the radial factor
    must reproduce c(lambda) by the Fatou limit (coarse tolerance) and by
    boundary_pair (tight), the Abel pairing at log 2 on model_h2.ktype_space(n)
    of the same quadrature profile divided by (2 sinh t)^|n| on [0.6, 1.3].
    The nine K-types of one lambda share each quadrature."""
    rows = []
    h2 = model_h2.H2
    cf = for_space(h2)
    for lam in (0.7, 1.1):
        target = cf.value(complex(lam))
        pairs = _poisson_profiles(lam)
        for i, n in enumerate(_FATOU_KTYPES):
            shifted = model_h2.ktype_space(n)
            samples = []
            for m in range(9):
                y = 0.3 * 0.5**m
                samples.append((y, pairs(-math.log(y))[i][0]))
            got, _ = bv_limit(h2, lam, samples)
            rows.append(_row("fatou", f"limit lambda={lam:g} n={n:+d}",
                             abs(got - target) / abs(target), 1e-3))

            def divided(t, n=n, i=i):
                (u, du), (p, dp) = pairs(t)[i], model_h2.ktype_prefactor(n, t)
                return u / p, (du - dp * u / p) / p

            sol = RadialSolution(shifted, complex(lam), 0.6, 1.3, divided)
            am = boundary_pair(shifted, lam, sol).a_minus
            rows.append(_row("fatou", f"connection lambda={lam:g} n={n:+d}",
                             abs(am - target) / abs(target), 1e-6))
    return rows


# -- 7: scattering inversion and unitarity -----------------------------------

def check_scattering(spaces=None):
    """s(z) s(-z) = 1 on a 10x10 grid, |s| = 1 on the real axis, s = -1 on
    H^3, and s against the K-type route on H^2.  A family's grid and its
    three real points are one array call: the grid is its own negation,
    reversed (its real parts and the symmetric linspace of its imaginary
    parts are), so s(-z) is the same array read backwards.  The H^3 and
    K-type rows are one array call each."""
    rows = []
    res = np.array([0.25, 0.8, 1.35, 1.9, 2.45])
    grid = (np.concatenate((-res[::-1], res))[:, None]
            + 1j * np.linspace(-1.1, 1.1, 10)).ravel()
    points = np.concatenate((grid, [0.5, 1.0, 3.0]))
    for name, space in _families(spaces):
        svals = scattering.scalar(space, points)
        inversion = svals[:grid.size] * svals[grid.size - 1::-1]
        rows.append(_row("scattering", f"{name} inversion 10x10",
                         np.max(abs(inversion - 1.0)), 1e-10))
        rows.append(_row("scattering", f"{name} unitarity",
                         np.max(abs(abs(svals[grid.size:]) - 1.0)), 1e-10))
    h3 = space_from_name("h3")
    svals = scattering.scalar(h3, np.array([0.5, 1.0, 3.0, 0.8 + 0.3j, -2.2 + 0.1j]))
    rows.append(_row("scattering", "h3 scalar == -1", np.max(abs(svals + 1.0)), 1e-12))
    zetas = (0.8, 1.2, 0.9 + 0.2j)
    for zeta, sv in zip(zetas, scattering.scalar(model_h2.H2, np.array(zetas))):
        kv = scattering.ktype_eigenvalue(zeta, 0)
        rows.append(_row("scattering", f"h2 ktype n=0 zeta={zeta:g}",
                         abs(kv - sv) / abs(sv), 1e-8))
    return rows


# -- 9/10: residue structure and rank ----------------------------------------

def check_residues(spaces=None):
    rows = []
    h2 = model_h2.H2
    recs = resonances.enumerate_resonances(h2, 2)
    for rec in recs:
        est, second = resonances.residue_contour_probe(h2, rec, 1.0)
        rel = abs(est - rec.residue_scalar) / abs(rec.residue_scalar)
        rows.append(_row("residues", f"contour k={rec.k}", rel, 1e-6))
        rows.append(_row("residues", f"second moment k={rec.k}", second, 1e-8))
    for k in (0, 1, 2):
        rank, gap = model_h2.residue_rank(k, with_gap=True)
        rows.append(_row("residues", f"rank k={k} == {2 * k + 1}",
                         float(abs(rank - (2 * k + 1))), 1.0,
                         passed=rank == 2 * k + 1))
        rows.append(_row("residues", f"rank gap k={k}", gap, 1e6,
                         passed=gap >= 1e6))
    return rows


# -- residue relation --------------------------------------------------------

def check_residue_relation(spaces=None):
    rows = []
    recs = resonances.enumerate_resonances(model_h2.H2, 2)
    for rec in recs:
        rep = scattering.residue_relation_check(rec)
        rows.append(_row("residue-relation", f"gap k={rec.k}",
                         rep.relative_gap, 1e-8))
        low = min(abs(rep.scattering_side), abs(rep.resolvent_side))
        rows.append(_row("residue-relation", f"sides nonzero k={rec.k}",
                         low, 0.0, passed=low > 0.0))
    return rows


# -- 11: pole classification ------------------------------------------------

def check_poles(spaces=None):
    """Every scalar pole detected on the axis segment is classified; the
    upper-half detections coincide with the resonance list; zeta = 0 clean."""
    rows = []
    for name, space in _families(spaces):
        detected = scattering.find_scalar_poles(space)
        classified = scattering.classify_poles(space, 12)
        unmatched = sum(
            1 for z in detected
            if not any(abs(z - p.zeta) < 5e-3 for p in classified)
        )
        rows.append(_row("poles", f"{name} all classified", float(unmatched),
                         1.0, passed=unmatched == 0))
        upper = sorted(z.imag for z in detected if z.imag > 0)
        expect = sorted(p.zeta.imag for p in classified
                        if p.kind == scattering.KIND_RESONANCE
                        and p.zeta.imag < 4.95)
        agree = len(upper) == len(expect) and all(
            abs(a - b) < 5e-3 for a, b in zip(upper, expect)
        )
        rows.append(_row("poles", f"{name} upper == resonances",
                         float(len(upper)), float(len(expect)), passed=agree))
        origin = sum(1 for z in detected if abs(z) < 1e-9)
        rows.append(_row("poles", f"{name} origin pole-free", float(origin),
                         1.0, passed=origin == 0))
    return rows


# -- 12: the Jacobi series against the ODE ------------------------------------

def _worst_gap(solutions, series, ts):
    """max |sol(t) - series(sol.space, lambda, t)| / |series(...)| over sol, t."""
    worst = 0.0
    for sol in solutions:
        for t in ts:
            want = series(sol.space, sol.lam, t)
            worst = max(worst, abs(sol(t) - want) / abs(want))
    return worst


def check_jacobi(spaces=None):
    """The series routes of eval_phi and eval_Q against the ODE on every family.

    eval_phi sums the Jacobi function's hypergeometric series below
    t = 1.5 and c(lambda) Q_{-lambda} + c(-lambda) Q_lambda above it;
    phi_solution integrates the radial ODE from t = 0.2, seeded by the
    entry's series, the one eval_phi sums.  The routes share only that
    series' first 0.2, so per family the row is the worst
    relative gap over the shared lambda grid at t = 0.5, 1, 2, 5: an oracle
    beyond the H^3 closed forms that needs no extended precision.  Below
    log 2 eval_Q sums the second-kind series, and q_solution integrates
    backward from the Frobenius series at log 2; their row compares them
    at t = 0.005, 0.05, 0.3, 0.6.  phi and Q are each one batched solve
    over every family and grid point.
    """
    rows = []
    points = _grid_points(spaces)
    _, grid_spaces, lams = zip(*points)
    phis = phi_solution(grid_spaces, lams, 5.2)
    qs = q_solution(grid_spaces, lams, 0.005)
    size = len(lambda_grid())
    for i in range(0, len(points), size):
        name = points[i][0]
        worst = _worst_gap(phis[i:i + size], eval_phi, (0.5, 1.0, 2.0, 5.0))
        # the worst gap is 3.8e-14 (oh2)
        rows.append(_row("jacobi", f"{name} ode vs series", worst, 5e-12))
        worst = _worst_gap(qs[i:i + size], eval_Q, (0.005, 0.05, 0.3, 0.6))
        # the worst gap is 3.5e-14 (h3), nearly all of it the series': the
        # Taylor steps read at most 2.9e-15 of mpmath on this grid
        rows.append(_row("jacobi", f"{name} Q ode vs series", worst, 3e-12))
    return rows


SUITES = {
    "connection": check_connection,
    "wronskian": check_wronskian,
    "h3-oracles": check_h3_oracles,
    "resonances": check_resonances,
    "quadrature": check_quadrature,
    "fatou": check_fatou,
    "scattering": check_scattering,
    "residues": check_residues,
    "residue-relation": check_residue_relation,
    "poles": check_poles,
    "jacobi": check_jacobi,
}


def run_suite(name, spaces=None):
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    return SUITES[name](spaces=spaces)


def run_all(spaces=None):
    rows = []
    for name in SUITES:
        rows.extend(SUITES[name](spaces=spaces))
    return rows
