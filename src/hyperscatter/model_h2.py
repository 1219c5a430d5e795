"""Hyperbolic disk model for the two-variable identities.

The rank-one machinery in the rest of the package only sees the radius t.
This module supplies the one concrete model where points, boundary angles,
and Poisson integrals are available explicitly — the unit disk with

    distance(z1, z2) = arccosh(1 + 2|z1-z2|^2 / ((1-|z1|^2)(1-|z2|^2))),
    e^{A(z, theta)}  = (1 - |z|^2) / |z - e^{i theta}|^2,

so that P_lambda f (z) = (1/2pi) int e^{(rho+lambda) A(z,theta)} f(theta)
dtheta maps boundary data to eigenfunctions (rho = 1/2 here).  The bracket
normalization is the one that makes P_lambda 1 = phi_lambda and makes
e^{(rho+lambda)A} an eigenfunction of the hyperbolic Laplacian — both are
asserted in tests rather than assumed.

Boundary quadrature is the periodic trapezoid rule (spectrally accurate for
analytic integrands) with node doubling until the value settles; the Poisson
peak has angular width ~ (1-|z|), so deep Fatou limits legitimately need
tens of thousands of nodes and the doubling reuses previous levels.  The
K-types e^{in theta} of one (lambda, t) share one quadrature: the kernel and
its t-derivative are sampled once per node set, each K-type's sum is
accumulated on its own (no nodes-by-K-types array), and the doubling stops
when all of them have settled.

H^3 closed forms (phi, Q, c) live here too, as the oracle fixtures used all
over the test suite.

Everything assumes the H^2 normalization kappa = 1; the module-level H2
constant is the space every function refers to.
"""

from __future__ import annotations

import cmath
import math
import numbers
import sys
import warnings
from collections import namedtuple

import numpy as np

from .cfunction import for_space
from .errors import (AccuracyWarning, IndeterminateRankError, NonFiniteInputError,
                     OutOfRangeError, QuadratureError)
from .radial import RadialSolution, _phi_series, continuation
from .space import RankOneSpace

H2 = RankOneSpace(1, 0)
_RHO = H2.rho  # 1/2

_MAX_NODES = 1 << 17
_POISSON_TOL = 1e-10  # where the Poisson quadratures' doubling settles
_SVD_THRESHOLD = 1e-8  # residue_rank: singular values below this share of the largest are 0


def distance(z1, z2):
    """Geodesic distance between two points of the open disk."""
    z1, z2 = complex(z1), complex(z2)
    _require_finite(z1=z1, z2=z2)
    for z in (z1, z2):
        if abs(z) >= 1.0:
            raise ValueError(f"|z| = {abs(z)} not inside the disk")
    num = 2.0 * abs(z1 - z2) ** 2
    den = (1.0 - abs(z1) ** 2) * (1.0 - abs(z2) ** 2)
    return math.acosh(1.0 + num / den)


def r_of_t(t):
    """Euclidean radius of the point at geodesic distance t from 0."""
    return math.tanh(0.5 * float(t))


def horocycle_bracket(z, theta):
    """A(z, theta) = log((1-|z|^2)/|z - e^{i theta}|^2)."""
    z = complex(z)
    _require_finite(z=z, theta=theta)
    if abs(z) >= 1.0:
        raise ValueError("bracket defined for |z| < 1")
    d2 = abs(z - cmath.exp(1j * float(theta))) ** 2
    if d2 == 0.0:
        raise OverflowError("z on the boundary at the bracket's singular angle")
    return math.log1p(-abs(z) ** 2) - math.log(d2)


def _require_finite(**args):
    for name, x in args.items():
        if not cmath.isfinite(x):
            raise NonFiniteInputError(f"{name} = {x} is not finite")


def _bracket_grid(z, thetas):
    z = complex(z)
    if not abs(z) < 1.0:
        raise ValueError(f"|z| = {abs(z)} not inside the disk")
    d2 = np.abs(z - np.exp(1j * thetas)) ** 2
    return math.log1p(-abs(z) ** 2) - np.log(d2)


def _bracket_t_derivative_grid(r, thetas):
    """dA/dt along the ray z = r(t) on the positive axis (b = 0 ray rotated out)."""
    d2 = np.abs(r - np.exp(1j * thetas)) ** 2
    return -r - (1.0 - r * r) * (r - np.cos(thetas)) / d2


def _trapezoid_doubling(node_sum, tol, cap=_MAX_NODES):
    """Mean of a periodic integrand over doubling grids until stable.

    ``node_sum(thetas)`` returns the integrand summed over the nodes (an
    array for integrands converged together, every entry to ``tol``);
    previous levels are reused (the 2N-grid mean is the average of the
    N-grid mean and the midpoint mean).  Returns (value, nodes_used,
    converged).
    """
    n = 64  # the first grid
    thetas = 2.0 * math.pi * np.arange(n) / n
    total = node_sum(thetas)
    value = total / n
    while n < cap:
        mids = 2.0 * math.pi * (np.arange(n) + 0.5) / n
        total = total + node_sum(mids)
        n *= 2
        new = total / n
        if np.all(np.abs(new - value) < tol * np.maximum(1.0, np.abs(new))):
            return new, n, True
        value = new
    return value, n, False


def poisson_transform(lam, f, z):
    """(P_lambda f)(z) = (1/2pi) int e^{(rho+lambda)A(z,theta)} f(theta) dtheta.

    f is a callable on [0, 2pi) (vectorized over numpy arrays if possible).
    Trapezoid nodes double until the value is stable to _POISSON_TOL; raises
    QuadratureError if 2^17 nodes do not suffice, NonFiniteInputError for a
    nan or infinite lambda or z.
    """
    lam = complex(lam)
    z = complex(z)
    _require_finite(lam=lam, z=z)

    def node_sum(thetas):
        vals = f(thetas)
        vals = np.asarray(vals) + np.zeros(len(thetas))  # scalar f broadcast
        return np.sum(np.exp((_RHO + lam) * _bracket_grid(z, thetas)) * vals)

    value, n, ok = _trapezoid_doubling(node_sum, _POISSON_TOL)
    if not ok:
        raise QuadratureError(
            f"Poisson quadrature not converged at {n} nodes (|z|={abs(z):.4f})"
        )
    return complex(value)


def poisson_radial_pair(lam, n, t):
    """(u, du/dt) of u(t) = (P_lambda e^{in theta})(r(t)) along the base ray.

    The full transform at z = r e^{ib} is e^{inb} times this radial factor.
    A sequence of n gives a list of pairs: the kernel and its t-derivative
    are sampled once per node set for all of them, and the K-types converge
    jointly (the doubling stops when every one has settled to _POISSON_TOL).
    A non-integral n raises ValueError, a nan or infinite lambda or t
    NonFiniteInputError.
    """
    lam = complex(lam)
    t = float(t)
    _require_finite(lam=lam, t=t)
    many = np.ndim(n) > 0
    ns = list(n) if many else [n]
    if not ns:
        raise ValueError("need at least one K-type index n")
    for k in ns:
        _ktype_index(k)  # refuses 1.5, nan, inf
    ns = [int(k) for k in ns]
    r = r_of_t(t)

    def node_sum(thetas):
        kern = np.exp((_RHO + lam) * _bracket_grid(r, thetas))
        both = np.stack([kern, (_RHO + lam) * _bracket_t_derivative_grid(r, thetas) * kern])
        circle = np.exp(1j * thetas)
        # one K-type at a time: a (nodes x K-types) array would cost memory
        return np.array([both @ circle**k for k in ns])

    value, nn, ok = _trapezoid_doubling(node_sum, _POISSON_TOL)
    if not ok:
        raise QuadratureError(f"Poisson pair quadrature not converged at {nn} nodes")
    pairs = [(complex(u), complex(du)) for u, du in value]
    return pairs if many else pairs[0]


def hyperbolic_laplacian_stencil(func, z):
    """Five-point hyperbolic Laplacian -((1-|z|^2)^2/4) * euclidean Laplacian."""
    z = complex(z)
    h = 1e-3
    lap_euc = (
        func(z + h) + func(z - h) + func(z + 1j * h) + func(z - 1j * h)
        - 4.0 * func(z)
    ) / (h * h)
    return -((1.0 - abs(z) ** 2) ** 2 / 4.0) * lap_euc


# -- K-type reduction --------------------------------------------------------
#
# The radial factor f of P_lambda e^{in theta} solves the radial equation of
# H^2 plus the angular term of the n-th circle mode.  With m = |n| and
# f = (2 sinh t)^m g, g solves the spherical equation of
# S_m = RankOneSpace(1 + 2m, 0), the data of H^(2m+2): the angular term is
# a Jacobi parameter shift alpha -> alpha + m (Koornwinder 1984).
# Since (2 sinh t)^m = y^-m (1 - y^2)^m, (2 sinh t)^m Q^S_lambda is exactly
# the K-type's Q_lambda, so f and g share their boundary pair.


def _integer(what, n):
    """n as an int: NonFiniteInputError for nan or inf, ValueError for 1.5 or
    anything else that is not an integer."""
    if isinstance(n, numbers.Integral):
        return int(n)
    if isinstance(n, numbers.Real):
        if not math.isfinite(n):
            raise NonFiniteInputError(f"{what} = {n!r} is not finite")
        if float(n).is_integer():
            return int(n)
    raise ValueError(f"{what} = {n!r} is not an integer")


def _ktype_index(n):
    """|n| for an integral n, refused as _integer refuses it."""
    return abs(_integer("K-type index n", n))


def ktype_space(n):
    """S_|n| = RankOneSpace(1 + 2|n|, 0): the n-th K-type profile of H^2 is
    ktype_prefactor(n, t) times a radial solution on this space."""
    return RankOneSpace(1 + 2 * _ktype_index(n), 0)


def ktype_prefactor(n, t):
    """(p, dp/dt) of p(t) = (2 sinh t)^|n|."""
    m = _ktype_index(n)
    if m == 0:
        return 1.0, 0.0
    base = 2.0 * math.sinh(t)
    return base**m, 2.0 * m * math.cosh(t) * base ** (m - 1)


def _ktype_q(series, m, t):
    """(2 sinh t)^m Q^S(t) and its t-derivative from the Frobenius series of
    Q^S = y^e h(y): y^(e - m) (1 - y^2)^m h(y), with no factor past the float
    range where the product is not; OutOfRangeError where it is."""
    y = math.exp(-t)
    h, yh = series.series_sums(y)
    a, w = series.exponent - m, 1.0 - y * y
    try:
        head = cmath.exp(-a * t) * w ** (m - 1)
    except OverflowError:
        raise OutOfRangeError(f"the K-type profile at t = {t} leaves the "
                              "floating-point range") from None
    return head * w * h, -head * ((a * w - 2.0 * m * y * y) * h + w * yh)


def ktype_solution(lam, n, t_max=1.35):
    """The radial factor of P_lambda e^{in theta} as a RadialSolution.

    f = (lambda+1/2)_m / (4^m m!) * (2 sinh t)^m * phi^S_lambda(t) with
    m = |n| and S = ktype_space(n), read from the cached spherical function
    of S.  The factor is the t^m coefficient of the Poisson transform of the
    unit K-type; it equals c(lambda) / c_S(lambda) and is entire in lambda,
    so the boundary pair of f has a_minus = c(lambda) with no solve.  The
    solution reports H2 as its space, so its ``residual`` measures the
    spherical equation of H2, which f solves only for n = 0.

    (2 sinh t)^m grows like e^(m t) and phi^S decays like
    e^((|Re lambda| - m - 1/2) t).  Where phi^S is c_S(lambda) Q^S_-lambda
    + c_S(-lambda) Q^S_lambda (past its switch, off the lattice), each
    (2 sinh t)^m Q^S is summed as one factor, so ``at`` refuses
    (OutOfRangeError) only where f leaves the float range.  Where phi^S is
    its series or ODE pieces, the two factors are floats, refused where
    (2 sinh t)^m overflows or a nonzero phi^S is below the normal floats,
    where the product would have lost its digits; at a zero of phi^S the
    profile is 0.
    """
    lam = complex(lam)
    m = _ktype_index(n)
    phi = continuation(ktype_space(m), lam, _phi_series)
    front = math.prod((lam + 0.5 + j for j in range(m)), start=1.0 + 0j)
    front /= 4**m * math.factorial(m)

    def pair(t):
        if t > phi.switch and phi.beyond is not None:
            cp, cm, q_minus, q_plus = phi.beyond.terms
            (a, da), (b, db) = _ktype_q(q_minus, m, t), _ktype_q(q_plus, m, t)
            return front * (cp * a + cm * b), front * (cp * da + cm * db)
        u, du = phi.pair(t)
        try:
            p, dp = ktype_prefactor(m, t)
        except OverflowError:
            p = math.inf
        if not (math.isfinite(p) and (u == 0 or abs(u) >= sys.float_info.min)):
            raise OutOfRangeError(f"(2 sinh t)^{m} or phi^S_lambda(t) leaves the "
                                  f"floating-point range at t = {t}")
        return front * p * u, front * (dp * u + p * du)

    return RadialSolution(H2, lam, 0.0, max(float(t_max), 1.35), pair)


def ktype_radial_profile(lam, n, t):
    """f_{lambda,n}(t) with P_lambda(e^{in theta}) = f_{lambda,n}(t) e^{in b};
    OutOfRangeError where it leaves the float range."""
    t = float(t)
    if not 0.0 < t < math.inf:
        raise ValueError("profile evaluated at finite t > 0 (it vanishes like t^|n| at 0)")
    value = ktype_solution(lam, n, t_max=t).at(t)[0]
    if not cmath.isfinite(value):
        raise OutOfRangeError(f"the K-type profile at t = {t} overflows the "
                              "floating-point range")
    return value


# -- two-variable resolvent identity ----------------------------------------


def resolvent_difference_quadrature(zeta, z1, z2, tol=1e-10, cap=2048):
    """Boundary-integral route to (R_{-zeta} - R_{zeta})(z1, z2).

    i/(2 kappa zeta czz(zeta)) times the Poisson-kernel pairing
    (1/2pi) int e^{(rho+i zeta)A(z1)} e^{(rho-i zeta)A(z2)} dtheta.
    Node count doubles from 64 up to ``cap`` (default 2048, the budget the
    identity is certified under); the cap value is returned even if the
    doubling has not settled to ``tol`` by then, with an AccuracyWarning.
    """
    zeta = complex(zeta)
    z1, z2 = complex(z1), complex(z2)
    cf = for_space(H2)
    front = 1j / (2.0 * H2.kappa * zeta * cf.czz(zeta))

    def node_sum(thetas):
        return np.sum(np.exp((_RHO + 1j * zeta) * _bracket_grid(z1, thetas)
                             + (_RHO - 1j * zeta) * _bracket_grid(z2, thetas)))

    value, n, converged = _trapezoid_doubling(node_sum, tol, cap=cap)
    if not converged:
        warnings.warn(
            f"boundary quadrature not settled to {tol:g} at {n} nodes "
            f"(zeta={zeta})",
            AccuracyWarning,
        )
    return front * complex(value)


# -- residue rank ------------------------------------------------------------


def residue_rank(k, with_gap=False):
    """Numerical rank of the residue kernel at the H^2 resonance i(1/2 + k).

    At zeta = i(1/2+k) the Poisson kernel degenerates to e^{-k A(z, theta)},
    a trigonometric polynomial of degree k in theta; the sampled matrix
    M[j, l] = e^{-k A(z_j, theta_l)} has rank 2k+1.  Rank = number of
    singular values above _SVD_THRESHOLD * sigma_max; if the singular-value
    gap at the cut is below 10^2 the rank is declared indeterminate.  With
    ``with_gap=True`` returns (rank, gap) instead, gap = inf for a full-rank
    cut.  A nan or infinite k raises NonFiniteInputError, a k that is not an
    integer ValueError.  At the sampled radii r <= 0.6, |A| <= log 4: a k from
    512 on, where 4^k leaves the float range, raises OutOfRangeError.
    """
    k = _integer("k", k)
    if k < 0:
        raise ValueError("k must be a nonnegative integer")
    if k >= 512:  # 4^512 = 2^1024 passes the largest float
        raise OutOfRangeError(f"residue_rank({k}): entries reach 4^{k}, past the float range")
    n_points = max(4 * k + 4, 12)
    n_angles = max(4 * k + 4, 16)
    rng = np.random.default_rng(20260214 + k)
    radii = rng.uniform(0.15, 0.6, n_points)
    angs = rng.uniform(0.0, 2.0 * math.pi, n_points)
    zs = radii * np.exp(1j * angs)
    thetas = 2.0 * math.pi * np.arange(n_angles) / n_angles
    m = np.empty((n_points, n_angles))
    for j, z in enumerate(zs):
        m[j] = np.exp(-k * _bracket_grid(z, thetas))
    sv = np.linalg.svd(m, compute_uv=False)
    cut = _SVD_THRESHOLD * sv[0]
    rank = int(np.sum(sv > cut))
    gap = math.inf
    if rank < len(sv) and sv[rank] > 0.0:
        gap = sv[rank - 1] / sv[rank]
        if gap < 1e2:
            raise IndeterminateRankError(
                f"singular-value gap {gap:.1f} at the threshold cut", gap=gap
            )
    if with_gap:
        return rank, gap
    return rank


# -- H^3 closed forms --------------------------------------------------------

H3Oracle = namedtuple("H3Oracle", ["phi", "Q", "c"])


def oracle_h3(lam, t):
    """Closed-form H^3 fixtures: phi, Q, c at (lambda, t).

    phi = sinh(lambda t)/(lambda sinh t) with the entire continuation
    t/sinh t at lambda = 0; Q = y^(1+lambda)/(1-y^2); c = 1/lambda.  A nan
    or infinite lambda or t raises NonFiniteInputError.
    """
    lam = complex(lam)
    t = float(t)
    _require_finite(lam=lam, t=t)
    if t <= 0.0:
        raise ValueError("oracle needs t > 0")
    x = lam * t
    if abs(x) < 1e-4:
        # sinh(x)/x by series, accurate through the removable point
        ratio = 1.0 + x * x / 6.0 * (1.0 + x * x / 20.0)
    else:
        ratio = cmath.sinh(x) / x
    phi = ratio * t / math.sinh(t)
    y = math.exp(-t)
    q = cmath.exp(-(1.0 + lam) * t) / (1.0 - y * y)
    c = 1.0 / lam if lam != 0 else complex("inf")
    return H3Oracle(phi=phi, Q=q, c=c)
