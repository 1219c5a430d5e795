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
analytic integrands) with node doubling until the value settles, reusing
previous levels.  The Poisson peak has angular width ~ (1-|z|): on the base
ray the nodes are graded towards it by a disk automorphism, so a deep Fatou
limit needs about 1/sqrt(1-|z|) nodes, not 1/(1-|z|).  The K-types
e^{in theta} of one (lambda, t) share one quadrature: the kernel is even in
theta there, so it and its t-derivative are sampled once per node set at
the nodes in [0, pi] only, modes n and -n read one sum against
cos(|n| theta) (one cosine per degree, no nodes-by-K-types array), and the
doubling stops when all of them have settled.

H^3 closed forms (phi, Q, c) live here too, as the oracle fixtures used all
over the test suite.

Everything assumes the H^2 normalization kappa = 1; the module-level H2
constant is the space every function refers to.
"""

from __future__ import annotations

import cmath
import math
import sys
import warnings
from collections import namedtuple

import numpy as np
from numpy.random import default_rng  # at import: np.random loads on first use

from .cfunction import for_space
from .errors import (AccuracyWarning, IndeterminateRankError, OutOfRangeError, QuadratureError,
                     as_complex, as_float, as_int)
from .radial import RadialSolution, _checked, _phi_series, continuation
from .space import RankOneSpace

H2 = RankOneSpace(1, 0)
_RHO = H2.rho  # 1/2

_MAX_NODES = 1 << 17
_POISSON_TOL = 1e-10  # where the Poisson quadratures' doubling settles
_SVD_THRESHOLD = 1e-8  # residue_rank: singular values below this share of the largest are 0


def distance(z1, z2):
    """Geodesic distance between two points of the open disk."""
    z1, z2 = as_complex("z1", z1), as_complex("z2", z2)
    for z in (z1, z2):
        if abs(z) >= 1.0:
            raise ValueError(f"|z| = {abs(z)} not inside the disk")
    num = 2.0 * abs(z1 - z2) ** 2
    den = (1.0 - abs(z1) ** 2) * (1.0 - abs(z2) ** 2)
    return math.acosh(1.0 + num / den)


def r_of_t(t):
    """Euclidean radius of the point at geodesic distance t from 0."""
    return math.tanh(0.5 * as_float("t", t))


def horocycle_bracket(z, theta):
    """A(z, theta) = log((1-|z|^2)/|z - e^{i theta}|^2)."""
    z, theta = as_complex("z", z), as_float("theta", theta)
    if abs(z) >= 1.0:
        raise ValueError("bracket defined for |z| < 1")
    d2 = abs(z - cmath.exp(1j * theta)) ** 2
    if d2 == 0.0:
        raise OutOfRangeError("z on the boundary at the bracket's singular angle")
    return math.log1p(-abs(z) ** 2) - math.log(d2)


def _bracket_grid(z, thetas):
    if not abs(z) < 1.0:
        raise ValueError(f"|z| = {abs(z)} not inside the disk")
    d2 = np.abs(z - np.exp(1j * thetas)) ** 2
    return math.log1p(-abs(z) ** 2) - np.log(d2)


def _ray_kernel(ray, s, h):
    """(e^{s A(r, theta)}, its t-derivative) at the real point z = r(t), from
    ray = (r, 1 - r, 1 + r) and h = sin^2(theta/2).

    |r - e^{i theta}|^2 = (1 - r)^2 + 4 r h, a sum of positive terms that
    keeps its digits near theta = 0, and
    dA/dt = -r - (1 - r^2)(2h - (1 - r)) / |r - e^{i theta}|^2.  A real s
    takes a real power.
    """
    r, minus, plus = ray
    d2 = minus ** 2 + 4.0 * r * h
    q = minus * plus
    kern = (q / d2) ** s.real if s.imag == 0.0 else np.exp(s * np.log(q / d2))
    return kern, s * (-r - q * (2.0 * h - minus) / d2) * kern


def _trapezoid_doubling(node_sum, tol, cap=_MAX_NODES, first=64):
    """Mean of a periodic integrand over doubling grids until stable.

    The grids are uniform on [0, 2pi).  ``node_sum(thetas)`` returns the
    integrand summed over the nodes (an array for integrands converged
    together, every entry to ``tol``); a caller that grades its nodes reads
    the grid as the variable of its map and folds dtheta/dphi into the
    integrand.  Previous levels are reused (the 2N-grid mean is the average
    of the N-grid mean and the midpoint mean), from ``first`` nodes on.
    Returns (value, nodes_used, converged).
    """
    n = first
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
    lam, z = as_complex("lambda", lam), as_complex("z", z)

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

    The kernel peaks at theta = 0 with width about q = 1 - r, so the
    trapezoid nodes are uniform in phi and graded in theta by the disk
    automorphism tan(theta/2) = k tan(phi/2), which keeps the rule's
    geometric convergence (Trefethen and Weideman, SIAM Review 56, 2014):
    k = (1 - beta)/(1 + beta) with beta = max(0, 1 - sqrt(q (1 + max|n|))),
    about sqrt(q)/2 deep on the ray, so the node count grows like 1/sqrt(q)
    where uniform nodes grow like 1/q; high K-types, which oscillate on the
    whole circle, turn the map off (k = 1).  The integrand in phi is the
    kernel at theta(phi) times dtheta/dphi = k / (cos^2(phi/2) +
    k^2 sin^2(phi/2)), and _ray_kernel reads sin^2(theta/2) =
    k^2 sin^2(phi/2) / (cos^2(phi/2) + k^2 sin^2(phi/2)), which keeps its
    digits near theta = 0.  theta(-phi) = -theta(phi) and theta(pi) = pi,
    so the mapped integrand is even: only the nodes in [0, pi] are sampled
    (0 and pi once, the others twice), and n and -n share one sum against
    cos(|n| theta).  N nodes read mode n with the modes n +- N k at phi = pi,
    where dtheta/dphi = 1/k is largest, so the first grid has at least
    4 max|n| / k nodes.

    A non-integral n raises ValueError, as does a t whose |r(t)| rounds to
    1; a nan or infinite lambda or t NonFiniteInputError, a huge int lambda
    or t or an |n| whose first grid leaves no doubling below 2^17 nodes
    OutOfRangeError, and a doubling that has not settled at 2^17 nodes
    QuadratureError.
    """
    lam, t = as_complex("lambda", lam), as_float("t", t)
    many = np.ndim(n) > 0
    ns = list(n) if many else [n]
    if not ns:
        raise ValueError("need at least one K-type index n")
    ns = [as_int("K-type index n", j) for j in ns]  # refuses 1.5, nan, inf
    top = max(map(abs, ns))
    r = r_of_t(t)
    if not abs(r) < 1.0:
        raise ValueError(f"|z| = {abs(r)} not inside the disk")
    # 1 - r and 1 + r from t itself: 1 - r of the float r keeps only the
    # digits of r past its leading ones (1e-13 off at t = 9)
    ray = (r, 2.0 / (1.0 + math.exp(t)), 2.0 / (1.0 + math.exp(-t)))
    first = _MAX_NODES  # k <= 1, so 4 |n| nodes are the least: a huge n meets no float
    if 4 * top <= _MAX_NODES // 2:
        beta = max(0.0, 1.0 - math.sqrt(ray[1] * (1 + top)))
        k = (1.0 - beta) / (1.0 + beta)
        first = max(64, 1 << (math.ceil(4 * top / k) - 1).bit_length())  # a power of two
    if first > _MAX_NODES // 2:
        raise OutOfRangeError(f"K-type index |n| = {top} needs more than {_MAX_NODES} "
                              f"trapezoid nodes at t = {t}")
    s = _RHO + lam
    degrees = {abs(j) for j in ns}

    def node_sum(phis):
        half = phis[:np.searchsorted(phis, math.pi, side="right")]
        ks, c = k * np.sin(0.5 * half), np.cos(0.5 * half)
        den = c * c + ks * ks
        kern, dkern = _ray_kernel(ray, s, ks * ks / den)
        both = (2.0 * k / den) * np.stack([kern, dkern])
        # phi = 0 and pi are their own mirror images, counted once; a base
        # grid of a power of two nodes holds both exactly
        if half[0] == 0.0:
            both[:, 0] *= 0.5
        if half[-1] == math.pi:
            both[:, -1] *= 0.5
        thetas = 2.0 * np.arctan2(ks, c)
        # one cosine per degree: a (nodes x K-types) array would cost memory
        sums = {m: both @ np.cos(m * thetas) if m else both.sum(axis=1) for m in degrees}
        return np.array([sums[abs(j)] for j in ns])

    value, nn, ok = _trapezoid_doubling(node_sum, _POISSON_TOL, first=first)
    if not ok:
        raise QuadratureError(f"Poisson pair quadrature not converged at {nn} nodes")
    pairs = [(complex(u), complex(du)) for u, du in value]
    return pairs if many else pairs[0]


def hyperbolic_laplacian_stencil(func, z):
    """Five-point hyperbolic Laplacian -((1-|z|^2)^2/4) * euclidean Laplacian,
    for z inside the disk (ValueError else)."""
    z = as_complex("z", z)
    size = math.hypot(z.real, z.imag)
    if not size < 1.0:
        raise ValueError(f"|z| = {size} not inside the disk")
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


def ktype_space(n):
    """S_|n| = RankOneSpace(1 + 2|n|, 0): the n-th K-type profile of H^2 is
    ktype_prefactor(n, t) times a radial solution on this space."""
    return RankOneSpace(1 + 2 * abs(as_int("K-type index n", n)), 0)


def ktype_prefactor(n, t):
    """(p, dp/dt) of p(t) = (2 sinh t)^|n|; NonFiniteInputError for a nan or
    infinite t, OutOfRangeError where p or dp/dt passes the float range."""
    m, t = abs(as_int("K-type index n", n)), as_float("t", t)
    if m == 0:
        return 1.0, 0.0
    try:
        base = 2.0 * math.sinh(t)
        p, dp = base**m, 2.0 * m * math.cosh(t) * base ** (m - 1)
        if math.isfinite(dp):
            return p, dp
    except OverflowError:
        pass
    raise OutOfRangeError(f"(2 sinh t)^{m} leaves the floating-point range at t = {t}")


def _normal(*xs):
    """Whether every |x| (by hypot, as abs() may overflow) is normal: a product keeps its digits."""
    return all(sys.float_info.min <= math.hypot(x.real, x.imag) < math.inf for x in xs)


def ktype_solution(lam, n, t_max=1.35):
    """The radial factor of P_lambda e^{in theta} as a RadialSolution.

    f = (lambda+1/2)_m / (4^m m!) * (2 sinh t)^m * phi^S_lambda(t) with
    m = |n| and S = ktype_space(n), read from the cached spherical function
    of S.  The factor is the t^m coefficient of the Poisson transform of the
    unit K-type; it equals c(lambda) / c_S(lambda) and is entire in lambda,
    so the boundary pair of f has a_minus = c(lambda) with no solve.  The
    solution reports H2 as its space, so its ``residual`` measures the
    spherical equation of H2, which f solves only for n = 0.

    (2 sinh t)^m grows like e^(m t), phi^S decays like
    e^((|Re lambda| - m - 1/2) t) and the factor falls like 4^-m; at
    lambda + 1/2 = -j, j < m, the factor and f are 0.  Else OutOfRangeError
    where f or a float factor of it is past or below the normal floats,
    where the product would have lost its digits: the build refuses the
    factor there (m >= 512 at lambda = 0.7), and (2 sinh t)^m is checked
    before phi^S, whose bridge on a large S is long, is read.  Past phi^S's
    entry's end (T_PHI, off the lattice) f is the factor times c_S(lambda)
    (2 sinh t)^m Q^S_-lambda + c_S(-lambda) (2 sinh t)^m Q^S_lambda, the
    entry's c Q sum, which refuses it where the terms cancel past 1e-8
    (|n| = 128 at t = 3; its error is about 3e-15 times their ratio).
    """
    lam, m = as_complex("lambda", lam), abs(as_int("K-type index n", n))
    shift = lam + 0.5
    if not shift.imag and shift.real.is_integer() and -m < shift.real <= 0.0:
        front = 0j  # a factor lambda + 1/2 + j is 0
    else:
        # a running product (4^m m! passes the float range from m = 134 on);
        # its factors pass 1 in modulus only before they fall below it for good
        front = 1.0 + 0j
        for j in range(m):
            front *= (shift + j) / (4 * (j + 1))
            if not _normal(front):
                raise OutOfRangeError(f"(lambda+1/2)_m / (4^m m!) leaves the floating-point "
                                      f"range at factor {j + 1}")
    phi = continuation(ktype_space(m), lam, _phi_series)

    def pair(t):
        if front == 0:
            return 0j, 0j
        if t > phi.end:
            u, du = _checked(lambda x: phi.beyond.pair(x, m), lam, t)
            if _normal(front * u):
                return front * u, front * du
        else:
            p, dp = ktype_prefactor(m, t)
            if _normal(p, front * p):
                u, du = phi.pair(t)
                if u == 0 or _normal(u, front * p * u):
                    return front * p * u, front * (dp * u + p * du)
        raise OutOfRangeError(f"the K-type profile or a factor of it leaves the "
                              f"floating-point range at t = {t}")

    return RadialSolution(H2, lam, 0.0, max(as_float("t", t_max), 1.35), pair)


def ktype_radial_profile(lam, n, t):
    """f_{lambda,n}(t) with P_lambda(e^{in theta}) = f_{lambda,n}(t) e^{in b};
    NonFiniteInputError for a nan or infinite t, else refused as
    ktype_solution refuses it."""
    t = as_float("t", t)
    if t <= 0.0:
        raise ValueError("profile evaluated at t > 0 (it vanishes like t^|n| at 0)")
    return ktype_solution(lam, n, t_max=t).at(t)[0]


# -- two-variable resolvent identity ----------------------------------------


def resolvent_difference_quadrature(zeta, z1, z2, tol=1e-10, cap=2048):
    """Boundary-integral route to (R_{-zeta} - R_{zeta})(z1, z2).

    i/(2 kappa zeta czz(zeta)) times the Poisson-kernel pairing
    (1/2pi) int e^{(rho+i zeta)A(z1)} e^{(rho-i zeta)A(z2)} dtheta.
    Node count doubles from 64 up to ``cap`` (default 2048, the budget the
    identity is certified under); the cap value is returned even if the
    doubling has not settled to ``tol`` by then, with an AccuracyWarning.
    """
    zeta, z1, z2 = as_complex("zeta", zeta), as_complex("z1", z1), as_complex("z2", z2)
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
    k = as_int("k", k)
    if k < 0:
        raise ValueError("k must be a nonnegative integer")
    if k >= 512:  # 4^512 = 2^1024 passes the largest float
        raise OutOfRangeError(f"residue_rank({k}): entries reach 4^{k}, past the float range")
    n_points = max(4 * k + 4, 12)
    n_angles = max(4 * k + 4, 16)
    rng = default_rng(20260214 + k)
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
    or infinite lambda or t raises NonFiniteInputError, and a phi or Q
    whose closed form leaves the float range OutOfRangeError.
    """
    lam, t = as_complex("lambda", lam), as_float("t", t)
    if t <= 0.0:
        raise ValueError("oracle needs t > 0")
    x = lam * t
    try:
        if abs(x) < 1e-4:
            # sinh(x)/x by series, accurate through the removable point
            ratio = 1.0 + x * x / 6.0 * (1.0 + x * x / 20.0)
        else:
            ratio = cmath.sinh(x) / x
        phi = ratio * t / math.sinh(t)
        y = math.exp(-t)
        q = cmath.exp(-(1.0 + lam) * t) / (1.0 - y * y)
    except OverflowError:
        raise OutOfRangeError(f"the H^3 closed forms at lambda = {lam}, t = {t} leave "
                              "the floating-point range") from None
    c = 1.0 / lam if lam != 0 else complex("inf")
    return H3Oracle(phi=phi, Q=q, c=c)
