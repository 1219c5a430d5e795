"""The scattering matrix on the spherical principal series.

The scattering matrix is fixed by the boundary-value exchange
S_zeta : bv_{rho - i zeta} u -> bv_{rho + i zeta} u on eigenfunctions, and
on the spherical function this reduces to the scalar

    s(zeta) = c(-i zeta) / c(i zeta),

the eigenvalue of S_zeta on constants.  It satisfies s(zeta) s(-zeta) = 1
and |s| = 1 on the real axis, and is meromorphic with at most simple poles
on the imaginary axis: in the upper half-plane the poles are precisely the
resonances, in the lower half-plane they sit among the candidate lattice
zeta = -i k/2 (poles of the standard intertwiner), and zeta = 0 is never a
pole (the c-function pole at 0 cancels it).

On the hyperbolic plane the operator is diagonal on circle Fourier modes
(K-types), each of which is one-dimensional here, so the full operator is
represented by its eigenvalue sequence.  The n-th K-type profile is
(2 sinh t)^|n| times a spherical function of model_h2.ktype_space(n) =
H^(2|n|+2) with the same boundary pair, so ktype_eigenvalue matches that
space's Jacobi series against its Frobenius Q rather than reading any
closed form.

Pole detection on the axis works with the reciprocal w(sigma) = 1/s(i sigma)
= c(-sigma)/c(sigma), which is real there; poles of s are zeros of w, which
are well conditioned for sign-change bracketing, whereas magnitude blowup of
s is not.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import model_h2
from .boundary import bv_limit
from .cfunction import for_space
from .errors import EnumerationError, NonFiniteInputError, PoleSignal, ResonantExponentError
from .radial import connection_coefficients, eval_phi
from .resonances import ResonanceRecord, circle_moment, circle_nodes, enumerate_resonances
from .space import RankOneSpace

KIND_RESONANCE = "resonance"
KIND_INTERTWINER = "intertwiner"

_LATTICE_TOL = 1e-6
_ORIGIN_TOL = 1e-13
_MAX_NODES = 10**6
_BRENT_XTOL = 1e-12
_BRENT_RTOL = 4 * sys.float_info.epsilon
_BRENT_MAXITER = 100


@dataclass(frozen=True)
class ScatteringPole:
    """A pole of the scattering matrix with its kind and scalar residue."""

    zeta: complex
    kind: str
    residue_scalar: complex

    def __post_init__(self):
        if self.kind not in (KIND_RESONANCE, KIND_INTERTWINER):
            raise ValueError(f"unknown pole kind {self.kind!r}")


def _dist_to_integers(w):
    w = complex(w)
    return math.hypot(w.real - round(w.real), w.imag)


def _resonance_residue(cf, lam):
    """Residue in zeta of s at a resonance, where c has a simple zero at
    lam = i zeta: -i c(-lam) / c'(lam)."""
    return -1j * cf.value(-lam) / cf.derivative(lam)


def scalar(space, zeta):
    """Eigenvalue c(-i zeta)/c(i zeta) of the scattering matrix on constants.

    Returns 0 where c(i zeta) has a pole, and raises PoleSignal (with the
    scalar residue in zeta attached) where the ratio itself has a pole:
    at resonances c(i zeta) = 0, and at intertwiner poles c(-i zeta) = inf.
    """
    zeta = complex(zeta)
    if abs(zeta) < _ORIGIN_TOL:
        raise ValueError("zeta = 0 is excluded: it is never a scattering pole")
    cf = for_space(space)
    lam = 1j * zeta
    try:
        den = cf.value(lam)
    except PoleSignal:
        return 0j
    if den == 0:
        raise PoleSignal(
            f"scattering pole (resonance) at zeta = {zeta}",
            at=zeta,
            order=1,
            residue=_resonance_residue(cf, lam),
        )
    try:
        num = cf.value(-lam)
    except PoleSignal as sig:
        raise PoleSignal(
            f"scattering pole (intertwiner) at zeta = {zeta}",
            at=zeta,
            order=1,
            residue=1j * sig.residue / den,
        ) from sig
    return num / den


def ktype_eigenvalue(zeta, n):
    """Eigenvalue of S_zeta on the n-th circle Fourier mode (hyperbolic plane).

    Solves the connection problem for the spherical function of
    model_h2.ktype_space(n) at lambda = i zeta and returns
    bv_{rho+i zeta} / bv_{rho-i zeta}, the ratio for the K-type profile too;
    it reproduces scalar(ktype_space(n), zeta) through an independent code
    path.
    """
    zeta = complex(zeta)
    if not cmath.isfinite(zeta):
        raise NonFiniteInputError(f"zeta = {zeta} is not finite")
    lam = 1j * zeta
    if _dist_to_integers(2 * lam) < _LATTICE_TOL:
        raise ResonantExponentError(
            f"2 i zeta = {2 * lam} is within {_LATTICE_TOL:g} of an integer: "
            "the boundary exponents collide and the connection problem "
            "degenerates"
        )
    a_minus, a_plus = connection_coefficients(model_h2.ktype_space(n), lam)
    return a_plus / a_minus


def classify_poles(space, count):
    """Scattering poles with kinds: resonances above, intertwiner poles below.

    The upper half-plane list is resonances.enumerate_resonances(space, count);
    the lower half-plane candidates zeta = -i k/2, k = 1..count, are flagged
    as intertwiner poles exactly when c has a pole at -k/2 (then c(-i zeta)
    blows up while c(i zeta) = c(k/2) stays finite and nonzero).  zeta = 0 is
    never included.
    """
    cf = for_space(space)
    zetas = [rec.zeta for rec in enumerate_resonances(space, count)]
    # c has simple zeros at lam = i zeta, so c'(lam) is the leading term
    # there; the quotients are formed as the scalar routes form them
    lam = 1j * np.array(zetas, dtype=complex)
    poles = [ScatteringPole(z, KIND_RESONANCE, -1j * num / dc) for z, num, dc in zip(
        zetas, cf.value(-lam).tolist(), cf.local_expansion(lam)[1].tolist())]
    ks = np.arange(1, count + 1)
    order, lead, _ = cf.local_expansion(-0.5 * ks)
    hit = order < 0
    poles += [ScatteringPole(-0.5j * k, KIND_INTERTWINER, 1j * res / den) for k, res, den in zip(
        ks[hit].tolist(), lead[hit].tolist(), cf.value(0.5 * ks[hit]).tolist())]
    return poles


@dataclass(frozen=True)
class ResidueRelationReport:
    """Two routes to the scattering residue at a resonance and their gap."""

    zeta: complex
    scattering_side: complex
    resolvent_side: complex
    relative_gap: float
    boundary_value: complex
    boundary_value_error: float


def residue_relation_check(rec: ResonanceRecord):
    """Check Res[s] = 2 i kappa zeta c(-i zeta) residue_scalar bv_{rho+i zeta} phi
    at a hyperbolic-plane resonance, all factors computed independently.

    The left side is a contour quadrature of the scalar scattering matrix
    around the pole, by resonances.circle_moment.  On the right, the boundary value of the spherical
    function is extracted by the Fatou-limit route (the connection solver is
    unavailable here: at a resonance 2 lambda is an integer and the exponents
    collide); phi_{i zeta} carries the growing exponent rho + i zeta, so the
    limit is taken at the reflected parameter.  Analytically the boundary
    value equals c(-i zeta), which makes both sides -i c(-i zeta)/c'(i zeta);
    neither side is computed from that closed form.
    """
    space = model_h2.H2
    cf = for_space(space)
    z0 = complex(rec.zeta)
    svals = np.array([scalar(space, z) for z in circle_nodes(z0)])
    scattering_side = complex(circle_moment(svals, 0))

    lam_limit = -1j * z0                     # = rho + j k, real and > rho
    samples = []
    for m in range(10):
        y = 0.25 * 0.5**m
        t = -math.log(y)
        samples.append((y, eval_phi(space, 1j * z0, t)))
    bv, bv_err = bv_limit(space, lam_limit, samples)
    resolvent_side = complex(
        2j * space.kappa * z0 * cf.value(-1j * z0) * rec.residue_scalar * bv
    )
    gap = abs(scattering_side - resolvent_side) / max(
        abs(scattering_side), abs(resolvent_side)
    )
    return ResidueRelationReport(
        zeta=z0,
        scattering_side=scattering_side,
        resolvent_side=resolvent_side,
        relative_gap=gap,
        boundary_value=bv,
        boundary_value_error=bv_err,
    )


def _brentq(f, xa, xb):
    """(x, converged): a zero of the real f between xa and xb, where f
    changes sign, by Brent's method (Brent, Algorithms for Minimization
    without Derivatives, 1973, ch. 4).

    A port of scipy's brentq.c, step for step, at xtol = 1e-12 and its
    rtol = 4 eps and maxiter = 100, so the zero is scipy.optimize.brentq's
    bit for bit.  converged is False, and x the last iterate, when 100
    iterations do not bring the bracket within xtol + rtol |x|.  ValueError
    where f has one sign at both ends or returns nan, as scipy raises it.
    """
    def value(x):
        fx = float(f(x))
        if math.isnan(fx):
            raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
        return fx

    xpre, xcur = float(xa), float(xb)
    fpre, fcur = value(xpre), value(xcur)
    if fpre == 0:
        return xpre, True
    if fcur == 0:
        return xcur, True
    if (fpre < 0) == (fcur < 0):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(_BRENT_MAXITER):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (_BRENT_XTOL + _BRENT_RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur, True
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            bound = 3 * abs(sbis) - delta
            if 2 * abs(stry) < (abs(spre) if abs(spre) < bound else bound):
                spre, scur = scur, stry  # a good short step
            else:
                spre = scur = sbis  # bisect
        else:
            spre = scur = sbis  # bisect
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = value(xcur)
    return xcur, False


def find_scalar_poles(space, im_lo=-4.95, im_hi=4.95, step=0.01):
    """Locate the poles of scalar() on the imaginary-axis segment by scanning
    w(sigma) = 1/s(i sigma) = c(-sigma)/c(sigma) for zeros.

    w is real on the segment.  Nodes where w vanishes identically (lattice
    hits) are recorded directly; sign changes between regular nodes are
    refined by Brent's method (_brentq) and accepted only if w is actually
    small there, which rejects the sign flips across poles of w (those are
    zeros of s).  Returns the pole locations i sigma sorted by imaginary
    part; sigma = 0 is skipped.  EnumerationError where a refinement does
    not converge.

    c's order and leading term are read once, by one array pass over the
    union of the nodes and their mirrors -sigma, so c(-sigma) is read at the
    mirrored node.  Only the Brent refinement uses the scalar w.
    """
    bounds = (im_lo, im_hi, step)
    if not all(math.isfinite(x) for x in bounds):
        raise NonFiniteInputError(f"axis scan bounds and step must be finite, got {bounds}")
    if step <= 0 or im_lo >= im_hi or (im_hi - im_lo) / step > _MAX_NODES:
        raise ValueError(f"axis scan needs step > 0, im_lo < im_hi and at most "
                         f"{_MAX_NODES} nodes, got (im_lo, im_hi, step) = {bounds}")
    cf = for_space(space)

    def w(sig):
        if abs(sig) < _ORIGIN_TOL:
            return math.nan
        try:
            den = cf.value(complex(sig))
        except PoleSignal:
            return 0.0
        try:
            num = cf.value(complex(-sig))
        except PoleSignal:
            return 1e18
        if den == 0:
            return 1e18
        return (num / den).real

    k_lo = math.ceil(im_lo / step - 1e-9)
    k_hi = math.floor(im_hi / step + 1e-9)
    ks = np.arange(k_lo, k_hi + 1)
    sigmas = ks * step
    # order and value of c on the union of the nodes and their mirrors
    union = np.union1d(ks, -ks)
    order, lead, _ = cf._expand((union * step).astype(complex), slope=False)
    cval = np.where(order > 0, 0j, lead)
    den, num = np.searchsorted(union, ks), np.searchsorted(union, -ks)

    # w as the scalar w forms it: 0 at a pole of c(sigma), 1e18 at a pole of
    # c(-sigma) or a zero of c(sigma), nan at sigma = 0
    vals = np.full(len(sigmas), 1e18)
    vals[order[den] < 0] = 0.0
    finite = (order[den] >= 0) & (order[num] >= 0) & (cval[den] != 0)
    vals[finite] = (cval[num][finite] / cval[den][finite]).real
    vals[np.abs(sigmas) < _ORIGIN_TOL] = math.nan

    poles = list(sigmas[vals == 0.0])
    # strict sign changes between finite nodes that are not poles of w
    a, b = vals[:-1], vals[1:]
    for i in np.flatnonzero((np.abs(a) < 1e18) & (np.abs(b) < 1e18) & (a * b < 0)):
        root, converged = _brentq(w, sigmas[i], sigmas[i + 1])
        if not converged:
            raise EnumerationError(f"Brent's method found no zero of 1/s(i sigma) between "
                                   f"sigma = {sigmas[i]} and {sigmas[i + 1]}")
        if abs(w(root)) < 1e-6:
            poles.append(root)
    return sorted((1j * s for s in poles), key=lambda z: z.imag)
