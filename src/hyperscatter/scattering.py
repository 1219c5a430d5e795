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
H^(2|n|+2) with the same boundary pair, so ktype_eigenvalue pairs that
space's Jacobi series with its Frobenius Q (Abel's identity) rather than
reading any closed form.

Pole detection on the axis works with the reciprocal w(sigma) = 1/s(i sigma)
= c(-sigma)/c(sigma), which is real there; poles of s are zeros of w, which
are well conditioned for sign-change bracketing, whereas magnitude blowup of
s is not.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import model_h2
from .cfunction import for_space
from .errors import NonFiniteInputError, PoleSignal
from .radial import connection_coefficients, phi_pairings
from .resonances import ResonanceRecord, certified_rungs, circle_moment, circle_nodes
from .space import RankOneSpace

KIND_RESONANCE = "resonance"
KIND_INTERTWINER = "intertwiner"

_ORIGIN_TOL = 1e-13
_MAX_NODES = 10**6
_PARTS = 16  # parts a bracket of a zero of w is cut into, per round


@dataclass(frozen=True)
class ScatteringPole:
    """A pole of the scattering matrix with its kind and scalar residue."""

    zeta: complex
    kind: str
    residue_scalar: complex

    def __post_init__(self):
        if self.kind not in (KIND_RESONANCE, KIND_INTERTWINER):
            raise ValueError(f"unknown pole kind {self.kind!r}")


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

    Reads the pair (c(lambda), c(-lambda)) of the spherical function of
    model_h2.ktype_space(n) at lambda = i zeta by connection_coefficients,
    and returns bv_{rho+i zeta} / bv_{rho-i zeta}, the ratio for the K-type
    profile too: scalar(ktype_space(n), zeta) by an independent code path.
    It refuses where connection_coefficients does: 2 i zeta near a nonzero
    integer, and zeta = 0.
    """
    zeta = complex(zeta)
    if not cmath.isfinite(zeta):
        raise NonFiniteInputError(f"zeta = {zeta} is not finite")
    a_minus, a_plus = connection_coefficients(model_h2.ktype_space(n), 1j * zeta)
    return a_plus / a_minus


def classify_poles(space, count):
    """Scattering poles with kinds: resonances above, intertwiner poles below.

    The upper half-plane list is the resonance ladder of
    resonances.certified_rungs(space, count), whose c'(i zeta) and c(-i zeta)
    give the residues; the lower half-plane candidates zeta = -i k/2,
    k = 1..count, are flagged as intertwiner poles exactly when c has a pole
    at -k/2 (then c(-i zeta) blows up while c(i zeta) = c(k/2) stays finite
    and nonzero).  zeta = 0 is never included.
    """
    # the quotients are formed as the scalar routes form them
    poles = [ScatteringPole(rec.zeta, KIND_RESONANCE, -1j * c_minus / dc)
             for rec, dc, c_minus in certified_rungs(space, count)]
    # c's order and leading term at -k/2 and k/2 (where c is regular and
    # nonzero, so the leading term is the value), in one pass with no slope
    ks = np.arange(1, count + 1)
    order, lead, _ = for_space(space)._expand(np.concatenate([-0.5 * ks, 0.5 * ks]),
                                              slope=False)
    hit = order[:count] < 0
    poles += [ScatteringPole(-0.5j * k, KIND_INTERTWINER, 1j * res / den) for k, res, den in zip(
        ks[hit].tolist(), lead[:count][hit].tolist(), lead[count:][hit].tolist())]
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
    around the pole, by resonances.circle_moment.  On the right, the boundary
    value is c(L), L = -i zeta, read as J W(phi_{i zeta}, Q_L) / (-2 L) at
    log 2 from the two series (radial.phi_pairings), which needs Q_L
    alone.
    Both sides are then -i c(-i zeta)/c'(i zeta); neither is computed from
    that closed form.  boundary_value_error is the pairing's condition
    times 1e-16, the relative rounding it allows in c(L).
    """
    space = model_h2.H2
    cf = for_space(space)
    z0 = complex(rec.zeta)
    svals = np.array([scalar(space, z) for z in circle_nodes(z0)])
    scattering_side = complex(circle_moment(svals, 0))

    lam = 1j * z0  # -L
    (w, condition), = phi_pairings(space, lam, (-lam,))
    bv = w / (2.0 * lam)  # c(L) = J W(phi, Q_L) / (-2 L)
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
        boundary_value_error=condition * 1e-16,
    )


def _axis_w(cf, sigmas):
    """w(sigma) = c(-sigma)/c(sigma) over the real array sigmas: 0 at a pole of
    c(sigma), nan at a pole of w (a pole of c(-sigma) or a zero of c(sigma))
    and at sigma = 0.  c's order and leading term are read once, by one array
    pass over the union of sigmas and their mirrors -sigma (sorted, adjacent
    duplicates dropped: np.union1d would load numpy.ma on its first call)."""
    union = np.sort(np.concatenate((sigmas, -sigmas)))
    union = union[np.concatenate(([True], union[1:] != union[:-1]))]
    order, lead, _ = cf._expand(union.astype(complex), slope=False)
    cval = np.where(order > 0, 0j, lead)
    den, num = np.searchsorted(union, sigmas), np.searchsorted(union, -sigmas)
    vals = np.full(len(sigmas), math.nan)
    vals[order[den] < 0] = 0.0
    finite = (order[den] >= 0) & (order[num] >= 0) & (cval[den] != 0)
    vals[finite] = (cval[num][finite] / cval[den][finite]).real
    vals[np.abs(sigmas) < _ORIGIN_TOL] = math.nan
    return vals


def _narrow(cf, lo, hi):
    """A zero of w between lo and hi, where w changes strict sign, or None
    where it changes sign across a pole of w (a zero of s).

    Each round cuts the bracket into _PARTS parts with one _axis_w pass and
    keeps the first part where w is 0 or changes sign.  Once the bracket
    stops shrinking, its midpoint is the zero if |w| < 1e-6 there.
    """
    while True:
        nodes = np.linspace(lo, hi, _PARTS + 1)
        vals = _axis_w(cf, nodes)
        keep = np.flatnonzero(vals[:-1] * vals[1:] <= 0)
        if not keep.size or nodes[keep[0] + 1] - nodes[keep[0]] >= hi - lo:
            mid = 0.5 * (lo + hi)
            return mid if abs(_axis_w(cf, np.array([mid]))[0]) < 1e-6 else None
        lo, hi = nodes[keep[0]], nodes[keep[0] + 1]


def find_scalar_poles(space, im_lo=-4.95, im_hi=4.95, step=0.01):
    """Locate the poles of scalar() on the imaginary-axis segment by scanning
    w(sigma) = 1/s(i sigma) = c(-sigma)/c(sigma), which is real there, for
    zeros on the nodes k * step.

    Nodes where w is exactly 0 (lattice hits) are zeros; each strict sign
    change of w between nodes is narrowed by _narrow, which rejects the sign
    flips across poles of w.  Every value of w is read by _axis_w.  Returns
    the pole locations i sigma sorted by imaginary part; sigma = 0 is
    skipped.
    """
    bounds = (im_lo, im_hi, step)
    if not all(math.isfinite(x) for x in bounds):
        raise NonFiniteInputError(f"axis scan bounds and step must be finite, got {bounds}")
    if step <= 0 or im_lo >= im_hi or (im_hi - im_lo) / step > _MAX_NODES:
        raise ValueError(f"axis scan needs step > 0, im_lo < im_hi and at most "
                         f"{_MAX_NODES} nodes, got (im_lo, im_hi, step) = {bounds}")
    cf = for_space(space)
    k_lo = math.ceil(im_lo / step - 1e-9)
    k_hi = math.floor(im_hi / step + 1e-9)
    sigmas = np.arange(k_lo, k_hi + 1) * step
    vals = _axis_w(cf, sigmas)
    roots = [_narrow(cf, sigmas[i], sigmas[i + 1])
             for i in np.flatnonzero(vals[:-1] * vals[1:] < 0)]
    poles = list(sigmas[vals == 0.0]) + [r for r in roots if r is not None]
    return sorted((1j * s for s in poles), key=lambda z: z.imag)
