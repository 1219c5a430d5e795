"""Resonances: poles of the meromorphically continued resolvent.

The continued resolvent zeta -> R_zeta has poles exactly at the zeros of
czz(zeta) = c(i zeta) c(-i zeta) with Im zeta > 0.  These zeros form the
arithmetic progression zeta = i (rho + j k), k = 0, 1, 2, ..., with step
j = 2 when m_2alpha != 0 and j = 1 when m_2alpha = 0 and m_alpha is odd;
for m_2alpha = 0 and m_alpha even there are no zeros and the resolvent
continues to an entire family.  All poles are simple, with rank-finite
residue operator whose radial kernel is

    Res R_zeta (t) = -1 / (2 kappa zeta c'(i zeta) c(-i zeta)) * phi_{i zeta}(t),

i.e. a scalar multiple of the spherical function at the resonant parameter.

Enumeration seeds the progression analytically and certifies the whole
ladder in one array pass, with no Newton step, against the scale
|czz(zeta + delta)| half a rung off the axis, delta = j/2: |czz| below 1e-12
scale and |czz'| delta above 1e-3 scale.  The second ratio is 1.7-2.5 at
every simple zero (a double zero gives 0), whereas czz' itself shrinks far up
the ladder.  The seeds are exact zeros of the implemented c-function, so a
certification failure is not a root-finding problem: it means the
c-function itself is broken, and is reported as EnumerationError.  The
pass reads czz's data off c's at i zeta and -i zeta, which also give the
residue scalars: c'(i zeta) is c's leading term at the simple zero.  Each
rung is certified once per CFunction: the ladder keeps the rungs certified
so far with c'(i zeta) and c(-i zeta), a request certifies only the rungs it
lacks, and scattering.classify_poles reads its resonance residues off the
same ladder.

An optional winding check counts zeros-minus-poles of czz over a thin
rectangle about the axis segment 0.11 < Im zeta < 3 rho + 6.13, a window
fixed per space whatever the requested count, and compares against the
lattice prediction, guarding against zeros the progression would miss
there.  Since a1 and a2 are real, czz(-conj zeta) =
conj czz(zeta), so the rectangle's left half turns as much as its right half:
the count is the turn along the right half alone, divided by pi, sampled at
one spacing on every side (about 830 points).  The count depends
on the c-function alone and is made once per CFunction; the prediction is
made on every call.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from . import model_h2
from .cfunction import _LATTICE_LIMIT, compose_czz, for_space
from .errors import EnumerationError, OutOfRangeError, as_complex
from .radial import eval_phi
from .resolvent import kernel
from .space import RankOneSpace

# bounds relative to the scale |czz| half a rung off the axis
_CERT_VALUE = 1e-12   # |czz| at a certified zero
_CERT_SLOPE = 1e-3    # |d czz / d zeta| * delta at a certified (simple) zero

# the residue routes' 64-point trapezoid rule on a circle: radius, e^{i theta_j}
_CIRCLE_RADIUS = 1e-2
_RING = np.exp(1j * (2.0 * np.pi * np.arange(64) / 64))
# the winding check's rectangle: half-width about the axis, samples per side
_WINDING_HALF_WIDTH = 0.25
_WINDING_SAMPLES = 800


@dataclass(frozen=True)
class ResonanceRecord:
    """One resolvent pole: location, progression index, residue data."""

    zeta: complex
    k: int
    residue_scalar: complex
    multiplicity_estimate: Optional[int] = None


def _certify(cf, zetas):
    """Certify the seed zeros ``zetas`` of czz in one array pass.  The seeds
    are exact zeros of the implemented c-function, where czz is 0; a pole
    counts as an infinite value.  Returns c's leading terms at lam = i zeta
    (c'(lam) at a simple zero) and at -lam, from which czz's are composed."""
    delta = (cf.resonance_step() or 1) / 2.0
    lam = 1j * zetas
    at_zero, across = cf.local_expansion(lam), cf.local_expansion(-lam)
    order, lead, nxt = compose_czz(at_zero, across)
    val = np.where(order > 0, 0j, np.where(order < 0, np.inf, lead))
    slope = np.where(order == 0, nxt, np.where(order == 1, lead, 0j))
    scale = np.abs(cf.czz(zetas + delta))
    failed = np.flatnonzero((np.abs(val) >= _CERT_VALUE * scale)
                            | (np.abs(slope) * delta <= _CERT_SLOPE * scale))
    if failed.size:
        i = failed[0]
        raise EnumerationError(
            f"zero certification failed at zeta = {complex(zetas[i])}: "
            f"|czz| = {abs(val[i]):.3e}, |czz'| = {abs(slope[i]):.3e}, "
            f"|czz(zeta + {delta:g})| = {scale[i]:.3e}; "
            "the c-function data is inconsistent"
        )
    return at_zero[1], across[1]


def _residue(space, zeta, dc, c_minus):
    """-1 / (2 kappa zeta c'(i zeta) c(-i zeta)), the residue scalar."""
    return -1.0 / (2.0 * space.kappa * zeta * dc * c_minus)


def _multiplicities(space, first, count):
    """Ranks of the residue operators at resonances first..count-1 of the
    hyperbolic plane (None elsewhere): the K-types n whose c-function on
    model_h2.ktype_space(n) vanishes at lambda = -(rho + k), counted with
    dimension 1 for n = 0 and 2 for +-n.  Those zeros sit at -(rho_n + j),
    j >= 0, so the count stops at the first rho_n above the top rung; a
    rung's rank does not depend on which other rungs are ranked with it.
    model_h2.residue_rank is the SVD route to the same rank."""
    if space != model_h2.H2:
        return [None] * (count - first)
    edges = space.rho + np.arange(first, count)  # the resonances are lambda = -edges
    ranks = np.zeros(len(edges), dtype=int)
    for n in itertools.count():
        shifted = model_h2.ktype_space(n)
        if not len(edges) or shifted.rho > edges[-1]:
            return ranks.tolist()
        ranks += (1 if n == 0 else 2) * (for_space(shifted).zero_order(-edges) > 0)


@lru_cache(maxsize=None)
def _ladder(cf):
    """The rungs of cf's progression certified so far, bottom up, as
    (record, c'(i zeta), c(-i zeta)); certified_rungs extends it."""
    return []


def certified_rungs(space, count):
    """The first ``count`` rungs of the resonance ladder of for_space(space),
    as (record, c'(i zeta), c(-i zeta)).

    Each rung is certified once per CFunction: a request certifies only the
    rungs the ladder lacks, in one _certify pass.  A rung's data is an
    elementwise function of that rung, so the rungs equal those of one pass
    over all ``count`` seeds, and a failed pass raises where that pass would
    (at the first failed rung) and leaves the ladder unchanged.  OutOfRangeError,
    before any seed is made, where rho + j (count - 1) reaches c's lattice
    limit 2^52 (j = 1 without rungs, for classify_poles' candidates -k/2).
    """
    if not isinstance(count, numbers.Integral) or count < 0:
        raise ValueError(f"count must be a non-negative integer, got {count!r}")
    cf = for_space(space)
    if not (cf.resonance_step() or 1) * (count - 1) < _LATTICE_LIMIT - space.rho:
        raise OutOfRangeError("the top rung of the requested resonance count reaches "
                              "|lambda| = 2^52, where c cannot tell its lattice apart")
    ladder = _ladder(cf)
    have = len(ladder)
    seeds = cf.czz_zeros_upper(count)[have:]
    if seeds:
        zetas = np.array(seeds, dtype=complex)
        dc, c_minus = _certify(cf, zetas)
        ladder += [
            (ResonanceRecord(zeta=zeta, k=k, residue_scalar=_residue(space, zeta, d, c),
                             multiplicity_estimate=mult), d, c)
            for k, zeta, d, c, mult in zip(
                itertools.count(have), zetas.tolist(), dc.tolist(), c_minus.tolist(),
                _multiplicities(space, have, count))
        ]
    return ladder[:count]


def enumerate_resonances(space, count, verify_complete=False):
    """First ``count`` resonances, bottom-up along the positive imaginary axis.

    Each record carries the certified pole location, its index k in the
    progression i(rho + j k), the residue scalar of the resolvent pole, and
    (on the hyperbolic plane) the residue rank counted over K-types; the
    records are read off the ladder of certified_rungs.  With
    ``verify_complete=True`` a winding count cross-checks that the
    progression misses no czz zero in the fixed window
    0.11 < Im zeta < 3 rho + 6.13, whatever ``count`` is: rungs above it
    rest on their certificates alone.
    """
    records = [rec for rec, _, _ in certified_rungs(space, count)]
    if verify_complete:
        _winding_check(space, for_space(space))
    return records


def residue_scalar(space, rec):
    """Scalar part of the residue of R_zeta at the resonance ``rec``, by the
    scalar route through c' and c."""
    cf = for_space(space)
    lam = 1j * rec.zeta                     # = -(rho + j k): c has a simple zero
    return _residue(space, rec.zeta, cf.derivative(lam), cf.value(-lam))


def residue_kernel(space, rec, t):
    """Radial section of the residue operator: residue_scalar * phi_{i zeta}(t)."""
    return rec.residue_scalar * eval_phi(space, 1j * rec.zeta, t)


def circle_nodes(z0):
    """Nodes of the trapezoid rule on the circle |z - z0| = _CIRCLE_RADIUS."""
    return z0 + _CIRCLE_RADIUS * _RING


def circle_moment(vals, k):
    """(1/2 pi i) contour-int f(z) (z - z0)^k dz from f at circle_nodes(z0),
    by the trapezoid rule, which is spectrally accurate on a circle."""
    return _CIRCLE_RADIUS ** (k + 1) * np.mean(vals * _RING ** (k + 1))


def residue_contour_probe(space, rec, t):
    """Contour-quadrature oracle for the residue scalar.

    Integrates kernel(zeta, t) / phi_{i zeta}(t) over a small circle around
    the resonance with circle_moment.  Since the kernel's polar part is
    residue_scalar * phi_{i zeta0}, the quotient has residue exactly
    residue_scalar, independent of t.

    Returns (residue_estimate, second_moment_rel):  the second Laurent
    moment (1/2 pi i) contour-int (zeta - zeta0) kernel dzeta, relative to
    the first, which vanishes for a simple pole and therefore measures both
    quadrature health and pole simplicity.
    """
    zs = circle_nodes(as_complex("zeta", rec.zeta))
    kern = np.array([kernel(space, z, t) for z in zs])
    sph = np.array([eval_phi(space, 1j * z, t) for z in zs])
    return (complex(circle_moment(kern / sph, 0)),
            abs(circle_moment(kern, 1)) / abs(circle_moment(kern, 0)))


# -- completeness guard ----------------------------------------------------

def _lattice_candidates(space, cf, lo, hi):
    """Points i*y, lo < y < hi, where czz can vanish or blow up.

    On the positive imaginary axis czz(iy) = c(-y) c(y) and c(y) is regular
    and nonzero for y > 0, so the candidates are the pole lattice of Gamma
    (y integer) and the zero lattices of the two reciprocal Gamma factors
    (y in 2 a_i + 2 N_0); the resonance progression is a subset of the
    latter.
    """
    ys = set()
    for m in range(1, int(math.floor(hi)) + 1):
        if lo < m < hi:
            ys.add(float(m))
    for a in (cf.a1, cf.a2):
        y = 2.0 * a
        while y < hi:
            if y > lo:
                ys.add(round(y, 9))
            y += 2.0
    return sorted(ys)


@lru_cache(maxsize=128)
def _turns(cf, lo, hi):
    """Argument-principle count of czz zeros minus poles over the rectangle
    [-w, w] x [lo, hi], w = _WINDING_HALF_WIDTH, in one numpy pass.

    a1 and a2 are real, so c(conj lam) = conj c(lam) and czz(-conj zeta) =
    conj czz(zeta): the left half of the rectangle turns exactly as much as
    the right half, and the count is the turn of czz along the half path
    i lo -> w + i lo -> w + i hi -> i hi, divided by pi.  Every side is
    sampled at the long side's spacing (hi - lo) / _WINDING_SAMPLES."""
    w = _WINDING_HALF_WIDTH
    n = math.ceil(w * _WINDING_SAMPLES / (hi - lo))
    path = np.concatenate([
        np.linspace(0.0, w, n, endpoint=False) + 1j * lo,
        w + 1j * np.linspace(lo, hi, _WINDING_SAMPLES, endpoint=False),
        np.linspace(w, 0.0, n + 1) + 1j * hi,
    ])
    vals = cf.czz(path)
    return float(np.sum(np.angle(vals[1:] / vals[:-1])) / np.pi)


def _winding_check(space, cf):
    """Argument-principle count of czz zeros minus poles over a rectangle
    [-w, w] x [lo, hi] enclosing the scanned axis segment, compared with the
    net order predicted by the local expansions on the lattice."""
    lo = 0.11
    hi = 3.0 * space.rho + 6.13
    turns = _turns(cf, lo, hi)
    ys = np.array(_lattice_candidates(space, cf, lo, hi), dtype=float)
    expected = int(np.sum(cf.zero_order(-ys)))
    if abs(turns - round(turns)) > 0.2 or round(turns) != expected:
        raise EnumerationError(
            f"winding count {turns:.3f} over Im in ({lo:.2f}, {hi:.2f}) "
            f"disagrees with the lattice prediction {expected}; czz has "
            "zeros or poles off the expected set"
        )
