"""Independent mpmath oracles for the benchmark's correctness checks.

Nothing here imports hyperscatter: a space enters only as its root
multiplicities ``(m_alpha, m_2alpha, kappa)``.

* phi_lambda(t) is the Jacobi function of Koornwinder (1984),
  2F1((rho+lambda)/2, (rho-lambda)/2; (m_alpha+m_2alpha+1)/2; -sinh^2 t).
* Q_lambda(t) is the second-kind Jacobi function,
  (2 cosh t)^-(rho+lambda) 2F1((rho+lambda)/2, (m_alpha/2+1+lambda)/2;
  1+lambda; cosh^-2 t).
* c(lambda) is the Gamma quotient c0 Gamma(lambda) 2^-lambda /
  (Gamma(a1 + lambda/2) Gamma(a2 + lambda/2)) with c(rho) = 1.
* Zero and pole orders of c on the real lattice come from exact rational
  arithmetic, so the scattering pole sets are known without any numerics.
"""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath as mp
import numpy as np

DPS = 30
# offset used to read derivatives at zeros and residues at poles of c
_EPS = mp.mpf("1e-20")


class Space:
    """Root data of a rank-one space, as the oracles need it."""

    def __init__(self, m_alpha, m_2alpha=0, kappa=1.0):
        self.m_alpha = int(m_alpha)
        self.m_2alpha = int(m_2alpha)
        self.kappa = float(kappa)
        self.rho = Fraction(self.m_alpha + 2 * self.m_2alpha, 2)
        # denominator Gamma arguments are a1 + lambda/2 and a2 + lambda/2
        self.a1 = Fraction(self.m_alpha + 2, 4)
        self.a2 = Fraction(self.m_alpha + 2 * self.m_2alpha, 4)


def _mpc(z):
    z = complex(z)
    return mp.mpc(z.real, z.imag)


def _q(x):
    return mp.mpf(x.numerator) / x.denominator


def _c_raw(sp, lam):
    return (mp.gamma(lam) * mp.power(2, -lam)
            * mp.rgamma(_q(sp.a1) + lam / 2) * mp.rgamma(_q(sp.a2) + lam / 2))


def _c(sp, lam):
    rho = _q(sp.rho)
    return _c_raw(sp, lam) / _c_raw(sp, rho)


def c_value(sp, lam):
    """c(lambda) at a point where c is regular."""
    with mp.workdps(DPS):
        return complex(_c(sp, _mpc(lam)))


def c_lead(sp, lam0):
    """Leading Laurent coefficient of c at a lattice point lam0 (a Fraction):
    c(lam0 + e) = e^order (lead + O(e)), order from ``c_order``."""
    order = c_order(sp, lam0)
    with mp.workdps(2 * DPS):
        val = _c(sp, _q(Fraction(lam0)) + _EPS)
        return complex(val / _EPS**order)


def c_order(sp, lam):
    """Exact order of c at a rational point: >0 zero, <0 pole, 0 regular."""
    lam = Fraction(lam)
    order = 0
    if lam <= 0 and lam.denominator == 1:
        order -= 1
    for a in (sp.a1, sp.a2):
        z = a + lam / 2
        if z <= 0 and z.denominator == 1:
            order += 1
    return order


def phi(sp, lam, t):
    """Spherical function phi_lambda(t) by the Jacobi-function form."""
    with mp.workdps(DPS):
        lam = _mpc(lam)
        rho = _q(sp.rho)
        t = mp.mpf(t)
        return complex(mp.hyp2f1((rho + lam) / 2, (rho - lam) / 2,
                                 mp.mpf(sp.m_alpha + sp.m_2alpha + 1) / 2,
                                 -mp.sinh(t) ** 2))


def q(sp, lam, t):
    """Outgoing solution Q_lambda(t) by the second-kind Jacobi function."""
    with mp.workdps(DPS):
        lam = _mpc(lam)
        rho = _q(sp.rho)
        t = mp.mpf(t)
        head = mp.power(2 * mp.cosh(t), -(rho + lam))
        return complex(head * mp.hyp2f1((rho + lam) / 2,
                                        (mp.mpf(sp.m_alpha) / 2 + 1 + lam) / 2,
                                        1 + lam, 1 / mp.cosh(t) ** 2))


def kernel(sp, zeta, t):
    """Continued resolvent kernel Q_{i zeta}(t) / (2 i kappa zeta c(i zeta))."""
    zeta = complex(zeta)
    lam = 1j * zeta
    return q(sp, lam, t) / (2j * sp.kappa * zeta * c_value(sp, lam))


def density_J(sp, s):
    return ((2.0 * math.sinh(s)) ** sp.m_alpha
            * (2.0 * math.sinh(2.0 * s)) ** sp.m_2alpha)


def apply_radial_grid(sp, zeta, f, support, ts, nodes=24):
    """R_zeta f on an ascending grid by the Green representation, with
    Gauss-Legendre quadrature of the oracle phi and Q on each segment
    between the support ends and the clipped grid points."""
    zeta = complex(zeta)
    lam = 1j * zeta
    ta, tb = float(support[0]), float(support[1])
    clips = [min(max(t, ta), tb) for t in ts]
    cuts = sorted({ta, tb, *clips})
    xs, ws = _gauss_legendre(nodes)
    inner = {ta: 0j}   # int_ta^c phi f J
    outer = {tb: 0j}   # int_c^tb Q f J
    seg_phi, seg_q = [], []
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        half, mid = 0.5 * (hi - lo), 0.5 * (hi + lo)
        sp_acc, sq_acc = 0j, 0j
        for x, w in zip(xs, ws):
            s = mid + half * x
            weight = w * half * f(s) * density_J(sp, s)
            sp_acc += weight * phi(sp, lam, s)
            sq_acc += weight * q(sp, lam, s)
        seg_phi.append(sp_acc)
        seg_q.append(sq_acc)
    acc = 0j
    for hi, val in zip(cuts[1:], seg_phi):
        acc += val
        inner[hi] = acc
    acc = 0j
    for lo, val in zip(reversed(cuts[:-1]), reversed(seg_q)):
        acc += val
        outer[lo] = acc
    norm = 1.0 / (2j * sp.kappa * zeta * c_value(sp, lam))
    return [norm * (q(sp, lam, t) * inner[c] + phi(sp, lam, t) * outer[c])
            for t, c in zip(ts, clips)]


def _gauss_legendre(n):
    xs, ws = np.polynomial.legendre.leggauss(n)
    return [float(x) for x in xs], [float(w) for w in ws]


# -- scattering data ------------------------------------------------------------


def resonance_zetas(sp, count):
    """czz zeros i(rho + j k), k < count, on the positive imaginary axis."""
    if sp.m_2alpha != 0:
        step = 2
    elif sp.m_alpha % 2 == 1:
        step = 1
    else:
        return []
    return [sp.rho + step * k for k in range(count)]  # Im zeta, exact


def residue_scalar(sp, im_zeta):
    """-1 / (2 kappa zeta c'(i zeta) c(-i zeta)) at the resonance i*im_zeta."""
    lam0 = -Fraction(im_zeta)
    dc = c_lead(sp, lam0)  # c has a simple zero at lam0: lead = c'(lam0)
    zeta = 1j * float(im_zeta)
    return -1.0 / (2.0 * sp.kappa * zeta * dc * c_value(sp, -float(lam0)))


def scalar(sp, zeta):
    """Scattering coefficient c(-i zeta) / c(i zeta) off the lattice."""
    zeta = complex(zeta)
    with mp.workdps(DPS):
        z = _mpc(zeta)
        return complex(_c(sp, -1j * z) / _c(sp, 1j * z))


def plancherel(sp, zeta):
    """Plancherel density 1 / |c(i zeta)|^2 at real zeta > 0."""
    return 1.0 / abs(c_value(sp, 1j * float(zeta))) ** 2


def scalar_pole_sigmas(sp, lo=-4.95, hi=4.95):
    """sigma with a pole of s at i sigma, lo <= sigma <= hi, sigma != 0.

    s(i sigma) = c(sigma) / c(-sigma), whose poles all sit on the
    half-integer lattice, so the exact orders decide."""
    out = []
    k = math.ceil(2 * lo)
    while Fraction(k, 2) <= hi:
        sig = Fraction(k, 2)
        if sig != 0 and c_order(sp, sig) - c_order(sp, -sig) < 0:
            out.append(sig)
        k += 1
    return out


def classified_poles(sp, count):
    """(zeta, kind, residue) of classify_poles(space, count), bottom-up
    resonances first, then intertwiner poles -i k/2."""
    out = []
    for im in resonance_zetas(sp, count):
        lam = -Fraction(im)
        res = -1j * c_value(sp, -float(lam)) / c_lead(sp, lam)
        out.append((1j * float(im), "resonance", res))
    for k in range(1, count + 1):
        lam = Fraction(-k, 2)
        if c_order(sp, lam) >= 0:
            continue
        res = 1j * c_lead(sp, lam) / c_value(sp, float(-lam))
        out.append((-0.5j * k, "intertwiner", res))
    return out
