"""Harish-Chandra c-function of a rank-one symmetric space.

With lambda in units of the short root alpha,

    c(lambda) = c0 * Gamma(lambda) 2^(-lambda)
                / ( Gamma((m_alpha/2 + 1 + lambda)/2)
                    * Gamma((m_alpha/2 + m_2alpha + lambda)/2) ),

where c0 is fixed by the normalization c(rho) = 1.  The two-sided product
czz(zeta) = c(i zeta) c(-i zeta) controls the meromorphic continuation of the
resolvent: its zeros in the upper half-plane are the resonances, and on the
real axis 1/czz is the Plancherel density of the spherical transform.

Gamma evaluations go through ``scipy.special`` (``loggamma`` and ``psi``).
At nonpositive-integer arguments the Gamma factors are replaced by their
exact local Laurent/Taylor data, carried in log space, so that values,
derivatives and zero/pole orders of c stay exact at the points where numerator
and denominator poles collide (these are exactly the points the resonance and
residue formulas need), and stay finite at any resonance index.

``value`` and ``czz`` also map a numpy array to an array: one ``loggamma``
call per Gamma factor for the regular elements, the scalar call (and its
exact local data) for each element on the lattice.  As in the scalar call, a
non-finite element raises NonFiniteInputError and a pole raises PoleSignal.
"""

from __future__ import annotations

import cmath
import math
from functools import lru_cache

import numpy as np
from scipy.special import loggamma, psi

from .errors import NonFiniteInputError, PoleSignal
from .space import RankOneSpace

_LN2 = math.log(2.0)

_INT_TOL = 1e-12


def _nonpos_int(w, tol=_INT_TOL):
    """Return m >= 0 if w is within tol of the nonpositive integer -m.

    Every argument of the c-function passes through here, so this is also
    where non-finite input is refused.
    """
    w = complex(w)
    if not cmath.isfinite(w):
        raise NonFiniteInputError(f"c-function argument {w} is not finite")
    if abs(w.imag) > tol:
        return None
    m = round(w.real)
    if m > 0 or abs(w.real - m) > tol:
        return None
    return -m


def _by_element(x, regular, fast, scalar):
    """Array of results over the array x: ``fast`` in one call on the
    elements where ``regular(x)`` holds, ``scalar`` on each other one."""
    x = x.astype(complex)
    if not np.isfinite(x).all():
        raise NonFiniteInputError("c-function argument array has a non-finite element")
    ok = regular(x)
    out = np.empty(x.shape, dtype=complex)
    out[ok] = fast(x[ok])
    for i in np.flatnonzero(~ok):
        out.flat[i] = scalar(complex(x.flat[i]))
    return out


def log_gamma(z):
    """Principal branch of log Gamma on C minus the poles {0, -1, -2, ...}.

    Raises PoleSignal at the poles.
    """
    m = _nonpos_int(z, tol=1e-13)
    if m is not None:
        raise PoleSignal(f"log_gamma pole at z = {-m}", at=-m, order=1)
    return complex(loggamma(complex(z)))


def digamma(z):
    """Digamma psi(z) = (log Gamma)'(z) for complex z off the poles."""
    m = _nonpos_int(z, tol=1e-13)
    if m is not None:
        raise PoleSignal(f"digamma pole at z = {-m}", at=-m, order=1)
    return complex(psi(complex(z)))


class CFunction:
    """c-function of one space, with exact local data at special points.

    The denominator arguments are a1 + lambda/2 and a2 + lambda/2 with
    a1 = (m_alpha/2 + 1)/2 and a2 = (m_alpha/2 + m_2alpha)/2.  Instances are
    immutable and cheap; ``for_space`` memoizes them per space.
    """

    def __init__(self, space: RankOneSpace):
        self.space = space
        self.a1 = (0.5 * space.m_alpha + 1.0) / 2.0
        self.a2 = (0.5 * space.m_alpha + space.m_2alpha) / 2.0
        rho = space.rho
        # c0 from c(rho) = 1; rho > 0 so all three Gammas are regular there
        self.log_c0 = -(
            log_gamma(rho)
            - rho * _LN2
            - log_gamma(self.a1 + rho / 2.0)
            - log_gamma(self.a2 + rho / 2.0)
        ).real

    def __repr__(self):
        return f"CFunction({self.space})"

    # -- local structure ---------------------------------------------------

    def local_expansion(self, lam0):
        """Two leading terms of c at lam0.

        Returns (order, A, B) with c(lam0 + e) = e^order (A + B e + O(e^2)).
        order < 0 is a pole, order > 0 a zero; A is always nonzero.
        """
        lam0 = complex(lam0)
        # log of the leading coefficient, and the sum of the factors' B/A
        log_lead = self.log_c0 - lam0 * _LN2
        ratio = complex(-_LN2)
        m = _nonpos_int(lam0)
        if m is None:
            order = 0
            log_lead += log_gamma(lam0)
            ratio += digamma(lam0)
        else:
            # Gamma(-m + e) = (-1)^m / m! e^-1 (1 + psi(m+1) e + O(e^2))
            order = -1
            log_lead += -math.lgamma(m + 1) + 1j * math.pi * (m % 2)
            ratio += psi(m + 1.0)
        for a in (self.a1, self.a2):
            z0 = a + lam0 / 2.0
            n = _nonpos_int(z0)
            if n is None:
                log_lead -= log_gamma(z0)
                ratio -= 0.5 * digamma(z0)
            else:
                # 1/Gamma(-n + e/2) = (-1)^n n! e/2 (1 - psi(n+1) e/2 + O(e^2))
                order += 1
                log_lead += math.lgamma(n + 1) - _LN2 + 1j * math.pi * (n % 2)
                ratio -= 0.5 * psi(n + 1.0)
        lead = cmath.exp(log_lead)
        return order, lead, lead * ratio

    def zero_order(self, lam):
        """Order of vanishing of c at lam (negative for a pole, 0 generic)."""
        return self.local_expansion(lam)[0]

    # -- evaluation --------------------------------------------------------

    def _is_special(self, lam):
        if _nonpos_int(lam) is not None:
            return True
        return any(_nonpos_int(a + lam / 2.0) is not None for a in (self.a1, self.a2))

    def _log_quotient(self, lam):
        """log c(lambda) off the lattice, for a scalar or an array."""
        return (
            self.log_c0
            - lam * _LN2
            + loggamma(lam)
            - loggamma(self.a1 + lam / 2.0)
            - loggamma(self.a2 + lam / 2.0)
        )

    def _regular(self, lam):
        """Array form of ``not _is_special``, with the tolerance of _nonpos_int."""
        regular = True
        for w in (lam, self.a1 + lam / 2.0, self.a2 + lam / 2.0):
            m = np.round(w.real)
            regular &= (np.abs(w.imag) > _INT_TOL) | (m > 0) | (np.abs(w.real - m) > _INT_TOL)
        return regular

    def value(self, lam):
        """c(lambda).  Returns 0 exactly at zeros; raises PoleSignal at poles.

        A numpy array of lambda gives the array of values."""
        if isinstance(lam, np.ndarray):
            return _by_element(lam, self._regular,
                               lambda x: np.exp(self._log_quotient(x)), self.value)
        lam = complex(lam)
        if self._is_special(lam):
            order, lead, _ = self.local_expansion(lam)
            if order < 0:
                raise PoleSignal(
                    f"pole of c of order {-order} at lambda = {lam}",
                    at=lam,
                    order=-order,
                    residue=lead if order == -1 else None,
                )
            return 0j if order > 0 else lead
        return cmath.exp(self._log_quotient(lam))

    def derivative(self, lam):
        """c'(lambda), valid at generic points and at zeros of c."""
        lam = complex(lam)
        order, lead, nxt = self.local_expansion(lam)
        if order < 0:
            raise PoleSignal(
                f"pole of c of order {-order} at lambda = {lam}",
                at=lam,
                order=-order,
            )
        if order == 0:
            return nxt
        if order == 1:
            return lead
        return 0j

    def __call__(self, lam):
        return self.value(lam)

    # -- two-sided product -------------------------------------------------

    def czz_expansion(self, zeta0):
        """Local data of czz(zeta) = c(i zeta) c(-i zeta) at zeta0."""
        zeta0 = complex(zeta0)
        o1, a1_, b1 = self.local_expansion(1j * zeta0)
        o2, a2_, b2 = self.local_expansion(-1j * zeta0)
        # compose with eps_lambda = +/- i eps_zeta
        order = o1 + o2
        phase = (1j) ** o1 * (-1j) ** o2
        lead = phase * a1_ * a2_
        nxt = phase * (1j * b1 * a2_ - 1j * a1_ * b2)
        return order, lead, nxt

    def czz(self, zeta):
        """czz(zeta) = c(i zeta) c(-i zeta); equals |c(i zeta)|^2 for real zeta.

        A numpy array of zeta gives the array of values."""
        if isinstance(zeta, np.ndarray):
            lq = self._log_quotient
            return _by_element(
                zeta, lambda z: self._regular(1j * z) & self._regular(-1j * z),
                lambda z: np.exp(lq(1j * z)) * np.exp(lq(-1j * z)), self.czz)
        return self.czz_and_derivative(zeta)[0]

    def czz_derivative(self, zeta):
        return self.czz_and_derivative(zeta)[1]

    def czz_and_derivative(self, zeta):
        """(czz, czz') at zeta from one local expansion."""
        order, lead, nxt = self.czz_expansion(zeta)
        if order < 0:
            raise PoleSignal(
                f"pole of czz of order {-order} at zeta = {zeta}",
                at=complex(zeta),
                order=-order,
                residue=lead if order == -1 else None,
            )
        if order == 0:
            return lead, nxt
        return 0j, (lead if order == 1 else 0j)

    def plancherel_density(self, zeta):
        """Spherical Plancherel density |c(i zeta)|^{-2} at real zeta > 0."""
        z = complex(zeta)
        if abs(z.imag) > 1e-12 or z.real <= 0.0:
            raise ValueError("plancherel_density needs real zeta > 0")
        return 1.0 / abs(self.value(1j * z.real)) ** 2

    # -- zero set of czz in the upper half plane ---------------------------

    def resonance_step(self):
        """Spacing j of the czz zero progression i(rho + j k), or None.

        j = 2 when m_2alpha != 0; j = 1 when m_2alpha = 0 and m_alpha is odd;
        no zeros at all when m_2alpha = 0 and m_alpha is even.
        """
        if self.space.m_2alpha != 0:
            return 2
        if self.space.m_alpha % 2 == 1:
            return 1
        return None

    def czz_zeros_upper(self, count):
        """First ``count`` zeros of czz in Im zeta > 0, bottom up."""
        j = self.resonance_step()
        if j is None:
            return []
        rho = self.space.rho
        return [1j * (rho + j * k) for k in range(count)]


@lru_cache(maxsize=None)
def for_space(space: RankOneSpace) -> CFunction:
    """Memoized CFunction per space."""
    return CFunction(space)
