"""Harish-Chandra c-function of a rank-one symmetric space.

With lambda in units of the short root alpha,

    c(lambda) = c0 * Gamma(lambda) 2^(-lambda)
                / ( Gamma((m_alpha/2 + 1 + lambda)/2)
                    * Gamma((m_alpha/2 + m_2alpha + lambda)/2) ),

where c0 is fixed by the normalization c(rho) = 1.  The two-sided product
czz(zeta) = c(i zeta) c(-i zeta) controls the meromorphic continuation of the
resolvent: its zeros in the upper half-plane are the resonances, and on the
real axis 1/czz is the Plancherel density of the spherical transform.

Values, derivatives and czz are all read off c's local data (order, A, B),
which one pass over the three Gamma factors gives: a scalar pass in plain
Python arithmetic, and an array pass for numpy arrays.  Off the lattice a
factor takes scipy's ``loggamma`` (and ``psi``, where the slope B is asked
for); at nonpositive-integer arguments, its exact local Laurent/Taylor
data, carried in log space, so that values, derivatives and zero/pole orders
of c stay exact where numerator and denominator poles collide (exactly the
points the resonance and residue formulas need) and finite at any index.

``local_expansion``, ``czz_expansion``, ``value`` and ``czz`` map a number to
Python numbers and a numpy array to arrays.  The array pass evaluates the
special functions on the regular subset only, so none is evaluated at a
placeholder.  A lattice element of a ``value`` or ``czz`` array equals the
scalar call bit for bit.  As in the scalar call, a non-finite element raises
NonFiniteInputError and a pole raises PoleSignal.  A scalar or element with
|lambda| >= 2^52 raises OutOfRangeError: there the float lambda/2 cannot hold
the quarter offsets of the Gamma arguments, so the lattice cannot be told
apart.  So does one where |c| passes the largest float (chn:1000, 0.7), or
where czz or |c|^2 does (hn:1000, 0.7).

The two ufuncs ``loggamma`` and ``psi`` (``radial`` imports them from here)
are loaded from ``scipy.special._ufuncs`` without running ``scipy.special``'s
package init, whose array-API layer loads ``numpy.f2py`` and
``numpy.testing`` and costs several times the rest of the library's import.
Where ``scipy.special`` is already loaded, or the private module cannot be
loaded so, they come from the public ``scipy.special``; a later import of
``scipy.special`` returns the same ufunc objects either way.
"""

from __future__ import annotations

import cmath
import importlib.util
import math
import sys
from functools import lru_cache

import numpy as np

from .errors import NonFiniteInputError, OutOfRangeError, PoleSignal
from .space import RankOneSpace

_LN2 = math.log(2.0)

_INT_TOL = 1e-12
# past |lambda| = 2^52 the float lambda/2 cannot hold the quarter offsets
# a1 and a2, so that every a + lambda/2 on the negative axis reads as an
# integer (and c has lost every digit to cancellation well before)
_LATTICE_LIMIT = 2.0**52
_LOG_FLOAT_MAX = math.log(sys.float_info.max)


def _gamma_ufuncs():
    """(loggamma, psi) from scipy.special._ufuncs, with a bare stand-in for the
    scipy.special package (its real __path__, its __init__ not run) in
    sys.modules for the one import statement; the public import where
    scipy.special is already loaded or the private route fails."""
    name = "scipy.special"
    if name not in sys.modules:
        bare = None
        try:
            bare = importlib.util.module_from_spec(importlib.util.find_spec(name))
            # another thread importing scipy.special during this statement
            # would see the bare module
            sys.modules[name] = bare
            from scipy.special._ufuncs import loggamma, psi
            return loggamma, psi
        except (ImportError, AttributeError):
            pass
        finally:
            if bare is not None and sys.modules.get(name) is bare:
                del sys.modules[name]
    from scipy.special import loggamma, psi
    return loggamma, psi


loggamma, psi = _gamma_ufuncs()


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


def _out_of_range(lam):
    return OutOfRangeError(f"c-function argument lambda = {lam} has |lambda| >= 2^52, "
                           "where lambda/2 cannot hold the quarter offsets of the "
                           "Gamma arguments")


def _exp_lead(lam, log_lead):
    """c's leading coefficient A = exp(log A) at lam; OutOfRangeError where
    |A| passes the largest float (a large multiplicity: chn:1000 at 0.7)."""
    if not log_lead.real < _LOG_FLOAT_MAX:
        raise OutOfRangeError(f"c-function at lambda = {lam} leaves the floating-point range")
    return cmath.exp(log_lead)


def _argument(lam):
    """lam as a complex; NonFiniteInputError where it is not finite (as
    _nonpos_int would raise), OutOfRangeError where |lam| >= 2^52."""
    lam = complex(lam)
    if not math.hypot(lam.real, lam.imag) < _LATTICE_LIMIT:  # abs() may raise OverflowError
        if not cmath.isfinite(lam):
            raise NonFiniteInputError(f"c-function argument {lam} is not finite")
        raise _out_of_range(lam)
    return lam


def _finite(x):
    """x as a complex array; NonFiniteInputError if an element is not finite,
    OutOfRangeError if one has |x| >= 2^52 (one pass over |x| tests both)."""
    x = np.asarray(x, dtype=complex)
    size = np.abs(x)
    if not size.max(initial=0.0) < _LATTICE_LIMIT:
        if not np.isfinite(x).all():
            raise NonFiniteInputError("c-function argument array has a non-finite element")
        raise _out_of_range(complex(x.flat[np.argmax(size)]))
    return x


def _lattice_index(w):
    """Array form of _nonpos_int: m where w is within _INT_TOL of -m, else -1
    (floats, so that no index is cut to a machine integer)."""
    m = np.round(w.real)
    hit = (np.abs(w.imag) <= _INT_TOL) & (m <= 0) & (np.abs(w.real - m) <= _INT_TOL)
    return np.where(hit, -m, -1.0)


def _cmul(x, y):
    """x * y computed as CPython forms a complex product (no fused
    multiply-add), so that an array element equals the scalar call's."""
    out = np.empty(np.broadcast(x, y).shape, dtype=complex)
    out.real = x.real * y.real - x.imag * y.imag
    out.imag = x.real * y.imag + x.imag * y.real
    return out


def _read_local(what, var, at, order, lead, nxt):
    """(f, f') at var = at from f's local data (order, A, B): (A, B) at a
    regular point, (0, A) at a simple zero, (0, 0) at a higher zero, and
    PoleSignal at a pole (carrying the residue A at a simple one)."""
    if order < 0:
        raise PoleSignal(
            f"pole of {what} of order {-order} at {var} = {at}",
            at=at,
            order=-order,
            residue=lead if order == -1 else None,
        )
    if order == 0:
        return lead, nxt
    return 0j, (lead if order == 1 else 0j)


def _read_values(what, var, at, order, lead):
    """Array form of _read_local's value: A, or 0 at a zero; the first pole in
    the arrays (order, lead) raises as _read_local raises it."""
    poles = np.flatnonzero(order < 0)
    if poles.size:
        i = poles[0]
        _read_local(what, var, complex(at.flat[i]), int(order.flat[i]),
                    complex(lead.flat[i]), None)
    return np.where(order > 0, 0j, lead)


# i^o1 (-i)^o2 = i^((o1 - o2) mod 4)
_I_POWERS = (1 + 0j, 1j, -1 + 0j, -1j)


def compose_czz(plus, minus):
    """czz's local data (order, A, B) at zeta, a scalar or an array, from c's
    data (order, A, B) at i zeta (``plus``) and at -i zeta (``minus``); B is
    None if either B is.  A scalar zeta takes plain Python arithmetic, which
    _cmul imitates on arrays, so that its A equals an array element's, and
    both raise OutOfRangeError where A passes the largest float (hn:1000)."""
    o1, a1, b1 = plus
    o2, a2, b2 = minus
    if isinstance(a1, np.ndarray):
        phase = np.array(_I_POWERS)[(o1 - o2) % 4]
        with np.errstate(over="ignore", invalid="ignore"):
            lead = _cmul(phase * a1, a2)
        finite = np.isfinite(lead).all()
    else:
        phase = _I_POWERS[(o1 - o2) % 4]
        lead = phase * a1 * a2
        finite = cmath.isfinite(lead)
    if not finite:
        raise OutOfRangeError("czz = c(i zeta) c(-i zeta) leaves the floating-point range")
    nxt = None if b1 is None or b2 is None else phase * (1j * b1 * a2 - 1j * a1 * b2)
    return o1 + o2, lead, nxt


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
        # c0 from c(rho) = 1: minus the log of the quotient at rho, read with
        # c0 = 1 (rho > 0, so all three Gammas are regular there)
        self.log_c0 = 0.0
        self.log_c0 = -float(self._local(complex(space.rho), slope=False)[1].real)

    def __repr__(self):
        return f"CFunction({self.space})"

    # -- local structure ---------------------------------------------------

    def local_expansion(self, lam0):
        """Two leading terms of c at lam0.

        Returns (order, A, B) with c(lam0 + e) = e^order (A + B e + O(e^2)).
        order < 0 is a pole, order > 0 a zero; A is always nonzero.  A numpy
        array of lam0 gives the arrays (order, A, B).
        """
        if isinstance(lam0, np.ndarray):
            return self._expand(lam0, slope=True)
        order, log_lead, ratio = self._local(_argument(lam0), slope=True)
        lead = _exp_lead(lam0, log_lead)
        return order, lead, lead * ratio

    def _local(self, lam, slope):
        """Scalar form of _expand in plain Python arithmetic: c's (order,
        log A, B/A) at the complex lam, B/A None unless ``slope``."""
        order = 0
        # log of the leading coefficient, and the sum of the factors' B/A
        log_lead = self.log_c0 - lam * _LN2
        ratio = complex(-_LN2) if slope else None
        for sign, w in self._factors(lam):
            m = _nonpos_int(w)
            if m is None:
                gam = loggamma(w)
                log_lead += gam if sign > 0 else -gam
            else:
                # Gamma(-m + e) = (-1)^m / m! e^-1 (1 + psi(m+1) e + O(e^2)),
                # 1/Gamma(-n + e/2) = (-1)^n n! e/2 (1 - psi(n+1) e/2 + O(e^2))
                lg = math.lgamma(m + 1)
                order -= sign
                log_lead += (-lg if sign > 0 else lg - _LN2) + 1j * math.pi * (m % 2)
            if slope:
                dlog = complex(psi(w)) if m is None else psi(m + 1.0)
                # d/dlam of a + lam/2 is 1/2
                ratio = ratio + dlog if sign > 0 else ratio - 0.5 * dlog
        return order, log_lead, ratio

    def _expand(self, lam, slope):
        """Array form of local_expansion; B is None unless ``slope``.

        The sums run in _local's order, and the factorials go
        through math.lgamma as there, so that the lattice elements of A agree
        with the scalar call bit for bit.
        """
        lam = _finite(lam)
        order = np.zeros(lam.shape, dtype=int)
        log_lead = self.log_c0 - lam * _LN2
        ratio = np.full(lam.shape, -_LN2, dtype=complex) if slope else None
        for sign, w in self._factors(lam):
            m = _lattice_index(w)
            hit = m >= 0
            lattice = hit.any()
            reg = ~hit if lattice else Ellipsis
            coef = 1.0 if sign > 0 else -0.5  # d/dlam of a + lam/2 is 1/2
            gam = loggamma(w[reg])
            log_lead[reg] += gam if sign > 0 else -gam
            if slope:
                ratio[reg] += psi(w[reg]) * coef
            if lattice:
                # Gamma(-m + e) = (-1)^m / m! e^-1 (1 + psi(m+1) e + O(e^2)),
                # 1/Gamma(-n + e/2) = (-1)^n n! e/2 (1 - psi(n+1) e/2 + O(e^2))
                m = m[hit]
                lg = np.array([math.lgamma(k + 1) for k in m.tolist()])
                order[hit] -= sign
                log_lead[hit] += ((-lg if sign > 0 else lg - _LN2)
                                  + 1j * (math.pi * (m % 2)))
                if slope:
                    ratio[hit] += coef * psi(m + 1.0)
        outside = np.flatnonzero(~(log_lead.real < _LOG_FLOAT_MAX))
        if outside.size:  # the first raises as _exp_lead raises it
            _exp_lead(complex(lam.flat[outside[0]]), complex(log_lead.flat[outside[0]]))
        lead = np.exp(log_lead)
        return order, lead, (lead * ratio if slope else None)

    def zero_order(self, lam):
        """Order of vanishing of c at lam (negative for a pole, 0 generic).

        A numpy array of lam gives the array of orders, read off the lattice
        alone."""
        if isinstance(lam, np.ndarray):
            return sum(-sign * (_lattice_index(w) >= 0)
                       for sign, w in self._factors(_finite(lam)))
        return self._local(_argument(lam), slope=False)[0]

    def _factors(self, lam):
        """(sign, argument) of the Gamma factors of c: Gamma(lam) in the
        numerator (+1), Gamma(a1 + lam/2) and Gamma(a2 + lam/2) below (-1)."""
        return ((1, lam), (-1, self.a1 + lam / 2.0), (-1, self.a2 + lam / 2.0))

    # -- evaluation --------------------------------------------------------

    def value(self, lam):
        """c(lambda).  Returns 0 exactly at zeros; raises PoleSignal at poles.

        A numpy array of lambda gives the array of values."""
        if isinstance(lam, np.ndarray):
            return _read_values("c", "lambda", lam, *self._expand(lam, slope=False)[:2])
        lam = _argument(lam)
        order, log_lead, _ = self._local(lam, slope=False)
        return _read_local("c", "lambda", lam, order, _exp_lead(lam, log_lead), None)[0]

    def derivative(self, lam):
        """c'(lambda); at a pole of c, PoleSignal with c's residue."""
        lam = _argument(lam)
        return _read_local("c", "lambda", lam, *self.local_expansion(lam))[1]

    # -- two-sided product -------------------------------------------------

    def czz_expansion(self, zeta0):
        """Local data of czz(zeta) = c(i zeta) c(-i zeta) at zeta0.

        A numpy array of zeta0 gives the arrays (order, A, B)."""
        if isinstance(zeta0, np.ndarray):
            return self._czz_arrays(zeta0, self.local_expansion)
        zeta0 = complex(zeta0)
        order, lead, nxt = compose_czz(self.local_expansion(1j * zeta0),
                                       self.local_expansion(-1j * zeta0))
        return order, lead, complex(nxt)  # B may come from numpy's psi

    def czz(self, zeta):
        """czz(zeta) = c(i zeta) c(-i zeta); equals |c(i zeta)|^2 for real zeta.

        A numpy array of zeta gives the array of values, read without c's
        slope (the winding count reads czz on its whole contour)."""
        if isinstance(zeta, np.ndarray):
            data = self._czz_arrays(zeta, lambda x: self._expand(x, slope=False))
            return _read_values("czz", "zeta", zeta, *data[:2])
        return _read_local("czz", "zeta", complex(zeta), *self.czz_expansion(zeta))[0]

    def _czz_arrays(self, zeta, expand):
        """czz_expansion over the array zeta, from the c-data ``expand`` gives."""
        zeta = _finite(zeta)
        return compose_czz(expand(1j * zeta), expand(-1j * zeta))

    def czz_derivative(self, zeta):
        return self.czz_and_derivative(zeta)[1]

    def czz_and_derivative(self, zeta):
        """(czz, czz') at zeta from one local expansion."""
        return _read_local("czz", "zeta", complex(zeta), *self.czz_expansion(zeta))

    def plancherel_density(self, zeta):
        """Spherical Plancherel density |c(i zeta)|^{-2} at real zeta > 0."""
        z = complex(zeta)
        if not cmath.isfinite(z):
            raise NonFiniteInputError(f"plancherel_density argument zeta = {z} is not finite")
        if abs(z.imag) > 1e-12 or z.real <= 0.0:
            raise ValueError("plancherel_density needs real zeta > 0")
        size = abs(self.value(1j * z.real))
        try:
            return 1.0 / size ** 2
        except OverflowError:
            raise OutOfRangeError(f"|c(i zeta)|^2 at zeta = {z.real} leaves the "
                                  "floating-point range") from None

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
