"""Radial eigenfunctions of the rank-one Laplacian.

Everything here solves one ODE in the geodesic radius t (y = e^{-t}),

    u'' + b(t) u' + (rho^2 - lambda^2) u = 0,
    b(t) = m_alpha coth t + 2 m_2alpha coth 2t.

There is no angular term: a K-type of the disk model is a spherical
solution on a space of higher dimension times an explicit prefactor (a
Jacobi parameter shift, ``model_h2.ktype_space``).  Two distinguished
solutions:

* Q_lambda = y^(rho+lambda) h_lambda(y), the solution with a pure boundary
  exponent.  h_lambda solves a Frobenius recursion in the y-power-series
  coefficients (writing the radial operator through theta = y d/dy; the
  coefficient there is theta applied to log J, not to J itself).  The
  coefficients of b(t) - 2 rho in y^2 take two values, by the power mod 4,
  so each step's source is two running sums over the earlier terms and N
  terms cost O(N).  The series converges on |y| < 1; we sum it for
  y <= 1/2, i.e. t >= log 2, as one product of the stored even coefficients
  with the powers of y^2 (and a K-type's (2 sinh t)^m Q by the same read).
  Below log 2 ``eval_Q`` sums the second-kind Jacobi function
  (2 cosh t)^-(rho+lambda) 2F1((rho+lambda)/2, (alpha-beta+1+lambda)/2;
  1+lambda; cosh(t)^-2), connected to tanh(t)^2: for alpha not an integer
  (h3, odd hn) two power series, the first phi's own (A&S 15.3.6); for an
  integer alpha (h2, even hn, chn, hhn, oh2) a finite sum in w^(n-alpha)
  plus a log series with psi weights (A&S 15.3.11).

* phi_lambda, the regular solution with phi(0) = 1 (the spherical
  function), which is a Jacobi function (Koornwinder 1984) with
  alpha = (m_alpha + m_2alpha - 1)/2 and beta = (m_2alpha - 1)/2.
  Near t = 0 ``eval_phi`` sums cosh(t)^-(rho+lambda) 2F1((rho+lambda)/2,
  (alpha-beta+1+lambda)/2; alpha+1; tanh(t)^2); past T_PHI = 1.5 it returns
  c(lambda) Q_{-lambda} + c(-lambda) Q_lambda from the closed-form c and
  the Frobenius series.  Below 1.5 the two c Q terms are up to 1e6 times
  phi (oh2 at t = 0.7), and past it on a large multiplicity (hn:66 at
  lambda = 0.7, t = 1.6: 2.9e11): ``_CQ``, the one c Q sum, refuses a sum
  that has lost 8 digits with IllConditionedError.

Both tanh^2 series are one kind of object, a _TanhSeries: rows of 2F1
terms, made once by the term ratio at the widest w they will be read at
(tanh^2 of phi's switch, tanh^2 log 2 for Q) and cut where they are falling
and below 1e-17 of the largest, then summed at every read by one product
with the powers of w over that w.  phi's rows are its series and its
w d/dw; Q's hold the Gamma prefactors and psi weights as well.

The two are linked by phi = c(lambda) Q_{-lambda} + c(-lambda) Q_{lambda}.
By Abel's identity J W(u, v) = J (u v' - u' v) of two solutions is the same
at every t, and J W(Q_{-lambda}, Q_lambda) = -2 lambda, so a solution
u = a_minus Q_{-lambda} + a_plus Q_lambda has a_minus = J W(u, Q_lambda) /
(-2 lambda) and a_plus = J W(u, Q_{-lambda}) / (2 lambda): J W(phi, Q_mu) =
-2 mu c(mu).  ``_connection_solve`` reads the pairings a caller needs at
log 2 from u and Q's Frobenius series, with no c and no linear solve, for
``boundary.boundary_pair`` and, through phi's ``phi_pairings``, for
``connection_coefficients``, ``abel_wronskian``, ``wronskian_limit``
(lim_{t->0} J dQ/dt, which fixes the resolvent normalization) and the
residue relation of ``scattering``.

phi, and Q below log 2, are each read in one shape: a start series up to
a switch, a Taylor bridge from the switch to an end, and an end series past
the end.  The bridge runs only where neither series keeps its digits.

phi starts with its Jacobi series.  A large |Im lambda| makes it cancel,
its terms outgrowing the sum by about |Im lambda| tanh(t) / 2 decades, so
its switch is where |Im lambda| tanh(t) = 4, or T_PHI if that is earlier;
a |lambda| in the hundreds overflows the terms at the switch, which then
moves to half that reach, halved again until the terms are floats.  The
forward bridge ends at T_PHI, and c Q serves past it whatever |Im lambda|
is: at 40i, t = 60, c Q reads 2e-14 of mpmath where the ODE read 8e-13.
Within LATTICE_GUARD = 0.05 of an integer lambda the two c Q terms have
poles that cancel, and the bridge has no end.  At a half-integer lambda c
has no pole and both Frobenius series exist (the recursion divides by
nu (nu + 2 lambda) for even nu only), so c Q serves there.  A forward
bridge read is refused where phi's growth e^((|Re lambda| - rho) t) passes
e^700, whatever was read before.

Q starts with its Frobenius series and switches at log 2.  The second-kind
series cancels where Re lambda > 0 is large (it loses about
2 Re lambda t / ln 10 decades) or |Im lambda| is.  Its condition at t, the
sum of its parts' moduli over the modulus of the sum, times 1e-16 tracks
its error (to 20x for Re lambda > 0, where the Gamma prefactors carry
error too).  Where the condition at log 2 is at most 1e3 there is no
bridge.  Else the backward bridge ends at the largest t where that
rounding is no larger than the ODE's: about 1e-15 in the dominant
direction (Re lambda > 0, where the bridge serves every t), growing like
e^(2 |Re lambda| (log 2 - t)) along the recessive solution (Re lambda < 0).
At -20+60i the series alone reads 2e-5 off mpmath and the ODE alone 2e-4,
the two together 3e-11.  The spectral sweep's box (|Re lambda| < 2.9,
|Im lambda| < 1.2) has no bridge: its condition is at most 82 over h2, h3,
oh2, hn:4-10, chn:2-5 and hhn:2-5.  Near a negative integer lambda the
Gamma factors cancel too, losing about 1e-16 / distance, but the backward
ODE is worse there, so there is no guard.

``phi_solution`` and ``q_solution`` always integrate: phi from the Jacobi
series of its cache entry at T_SEED = 0.2 (or the series' reach, or
t_max / 2, if earlier), Q from its Frobenius series at log 2, so the
connection suite compares an integrated phi and Q with the closed forms,
and the ``jacobi`` suite compares them with the series.

Every integration continues the solution by its own Taylor series
(Corliss and Chang 1982; Jorba and Zou 2005): b is analytic off t = 0 and
the imaginary axis, so the series at a step's start t0 converges out to
t0.  A step is at most t0 / 2 long forward and 0.4 t0 backward, where Q's
pole at 0 slows the terms, and at most 4 / |lambda| and 4 / e, e = b - 2 rho
at the step's lower end, so that the terms of e^(+-lambda s) and of the
ODE's fast mode e^(-e s) cancel by at most about e^4.  Near 0, e is about
(m_alpha + m_2alpha) / t, so on a large family this also keeps a step
within about 4 t0 / (m_alpha + m_2alpha) of Q's pole, of order
m_alpha + m_2alpha - 1: without it hn:40's Q and hn:100's phi fail to
settle.  A step ends where its terms fall below 1e-17 of the solution's
size at t0, and its polynomial is its dense output.  No step is shortened to
end where the solve stops: it steps until a step ends past that t, so the
steps depend on the start alone.  Each column follows
w = e^((rho - |Re lambda|)(t - t0)) u, whose modes at large t are
e^((-|Re lambda| +- lambda)(t - t0)), one of modulus 1: with no shift the
terms of oh2's e^(-(rho +- lambda) s) cancel, and the verify grid's phi
reads 1.2e-4 off mpmath in place of 6e-15.  Each column is
scaled by a power of two at every step's start, so columns that grow and
columns that underflow share the steps.  Near the origin the steps stay a
fixed share of t: the connection suite's phi takes 14 steps from
T_SEED = 0.2 to 5.2, and the jacobi suite's Q 21 from log 2 to 0.005
(10 on h2 alone; oh2's e sets the steps of the batch).
The ODE is linear, and only the space's m_alpha, m_2alpha, rho and lambda
differ from one solution to another, so N solutions, of one space or of
several, share one ``solve_ivp`` whose every operation acts on all N
columns at once; the verify suites make one such solve per kind over the
125 (family, lambda) pairs of their grid.  The solutions of one batch read
the steps once per t, not once per lambda.  A step is at most 4 / |lambda|
long, so the steps grow with the phase |lambda| t: ``solve_ivp`` refuses a
solve, or a growth of one, that would turn through more than _MAX_PHASE =
1e5 radians with OutOfRangeError.

``eval_phi``, ``eval_Q``, ``connection_coefficients``, ``phi_solution``'s
seed and the K-type profiles of ``model_h2`` read one cache,
``continuation``, with one entry per (space, lambda, kind): a Continuation,
which is data (the start series, the switch, the end, the end series and
the bridge's one solve).  A read past
the solve's last step end grows it in place, to the first step end past
that t, by a solve continued from its own state there, so a value depends
on the key and t alone, not on the order of requests.
``eval_Q`` makes no entry for t >= log 2, where it reads the Frobenius
series alone: through the entry, the residues suite's contour probe
(``kernel`` at t = 1 on 128 zeta) would build a second-kind series of about
0.3 ms per zeta.  The ten suites that the benchmark pins make 272 entries and
``verify --all`` 397 (the ``jacobi`` suite adds 125 of Q): maxsize 512
holds them all.  ``continuation.cache_info()`` reports the hit rate.

Every read of phi and Q (``Continuation.pair``, ``eval_Q``'s Frobenius
read, ``_connection_solve``'s Q_mu, an ODE solution's) goes through
``_checked``, the one place a u past the float range is refused
(OutOfRangeError); the series and the Taylor steps only compute, and return
inf or nan there or raise OverflowError.

``eval_phi`` and ``eval_Q`` also read a 1-d array of t, as the resolvent's
quadrature does at a rule's 21 nodes: the t are split by region, each
series part is summed in one matrix product with the powers of its
variable, and the bridge reads its t one at a time.  A series part differs
from the scalar reads by rounding only (numpy's tanh and exp against
math's, and the order of the sums); a bridge read is the scalar read.

Many solutions are read the other way round, at one float t by a
``RadialBatch`` of cache entries or RadialSolutions: the solutions on their
start series are summed per series kind, the rows of each kind stacked
once per batch (zero-padded to the longest) and summed by one product per
distinct variable; those on a bridge read their shared solve once; only the
rest (c Q, the second-kind series) are read one by one.  The sequence forms
of ``_connection_solve``, ``phi_pairings``, ``abel_wronskian`` and
``boundary.boundary_pair`` read through it, and stack the Q_mu's Frobenius
series the same way, so the connection and wronskian suites read their
125-point grid once per t.  The single-lambda forms and the ODE seeds keep
the scalar reads, bit for bit.
"""

from __future__ import annotations

import cmath
import math
import warnings
from bisect import bisect_left
from dataclasses import dataclass, field
from functools import cached_property, lru_cache, partial
from itertools import accumulate
from operator import mul

import numpy as np

from .cfunction import for_space, loggamma, psi
from .errors import (AccuracyWarning, IllConditionedError, OutOfRangeError,
                     ResonantExponentError, StiffnessError, as_array, as_complex, as_float)
from .space import RankOneSpace

T_SWITCH = math.log(2.0)  # series/ODE handover at y = 1/2
T_PHI = 1.5  # phi: Jacobi series below, c Q_{-lambda} + c Q_lambda above
T_SEED = 0.2  # phi_solution's ODE starts from the Jacobi series here, or earlier
_MIN_T_MAX = 0.01  # phi_solution's least t_max; its seed is at most half of t_max
EXCLUSION_RADIUS = 1e-6
LATTICE_GUARD = 0.05  # lambda this near an integer: the c Q terms cancel

_SERIES_TOL = 1e-17
_Y_MAX = 0.5  # the Frobenius series is summed for y <= 1/2, t >= log 2
_FROBENIUS_TOL = 1e-16  # frobenius_Q stops after two terms below this of the sum at y = 1/2,
_FROBENIUS_MAX_TERMS = 400  # ... or here, with an AccuracyWarning
_SERIES_MAX_TERMS = 1 << 14
_SERIES_REACH = 4.0  # |Im lambda| tanh t where phi's series has lost two digits
_Q_CONDITION = 1e3  # Q's series conditioned worse than this at log 2: a bridge first
_MAX_CONDITION = 1e8  # phi's c Q sum and c's pairings: resolved to 1e-8 at 1e-16 rounding
_Q_BRIDGE_ENDS = [T_SWITCH * k / 64 for k in range(63, 0, -1)]  # where Q's bridge may end

_MAX_EXPONENT = 700.0  # a solution growing past e^700 leaves the floating-point range
_MAX_PHASE = 1e5  # radians max |lambda| |t1 - t0| of a solve or its growth: 25,000 steps


def _power_sums(rows, x, n):
    """Each row's product with the powers x^n: at a float x a list of one
    complex sum per row, at a 1-d array x one array per row (its real and
    imaginary parts each one real matrix product)."""
    if isinstance(x, np.ndarray):
        powers = (x[:, None] ** n).T
        return rows.real @ powers + 1j * (rows.imag @ powers)
    return (rows @ x ** n).tolist()


def _checked(read, lam, t):
    """read(t) = (u, u') of the solution of lambda at a float t or a 1-d
    array of t; OutOfRangeError where u is not finite, or a float read
    raises OverflowError.  Only an array read enters np.errstate."""
    if isinstance(t, np.ndarray):
        with np.errstate(all="ignore"):
            u, du = read(t)
        finite = np.isfinite(u)
        if finite.all():
            return u, du
        t = t[~finite][0]
    else:
        try:
            u, du = read(t)
        except OverflowError:
            u = math.inf
        if cmath.isfinite(u):
            return u, du
    raise _overflow(lam, t)


def _overflow(lam, t):
    return OutOfRangeError(f"the radial solution at lambda = {lam} overflows the "
                           f"floating-point range at t = {t}")


def _read(t, parts):
    """(u, u') at the 1-d array t from its (mask, read) parts: each read
    takes the t of its mask at once, and an empty mask reads nothing."""
    counts = [np.count_nonzero(mask) for mask, _ in parts]
    if len(t) in counts:  # one part holds every t
        return parts[counts.index(len(t))][1](t)
    u, du = np.empty((2, len(t)), dtype=complex)
    for (mask, read), count in zip(parts, counts):
        if count:
            u[mask], du[mask] = read(t[mask])
    return u, du


def _lambdas(lam):
    """(list of complex lambdas, whether lam was a sequence)."""
    if np.ndim(lam) == 0:
        return [as_complex("lambda", lam)], False
    if len(lam) == 0:
        raise ValueError("need at least one lambda")
    return [as_complex("lambda", x) for x in lam], True


def _spaces(space, count):
    """One space per lambda: ``space`` repeated, or the sequence it is."""
    if isinstance(space, RankOneSpace):
        return [space] * count
    spaces = list(space)
    if len(spaces) != count:
        raise ValueError(f"need one space per lambda, got {len(spaces)} for {count}")
    return spaces


def _check_exponent(lam, step=1):
    """Refuse 2*lambda (lam a gated complex) within EXCLUSION_RADIUS of a
    negative multiple of ``step``: 2 where frobenius_Q divides by zero, 1
    (every negative integer) for eval_Q and connection_coefficients."""
    w = 2.0 * lam
    if not cmath.isfinite(w):
        raise OutOfRangeError(f"2*lambda at lambda = {lam} passes the floating-point range")
    m = step * round(w.real / step)
    if m <= -1 and abs(w - m) <= EXCLUSION_RADIUS:
        raise ResonantExponentError(
            f"2*lambda = {w} is within {EXCLUSION_RADIUS} of {m}, where the "
            "exponents rho +- lambda of Q differ by an integer"
        )


# -- Frobenius solution Q ----------------------------------------------------


@dataclass(frozen=True, eq=False)
class FrobeniusSeries:
    """Power-series data of Q_lambda(t) = y^exponent * sum_nu h_nu y^nu.

    The odd h_nu vanish identically: ``rows`` holds h_nu and nu h_nu for
    the even nu, one column each, with h_0 = 1, and the truncation
    satisfies the tail bound |h_N| * _Y_MAX^N below the construction
    tolerance times the sum of the |h_nu| _Y_MAX^nu.
    """

    exponent: complex
    rows: np.ndarray

    @property
    def truncation(self):
        """N, the last power of y summed."""
        return 2 * (self.rows.shape[1] - 1)

    def series_sums(self, y):
        """(h(y), y h'(y)) at y with |y| <= _Y_MAX, a float (two complex
        numbers) or a 1-d array (two arrays), every stored coefficient
        summed by one product with the powers of y^2."""
        size = abs(y).max(initial=0.0) if isinstance(y, np.ndarray) else abs(y)
        if size > _Y_MAX * (1.0 + 1e-12):
            raise ValueError(f"series evaluated at y={y} outside radius {_Y_MAX}")
        return tuple(_power_sums(self.rows, y * y, np.arange(self.rows.shape[1])))

    def pair(self, t, m=0):
        """(Q(t), dQ/dt) for t >= log 2, a float or a 1-d array (two arrays),
        or at m > 0 those of (2 sinh t)^m Q = y^(exponent-m) (1-y^2)^m h(y),
        a K-type's; inf, or OverflowError, where a factor overflows."""
        a = self.exponent - m
        exp, cexp = (np.exp, np.exp) if isinstance(t, np.ndarray) else (math.exp, cmath.exp)
        y, head = exp(-t), cexp(-a * t)
        s, ds = self.series_sums(y)
        if m:
            w = 1.0 - y * y
            head = head * w ** (m - 1)
            return head * w * s, -head * ((a * w - 2.0 * m * y * y) * s + w * ds)
        return head * s, -head * (a * s + ds)


def frobenius_Q(space, lam):
    """The FrobeniusSeries of Q_lambda, truncated after two terms
    |h_nu| 2^-nu below _FROBENIUS_TOL of the sum of the |h_j| 2^-j so far
    (relative, since on a large family h(1/2) itself is huge).

    The recursion divides by nu (nu + 2 lambda) for even nu only, so it
    raises ResonantExponentError where 2*lambda is within 1e-6 of a
    negative even integer (lambda = -1, -2, ...) and runs at an odd one.
    OutOfRangeError at the first coefficient that leaves the float range
    (a large multiplicity: hn:1000).
    """
    lam = as_complex("lambda", lam)
    _check_exponent(lam, step=2)
    e = space.rho + lam
    # b(t) - 2 rho = sum_{k even >= 2} b_k y^k, b_k = 2 m_alpha + 4 m_2alpha [4 | k],
    # so with j = nu - k the source sum_k b_k (e+nu-k) h_{nu-k} is 2 m_alpha
    # times the sum of (e+j) h_j over even j < nu, plus 4 m_2alpha times the
    # same sum over j = nu mod 4: running sums, one term added per step
    m_a, m_2a = 2.0 * space.m_alpha, 4.0 * space.m_2alpha
    every = e  # sum of (e+j) h_j over even j < nu
    by_residue = [e, 0j]  # ... over j = 0 and j = 2 mod 4
    h = [1.0 + 0j]  # the even coefficients
    size = 1.0  # sum of |h_j| 2^-j over the terms so far
    quiet = 0
    nu = 0
    while quiet < 2 and nu + 2 <= _FROBENIUS_MAX_TERMS:
        nu += 2
        side = nu % 4 // 2
        h_nu = (m_a * every + m_2a * by_residue[side]) / (nu * (nu + 2.0 * lam))
        if not cmath.isfinite(h_nu):
            raise OutOfRangeError(f"Frobenius coefficient h_{nu} of Q_lambda on {space} "
                                  f"leaves the floating-point range (lambda={lam})")
        term = (e + nu) * h_nu
        every += term
        by_residue[side] += term
        h.append(h_nu)
        tail = abs(h_nu) * _Y_MAX**nu
        size += tail
        if nu >= 8 and tail < _FROBENIUS_TOL * size:
            quiet += 1
        else:
            quiet = 0
    if quiet < 2:
        warnings.warn(
            f"Frobenius tail still {tail / size:.2e} of the sum after {nu} terms "
            f"(lambda={lam})",
            AccuracyWarning,
        )
    h = np.array(h)
    return FrobeniusSeries(
        exponent=e,
        rows=np.array([h, 2.0 * np.arange(len(h)) * h]),
    )


@lru_cache(maxsize=512)
def _series(space, lam):
    return frobenius_Q(space, lam)


# -- generic ODE continuation ------------------------------------------------


@dataclass
class RadialSolution:
    """A solved radial eigenfunction on [t_lo, t_hi].

    ``at(t)`` returns (value, derivative), read by ``_eval`` (a
    Continuation, or any callable); ``ts`` records the steps the integrator
    certified, where ``residual`` checks the ODE.
    """

    space: RankOneSpace
    lam: complex
    t_lo: float
    t_hi: float
    _eval: object = field(repr=False)
    ts: np.ndarray = field(default=None, repr=False)

    def at(self, t):
        t = as_float("t", t)
        if not (self.t_lo - 1e-12 <= t <= self.t_hi + 1e-12):
            raise ValueError(
                f"t={t} outside solved range [{self.t_lo}, {self.t_hi}]"
            )
        u, v = self._eval(t)
        return complex(u), complex(v)

    def __call__(self, t):
        return self.at(t)[0]

    def residual(self):
        """Max ODE defect |u'' + b u' + (rho^2-lam^2)u| over ``ts`` (or 7 points).

        u'' is taken by central differences of the stored derivative, so this
        is a genuine consistency check on the integrator output, good to
        roughly h^2 * |u'''|, h = 1e-4.
        """
        ts = self.ts if self.ts is not None else np.linspace(self.t_lo, self.t_hi, 7)
        worst = 0.0
        k2 = self.space.rho**2 - self.lam**2
        for t in np.atleast_1d(ts):
            t = float(t)
            hh = min(1e-4, 0.25 * (t - self.t_lo), 0.25 * (self.t_hi - t))
            if hh <= 0.0:
                continue
            u, v = self.at(t)
            vp = self.at(t + hh)[1]
            vm = self.at(t - hh)[1]
            upp = (vp - vm) / (2.0 * hh)
            defect = upp + self.space.log_density_dot(t) * v + k2 * u
            worst = max(worst, abs(defect))
        return worst


# Taylor steps.  A step is at most _REACH of its distance t0 from b's pole
# at t = 0, so b's terms fall at least like _REACH^j; toward 0 Q's own pole
# t^-(m_alpha + m_2alpha - 1) adds a power of j, hence the shorter reach
# there.  |lambda| h, and e h over the step, e = b - 2 rho, are at most
# _TURN, so that the terms of e^(+-lambda s) and of the ODE's fast mode
# e^(-e s) cancel by at most about e^_TURN; near 0 e is about
# (m_alpha + m_2alpha) / t, which also keeps a step within about
# _TURN t0 / (m_alpha + m_2alpha) of Q's pole of nearly that order.
_REACH = (0.5, 0.4)  # forward, backward
_TURN = 4.0
_TAIL = 1e-17  # a step's terms end after two below this, each column scaled to 1,
_MAX_TERMS = 120  # ... or the solve fails here with StiffnessError


def _coth_minus_one(t):
    """(coth t - 1, coth 2t - 1), without cancellation at large t."""
    q = math.exp(-2.0 * t)
    return 2.0 * q / -math.expm1(-2.0 * t), 2.0 * q * q / -math.expm1(-4.0 * t)


def _fast_step(ode, t):
    """_TURN / max e(t) over the columns, e = m_alpha (coth t - 1)
    + 2 m_2alpha (coth 2t - 1)."""
    e, f = _coth_minus_one(t)
    rate = float((ode[0] * e + 2.0 * ode[1] * f).max())
    return _TURN / rate if rate else math.inf


def _shift(ode):
    """sigma = rho - |Re lambda| per column: w = e^(sigma s) u has the modes
    e^((-|Re lambda| +- lambda) s) at large t, one of modulus 1."""
    return ode[2] - np.abs(ode[3].real)


def _step_terms(ode, t0, h, start):
    """The terms A_n = w_n h^n of w(t0 + h x) = sum_n A_n x^n, one row per
    n and one column per lambda, from A_0 and A_1 in ``start``.

    With e = b - 2 rho = m_alpha (coth t - 1) + 2 m_2alpha (coth 2t - 1),
    d = |Re lambda| and sigma = rho - d, w = e^(sigma s) u solves
    w'' + e (w' - sigma w) + 2 d w' + (d^2 - lambda^2) w = 0 in s = t - t0.
    The terms of coth t - 1 at t0 follow from the Riccati equation
    (coth - 1)' = -2 (coth - 1) - (coth - 1)^2, those of coth 2t - 1 from
    its twin, and those of w from the ODE.  StiffnessError where the terms
    turn non-finite, or have not fallen below _TAIL within _MAX_TERMS.
    """
    m_a, m_2a, _, lam = ode
    d = np.abs(lam.real)
    A = np.empty((_MAX_TERMS, len(lam)), dtype=complex)
    Z = np.empty_like(A)  # (k + 1) A_(k+1) - sigma h A_k, the terms of h (w' - sigma w)
    Zr = Z.view(float)
    e0, f0 = _coth_minus_one(t0)
    E, F = [e0], [f0]
    EF = np.empty((2, _MAX_TERMS))
    EF[:, 0] = e0, f0
    A[0], A[1] = start
    hm_a, hm_2a, sigma_h = h * m_a, 2.0 * h * m_2a, _shift(ode) * h
    d_h, k_h2 = 2.0 * d * h, (lam * lam - d * d) * (h * h)
    quiet = 0
    for n in range(_MAX_TERMS - 2):
        if n:
            E.append(-h * (2.0 * E[-1] + sum(map(mul, E, reversed(E)))) / n)
            F.append(-2.0 * h * (2.0 * F[-1] + sum(map(mul, F, reversed(F)))) / n)
            EF[:, n] = E[n], F[n]
        V = (n + 1) * A[n + 1]
        Z[n] = V - sigma_h * A[n]
        # the n-th terms of h (E, F) (w' - sigma w), every column in one real product
        conv = (EF[:, n::-1] @ Zr[:n + 1]).view(complex)
        A[n + 2] = (k_h2 * A[n] - d_h * V - hm_a * conv[0] - hm_2a * conv[1]) / ((n + 1) * (n + 2))
        size = np.abs(A[n + 2]).max()
        if size <= _TAIL:
            quiet += 1
            if quiet == 2:
                return A[:n + 3].copy()  # not a view that keeps all _MAX_TERMS rows
        elif not math.isfinite(size):
            raise StiffnessError(f"the radial ODE's Taylor terms at t = {t0} turn non-finite")
        else:
            quiet = 0
    raise StiffnessError(f"the radial ODE's Taylor terms at t = {t0} do not settle "
                         f"within {_MAX_TERMS} terms (step {h})")


class _TaylorSteps:
    """A Taylor solve of the radial ODE: ``t`` holds the step ends, ``nfev``
    the terms the steps formed (one per order and step, every column at
    once), ``y`` the state at the last end, (u, u', exponent) with u and u'
    scaled by 2^-exponent, and ``self(t)`` is (u, u') of every column at t,
    from the polynomial of the step t lies in (at a step end, the step that
    ends there).  A step keeps t0, h, its terms and each column's scale, a
    power of two.  ``join`` grows it in place; a read between the old ends
    keeps its step.
    """

    def __init__(self, ode, t, nfev, steps, y):
        self.ode, self.t, self.nfev, self.y = ode, t, nfev, y
        self._steps = steps
        self._sign = 1.0 if t[-1] > t[0] else -1.0
        self._keys = (self._sign * t).tolist()
        self._reads = {}  # the last 32 t: a batch's columns share one read per t

    def __call__(self, t):
        k = min(max(bisect_left(self._keys, self._sign * t) - 1, 0), len(self._steps) - 1)
        t0, h, terms, exponent = self._steps[k]
        n = np.arange(len(terms))
        powers = ((t - t0) / h) ** n
        w, dw = powers @ terms, (n[1:] * powers[:-1]) @ terms[1:] / h
        sigma = _shift(self.ode)
        with np.errstate(over="ignore", invalid="ignore"):  # inf or nan, for _checked
            f = np.ldexp(np.exp(-sigma * (t - t0)), exponent)
            return f * w, f * (dw - sigma * w)

    def read(self, t):
        """(u, u') of every column at t, kept for the last 32 t."""
        if t not in self._reads:
            self._reads[t] = self(t)
            if len(self._reads) > 32:
                del self._reads[next(iter(self._reads))]
        return self._reads[t]

    def column(self, i, t):
        """(u, u') of column i at t."""
        u, du = self.read(t)
        return u[i], du[i]

    def join(self, more):
        """Append ``more``, the solve continued from this one's ``y``."""
        self.t, self.y = np.concatenate((self.t, more.t[1:])), more.y
        self.nfev += more.nfev
        self._steps += more._steps
        self._keys += more._keys[1:]


def solve_ivp(ode, t_span, y0):
    """Continue the radial ODE from t0 by Taylor steps until a step ends
    past t1, t_span = (t0, t1) both positive and distinct, for every column
    of ``ode`` = (m_alpha, m_2alpha, rho, lambda) at once; returns the
    _TaylorSteps.  y0 = (u, u', exponent) is the state at t0, (u, u') times
    2^exponent, as a solve leaves it in its ``y``.

    Each step is as long as _REACH of its distance from t = 0, _TURN /
    max |lambda| and _TURN / max e over the step allow, and no step is
    shortened to end at t1: the steps depend on the start alone, so a solve
    continued from another's ``y`` takes the steps, and gives the values,
    of one solve.  Each column is scaled by a power of two to max(|A_0|,
    |A_1|) in [1/2, 1) at each step's start, so that the scaling is exact
    and a column that underflows or overflows does not disturb the others.
    StiffnessError where a step's terms do not settle or turn non-finite.
    OutOfRangeError where max |lambda| |t1 - t0| passes _MAX_PHASE: a step is
    at most _TURN / |lambda| long, so the step count grows with it.
    """
    t0, t1 = t_span
    speeds = np.abs(ode[3])
    fastest = float(speeds.max())
    if fastest * abs(t1 - t0) > _MAX_PHASE:
        lam = complex(ode[3][speeds.argmax()])
        raise OutOfRangeError(f"the radial ODE at lambda = {lam} would turn through more "
                              f"than {_MAX_PHASE:g} radians between t = {t0} and t = {t1}")
    u, du = (np.array(x, dtype=complex) for x in y0[:2])
    exponent = np.zeros(len(u), dtype=int) + y0[2]
    sigma = _shift(ode)
    sign = 1.0 if t1 > t0 else -1.0
    reach = _REACH[t1 < t0]
    turn = _TURN / fastest if fastest else math.inf
    t, ends, steps, nfev = t0, [t0], [], 0
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite terms raise
        while (t1 - t) * sign >= 0.0:
            h = min(reach * t, turn, _fast_step(ode, t))
            h = min(h, _fast_step(ode, t - h))  # e is largest at the step's lower end
            end = t + sign * h
            h = end - t
            a0, a1 = u, h * (du + sigma * u)
            k = np.frexp(np.maximum(np.abs(a0), np.abs(a1)))[1]
            exponent = exponent + k
            terms = _step_terms(ode, t, h, (np.ldexp(1.0, -k) * a0, np.ldexp(1.0, -k) * a1))
            nfev += len(terms)
            steps.append((t, h, terms, exponent))
            decay = np.exp(-sigma * h)
            w = terms.sum(axis=0)
            u, du = decay * w, decay * (np.arange(len(terms)) @ terms / h - sigma * w)
            t = end
            ends.append(t)
    return _TaylorSteps(ode, np.array(ends), nfev, steps, (u, du, exponent))


def _ode(spaces, lams):
    """The ODE's per-column coefficients (m_alpha, m_2alpha, rho, lambda)."""
    return (np.array([float(s.m_alpha) for s in spaces]),
            np.array([float(s.m_2alpha) for s in spaces]),
            np.array([s.rho for s in spaces]),
            np.array(lams))


def integrate_radial_ode(space, lams, t_span, inits):
    """Continue (u, u') of the radial ODE across t_span = (t0, t1) for each
    lambda in ``lams``, starting from the matching (u, u') in ``inits``.

    ``space`` is one space, or one per lambda: the ODE's coefficients are
    per-column arrays, so lambdas of different spaces share one solve_ivp
    and its steps.  The returned list holds one RadialSolution per lambda,
    each reading its column of the steps, which are read once per t for the
    whole batch.  t_span may be decreasing (backward continuation toward
    the singular endpoint), its ends positive, finite and distinct, and
    every lambda finite; OutOfRangeError where max |lambda| |t1 - t0|
    passes _MAX_PHASE (``solve_ivp``).
    """
    t0, t1 = as_float("t", t_span[0]), as_float("t", t_span[1])
    if min(t0, t1) <= 0.0:
        raise ValueError("t_span must stay inside (0, inf)")
    if t0 == t1:
        raise ValueError("t_span must have two distinct ends")
    lams = [as_complex("lambda", lam) for lam in lams]
    count = len(lams)
    if count == 0 or len(inits) != count:
        raise ValueError("need one initial (u, u') pair per lambda, at least one")
    spaces = _spaces(space, count)
    sol = solve_ivp(_ode(spaces, lams), (t0, t1),
                    ([u for u, _ in inits], [v for _, v in inits], 0))
    return [RadialSolution(s, lam, min(t0, t1), max(t0, t1),
                           partial(_checked, partial(sol.column, i), lam), sol.t)
            for i, (s, lam) in enumerate(zip(spaces, lams))]


# -- stitched solutions and their cache --------------------------------------


class Continuation:
    """One radial solution of (space, lambda): the series ``start`` up to
    ``switch``, a Taylor bridge on to ``end`` (``switch`` itself where the
    series meet, sign * inf where ``beyond`` is None), the series ``beyond``
    past it; ``sign`` is +1 forward, -1 backward.  The bridge is column
    ``column`` of one solve, ``steps``, made at the first read past the
    switch and grown in place to the first step end past each later t that
    lies beyond it, so a value depends on t alone, not on request order.  A
    forward bridge leaves the float range past ``limit``, where the growth
    e^((|Re lambda| - rho) t) of every radial solution passes e^_MAX_EXPONENT.
    """

    def __init__(self, space, lam, start, switch, end, sign, beyond):
        self.space, self.lam = space, lam
        self.start, self.switch, self.end, self.sign = start, switch, end, sign
        self.beyond = beyond
        self.steps = self.column = None
        growth = abs(lam.real) - space.rho
        self.limit = _MAX_EXPONENT / growth if growth > 0.0 and sign > 0.0 else math.inf

    def pair(self, t):
        """(u(t), u'(t)), growing the solve if t lies on the bridge beyond
        its last step end; _extend refuses t past ``limit``, whatever was
        read before, solve_ivp a growth past _MAX_PHASE, and ``_checked`` a
        u past the float range.  At a 1-d array of t (two arrays) each series
        reads its t in one pass and the bridge reads its t one at a time."""
        return _checked(self._pair, self.lam, t)

    def _pair(self, t):
        sign = self.sign
        if isinstance(t, np.ndarray):
            start, beyond = (t - self.switch) * sign <= 0.0, (t - self.end) * sign > 0.0
            return _read(t, ((start, self.start.pair),
                             (beyond, lambda ts: self.beyond.pair(ts)),
                             (~(start | beyond),
                              lambda ts: np.array([self._pair(x) for x in ts.tolist()]).T)))
        if (t - self.switch) * sign <= 0.0:
            return self.start.pair(t)
        if (t - self.end) * sign > 0.0:
            return self.beyond.pair(t)
        return self.bridge(t).column(self.column, t)

    __call__ = pair

    def bridge(self, t):
        """The bridge's solve, grown first if t lies beyond its last step end."""
        if self.steps is None or (t - self.steps.t[-1]) * self.sign > 0.0 or t > self.limit:
            _extend([self], t)
        return self.steps

    def view(self, t_lo, t_hi, ts=None):
        """A RadialSolution on [t_lo, t_hi] reading this continuation."""
        return RadialSolution(self.space, self.lam, t_lo, t_hi, self, ts)


def _extend(conts, end):
    """Carry the bridge of continuations past ``end`` by one solve_ivp call:
    where they have no solve yet (they share a switch, and may be of
    several spaces), one solve of them all from their start at the switch;
    else a growth of the solve they share.  OutOfRangeError where ``end``
    passes the ``limit`` of a member, in its own space.
    """
    nearest = min(conts, key=lambda c: c.limit)
    if end > nearest.limit:
        raise OutOfRangeError(f"the radial solution at lambda = {nearest.lam} leaves "
                              f"the floating-point range before t = {end}")
    steps, switch = conts[0].steps, conts[0].switch
    if steps is not None:
        return steps.join(solve_ivp(steps.ode, (float(steps.t[-1]), end), steps.y))
    sol = solve_ivp(_ode([c.space for c in conts], [c.lam for c in conts]), (switch, end),
                    (*zip(*(c.pair(switch) for c in conts)), 0))
    for i, cont in enumerate(conts):
        cont.steps, cont.column = sol, i


@lru_cache(maxsize=512)
def continuation(space, lam, kind):
    """The one cache of radial solutions: the Continuation of (space,
    lambda) made from kind(space, lam) = (start, switch, end, sign, beyond)."""
    return Continuation(space, lam, *kind(space, lam))


# -- the two distinguished solutions ----------------------------------------


def _jacobi_abc(space, lam):
    """(a, b, alpha + 1): phi is cosh(t)^-(rho+lambda) 2F1(a, b; alpha+1; tanh^2 t)."""
    return ((space.rho + lam) / 2.0, (0.5 * space.m_alpha + 1.0 + lam) / 2.0,
            (space.m_alpha + space.m_2alpha + 1) / 2.0)


_N = np.arange(_SERIES_MAX_TERMS, dtype=float)
_LOG_WEIGHT = 1.0 + np.log(_N + 1.0)  # 1 + log(n+1), the growth of Q's psi weights


def _hyp_coefficients(a, b, c, w, size):
    """The terms (a)_n (b)_n / ((c)_n n!) w^n of 2F1(a, b; c; w), real c,
    made by the term ratio: ``size`` of them, or fewer, up to the first that
    is falling and below _SERIES_TOL of the largest (weighted by 1 +
    log(n+1), the growth of Q's psi weights).  OverflowError where a term
    overflows, or where _SERIES_MAX_TERMS terms have not settled.

    The terms come in chunks, the cut found over a chunk at once.  The
    first chunk is about as long as terms falling at the rate w take to
    drop 20 decades, each next one twice the last.  A chunk's ratios are formed
    by numpy in real arithmetic, each rounded as the complex operations of
    the term-by-term recurrence round them, and multiplied into the running
    term by Python's complex product, so every term is the recurrence's
    bit for bit (signed zeros aside).
    """
    a, b, c = complex(a) - 1.0, complex(b) - 1.0, float(c) - 1.0
    ab = a.imag * b.imag
    chunks, peak = [np.ones(1, dtype=complex)], 1.0
    start = 1
    length = 16 + (int(50.0 / -math.log(w)) if 0.0 < w < 0.99 else 0)
    with np.errstate(over="ignore", invalid="ignore"):
        while start < size:
            end = min(start + length, size)
            n = _N[start:end]
            re_a, re_b, den = n + a.real, n + b.real, (n + c) * n
            ratios = np.empty(end - start, dtype=complex)
            ratios.real = (re_a * re_b - ab) / den * w
            ratios.imag = (re_a * b.imag + a.imag * re_b) / den * w
            # the chunk's terms after the last one so far, terms[0], whose
            # weighted modulus mags[0] the first term's fall is measured from
            terms = np.fromiter(accumulate(ratios.tolist(), mul, initial=complex(chunks[-1][-1])),
                                complex, end - start + 1)
            mags = np.abs(terms) * _LOG_WEIGHT[start - 1:end]
            # cut after the first term that is falling and below
            # _SERIES_TOL of the largest before it
            before = np.maximum(np.maximum.accumulate(mags[:-1]), peak)
            cut = (mags[1:] < _SERIES_TOL * before) & (mags[1:] < mags[:-1])
            first = int(cut.argmax())
            stop = first + 1 if cut[first] else end - start
            if not mags[1:stop + 1].max() < math.inf:
                bad = start + int(np.argmin(mags[1:] < math.inf))
                raise OverflowError(f"2F1 at w = {w} overflows at term {bad}")
            chunks.append(terms[1:stop + 1])
            if cut[first]:
                break
            peak = max(before[-1], mags[-1])
            start, length = end, 2 * length
        else:
            if size >= _SERIES_MAX_TERMS:
                raise OverflowError(f"2F1 at w = {w} needs more than {size} terms")
    return np.concatenate(chunks)


class _TanhSeries:
    """A radial solution summed in w = tanh(t)^2: ``pair(t)`` = (u, u') for
    0 <= t <= reach,

        u = (scale cosh t)^-(rho+lambda) (w^shift S_0(w) + S_1(w) + log(w) S_2(w)).

    ``rows`` holds, for each S_k present, the terms s_n w_reach^n and those
    of its w d/dw (w_reach = tanh(reach)^2), so S_k(w) is the product of
    the row with (w / w_reach)^n.  Every read sums every stored term, so a
    value depends on t alone.  OverflowError at construction where a row's
    moduli do not sum in floating point: then no read's sums overflow.
    """

    def __init__(self, e, scale, reach, shift, rows):
        self.e, self.scale, self.reach, self.shift = e, scale, reach, shift
        self.tanh_reach = math.tanh(reach)
        self.rows = rows
        self._n = np.arange(rows.shape[1])
        with np.errstate(over="ignore", invalid="ignore"):
            moduli = np.abs(rows).sum(axis=1)
        if not np.isfinite(moduli).all():
            raise OverflowError(f"the series of exponent {e} overflows before t = {reach}")

    def _factors(self, tanh):
        """What multiplies S_0, S_1, S_2 at t: w^shift, 1, log w."""
        factors = [tanh ** (2.0 * self.shift)]
        if len(self.rows) > 2:
            factors.append(1.0)
        if len(self.rows) > 4:
            factors.append(2.0 * (np.log if isinstance(tanh, np.ndarray) else math.log)(tanh))
        return factors

    def _sums(self, tanh):
        """(S(w), w S'(w)) at tanh = tanh(t), a float or a 1-d array; w^shift
        is taken through tanh(t), which stays positive where w underflows (t
        below 1e-162).  OverflowError when a float w^shift overflows."""
        sums = _power_sums(self.rows, (tanh / self.tanh_reach) ** 2, self._n)
        s = ws = 0j
        for factor, x, wx in zip(self._factors(tanh), sums[::2], sums[1::2]):
            s += factor * x
            ws += factor * wx
        return s, ws

    def condition(self, t):
        """The sum of the parts' moduli over the modulus of the sum at t: the
        factor by which rounding in the terms grows in the value (inf where
        w^shift overflows)."""
        tanh = math.tanh(t)
        powers = ((tanh / self.tanh_reach) ** 2) ** self._n
        try:
            factors = np.array(self._factors(tanh))
        except OverflowError:
            return math.inf
        value = abs(factors @ (self.rows[::2] @ powers))
        parts = float(np.abs(factors) @ (np.abs(self.rows[::2]) @ powers))
        return parts / value if value else math.inf

    def pair(self, t):
        """(u(t), u'(t)) at t, a float or a 1-d array (two arrays); inf,
        nan or OverflowError past the float range (``_checked``)."""
        if isinstance(t, np.ndarray):
            tanh = np.tanh(t)
            s, ws = self._sums(tanh)
            head = np.exp(-self.e * np.log(self.scale * np.cosh(t)))
            u = head * s
            du = -self.e * tanh * u + np.where(t > 0.0, head * 4.0 * ws / np.sinh(2.0 * t), 0.0)
            return u, du
        tanh = math.tanh(t)
        s, ws = self._sums(tanh)
        head = cmath.exp(-self.e * math.log(self.scale * math.cosh(t)))
        u = complex(head * s)
        du = -self.e * tanh * u
        if t:
            du += head * 4.0 * ws / math.sinh(2.0 * t)
        return u, complex(du)


def _jacobi_series(space, lam):
    """phi = cosh(t)^-(rho+lambda) 2F1(a, b; alpha+1; tanh(t)^2), the Pfaff
    form of the Jacobi function (alpha = (m_alpha+m_2alpha-1)/2, beta =
    (m_2alpha-1)/2, a = (rho+lambda)/2, b = (alpha-beta+1+lambda)/2), for t
    up to T_PHI, or where |Im lambda| tanh(t) passes _SERIES_REACH (the
    terms outgrow the sum by about |Im lambda| tanh(t) / 2 decades), or
    half that, /4, ... where a |lambda| in the hundreds overflows the terms."""
    a, b, c = _jacobi_abc(space, lam)
    mu = abs(lam.imag)
    reach = T_PHI if mu * math.tanh(T_PHI) <= _SERIES_REACH else math.atanh(_SERIES_REACH / mu)
    while True:
        w = math.tanh(reach) ** 2
        try:
            f = _hyp_coefficients(a, b, c, w, _SERIES_MAX_TERMS)
            return _TanhSeries(space.rho + lam, 1.0, reach, 0.0,
                               np.array([f, np.arange(len(f)) * f]))
        except OverflowError:
            if not w:
                raise OutOfRangeError(f"the series of phi at lambda = {lam} overflows the "
                                      "floating-point range at every t > 0") from None
            reach /= 2.0


def _gamma_quotient(num, den):
    """prod Gamma(num) / prod Gamma(den), summed in log space; 0 if an
    argument of the denominator is a pole."""
    if any(x.imag == 0.0 and x.real <= 0.0 and x.real == round(x.real) for x in den):
        return 0j
    return cmath.exp(complex(loggamma(np.array(num, dtype=complex)).sum()
                             - loggamma(np.array(den, dtype=complex)).sum()))


def _second_kind_series(space, lam):
    """Q below log 2, where its Frobenius series no longer converges.

    Q = (2 cosh t)^-(rho+lambda) 2F1(a, b; c; cosh(t)^-2) with a and b as for
    phi and c = 1 + lambda, so that c - a - b = -alpha.  Connected to z = 1
    (A&S 15.3.6 and 15.3.11, DLMF 15.8) it is summed in w = tanh(t)^2:

    * alpha not an integer: A F(a, b; alpha+1; w) + B w^-alpha
      F(c-a, c-b; 1-alpha; w), with A = G(c) G(-alpha) / (G(c-a) G(c-b))
      and B = G(c) G(alpha) / (G(a) G(b));
    * alpha = m an integer: the first m terms of the B part, plus
      L sum_n f_n w^n (log w + psi(a+n) + psi(b+n) - psi(n+1) - psi(n+m+1)),
      f_n the coefficients of F(a, b; m+1; w), phi's series, and
      L = -(-1)^m G(c) / (m! G(c-a) G(c-b)).

    The prefactors and psi weights (from psi(x+1) = psi(x) + 1/x) are folded
    into the rows of a _TanhSeries: the B part, the A part (or the log
    series' psi-weighted part), and for an integer alpha the log series.
    OverflowError where the prefactors or terms overflow.
    """
    a, b, c1 = _jacobi_abc(space, lam)
    c, alpha = 1.0 + lam, c1 - 1.0
    m = round(alpha)
    w = math.tanh(T_SWITCH) ** 2
    f = _hyp_coefficients(a, b, c1, w, _SERIES_MAX_TERMS)
    if alpha != m:
        second = (_hyp_coefficients(c - a, c - b, 1.0 - alpha, w, _SERIES_MAX_TERMS)
                  * _gamma_quotient([alpha, c], [a, b]))
    elif m:
        second = _hyp_coefficients(c - a, c - b, 1.0 - m, w, m) * _gamma_quotient([m, c], [a, b])
    else:
        second = np.zeros(0)
    n = np.arange(max(len(f), len(second)))
    f, second = (np.concatenate((x, np.zeros(len(n) - len(x)))) for x in (f, second))
    with np.errstate(over="ignore", invalid="ignore"):
        if alpha == m:
            f = f * (-(-1) ** m / math.factorial(m) * _gamma_quotient([c], [c - a, c - b]))
            k = n[:-1]

            def psi_run(x):
                return psi(complex(x)) + np.concatenate(([0.0], np.cumsum(1.0 / (x + k))))

            g = psi_run(a) + psi_run(b) - psi_run(1.0) - psi_run(m + 1.0)
            rows = [second, (n - m) * second, f * g, n * f * g + f, f, n * f]
        else:
            f = f * _gamma_quotient([-alpha, c], [c - a, c - b])
            rows = [second, (n - alpha) * second, f, n * f]
    return _TanhSeries(space.rho + lam, 2.0, T_SWITCH, -alpha, np.array(rows))


@dataclass(frozen=True)
class _CQ:
    """phi past its switch, c(lambda) Q_{-lambda} + c(-lambda) Q_lambda, the
    library's one c Q sum, at a float t or a 1-d array: both c values and
    both Frobenius series are made at the first read."""

    space: RankOneSpace
    lam: complex

    @cached_property
    def terms(self):
        """(c(lambda), c(-lambda), Q_-lambda's and Q_lambda's Frobenius series)."""
        cf = for_space(self.space)
        return (cf.value(self.lam), cf.value(-self.lam),
                _series(self.space, -self.lam), _series(self.space, self.lam))

    def pair(self, t, m=0):
        """(u, u') at t, or at m > 0 those of (2 sinh t)^m u, a K-type's.
        IllConditionedError where the terms' moduli pass _MAX_CONDITION
        times the sum's, that ratio its condition (an array's first such t)."""
        cp, cm, q_minus, q_plus = self.terms
        (qm, dqm), (qp, dqp) = q_minus.pair(t, m), q_plus.pair(t, m)
        a, b = cp * qm, cm * qp
        u = a + b
        parts, size = abs(a) + abs(b), abs(u)  # Python's abs at a float t
        refused = parts > _MAX_CONDITION * size
        if isinstance(t, np.ndarray):  # the first refused t, else the first t
            k = int(refused.argmax())
            t, parts, size, refused = t[k], parts[k], size[k], refused[k]
        if refused:
            condition = float(parts / size) if size else math.inf
            raise IllConditionedError(f"c Q_-lambda + c Q_lambda at lambda = {self.lam} cancels "
                                      f"by {condition:.1e} at t = {t}", condition=condition)
        return u, cp * dqm + cm * dqp


def _phi_series(space, lam):
    """phi: the Jacobi series up to a switch, the forward bridge to T_PHI,
    c Q_{-lambda} + c Q_lambda beyond.  The switch is T_PHI (no bridge), or
    earlier where |Im lambda| tanh(t) reaches _SERIES_REACH and the series
    cancels.  Near the lattice the two c Q terms have poles that cancel (and
    at a negative integer frobenius_Q refuses Q_lambda): the bridge has no end.
    """
    series = _jacobi_series(space, lam)
    if abs(lam - round(lam.real)) < LATTICE_GUARD:
        return series, series.reach, math.inf, 1.0, None
    return series, series.reach, T_PHI, 1.0, _CQ(space, lam)


def _q_second_kind(space, lam):
    """Q: the Frobenius series from log 2 up, a backward bridge, the
    second-kind series below (the bridge has no end where it overflows).
    The bridge ends at log 2 where the series' condition there is at most
    _Q_CONDITION; else at 0 for Re lambda > 0, where the series' rounding,
    condition(t) 2e-15, never falls to the ODE's 1e-15 (a condition is at
    least 1), and for Re lambda <= 0 at the largest of _Q_BRIDGE_ENDS where
    condition(t) 1e-16 <= 1e-15 e^(-2 Re lambda (log 2 - t)), or at 0."""
    frobenius = _series(space, lam)  # refuses lambda = -1, -2, ... first
    try:
        series = _second_kind_series(space, lam)
    except OverflowError:
        return frobenius, T_SWITCH, -math.inf, -1.0, None
    end = T_SWITCH
    if series.condition(T_SWITCH) > _Q_CONDITION:
        end = 0.0 if lam.real > 0.0 else next(
            (t for t in _Q_BRIDGE_ENDS if math.log(series.condition(t) * 1e-16 / 1e-15)
             <= -2.0 * lam.real * (T_SWITCH - t)), 0.0)
    return frobenius, T_SWITCH, end, -1.0, series


def phi_solution(space, lam, t_max):
    """The regular solution phi_lambda solved out to t_max.

    The ODE starts from the Jacobi series of phi's cache entry (the one
    ``eval_phi`` reads) at T_SEED, at t_max / 2, or at the series' reach,
    whichever is earliest, so the solution reads eval_phi's values up to
    its seed.  A sequence of lambda is solved as one batch per seed point
    and gives a list.  ``space`` is one space or one per lambda; the batch
    spans them all.
    """
    lams, many = _lambdas(lam)
    spaces = _spaces(space, len(lams))
    t_max = as_float("t", t_max)
    if t_max <= _MIN_T_MAX:
        raise ValueError(f"t_max must exceed {_MIN_T_MAX}")
    starts = [continuation(s, x, _phi_series).start for s, x in zip(spaces, lams)]
    conts = [Continuation(s, x, start, min(T_SEED, t_max / 2.0, start.reach), math.inf, 1.0, None)
             for s, x, start in zip(spaces, lams, starts)]
    for seed in dict.fromkeys(c.switch for c in conts):
        _extend([c for c in conts if c.switch == seed], t_max)
    out = [c.view(0.0, t_max, c.steps.t) for c in conts]
    return out if many else out[0]


def q_solution(space, lam, t_min):
    """Q_lambda on [t_min, inf): series for t >= log 2, ODE continuation below.

    A sequence of lambda is continued as one batch and gives a list.
    ``space`` is one space or one per lambda; the batch spans them all.
    """
    lams, many = _lambdas(lam)
    spaces = _spaces(space, len(lams))
    t_min = as_float("t", t_min)
    if t_min <= 0.0:
        raise ValueError("Q is singular at t = 0; need t_min > 0")
    conts = [Continuation(s, lam, _series(s, lam), T_SWITCH, -math.inf, -1.0, None)
             for s, lam in zip(spaces, lams)]
    if t_min < T_SWITCH:
        _extend(conts, t_min)
    out = [c.view(t_min, math.inf, np.empty(0) if c.steps is None else c.steps.t)
           for c in conts]
    return out if many else out[0]


def eval_Q(space, lam, t):
    """Q_lambda(t): Frobenius series for t >= log 2, below it the backward
    bridge where the second-kind series is ill-conditioned, that series past
    the bridge's end (``_q_second_kind``); OutOfRangeError where Q leaves
    the floating-point range.  At a 1-d array of t (a complex array back)
    each series reads its t in one pass."""
    if isinstance(t, np.ndarray):
        t = as_array("t", t)
        if (t <= 0.0).any():
            raise ValueError("eval_Q needs t > 0")
        lam = as_complex("lambda", lam)
        _check_exponent(lam)
        far = t >= T_SWITCH
        return _read(t, ((far, lambda ts: _checked(_series(space, lam).pair, lam, ts)),
                         (~far, lambda ts: continuation(space, lam, _q_second_kind).pair(ts))))[0]
    t = as_float("t", t)
    if t <= 0.0:
        raise ValueError("eval_Q needs t > 0")
    lam = as_complex("lambda", lam)
    # every negative integer 2 lambda, odd ones included, is refused: the
    # spectral sweep's exclusion queries expect ResonantExponentError there
    _check_exponent(lam)
    if t >= T_SWITCH:  # no second-kind series: the cache entry serves t < log 2
        return complex(_checked(_series(space, lam).pair, lam, t)[0])
    return complex(continuation(space, lam, _q_second_kind).pair(t)[0])


def eval_phi(space, lam, t):
    """The spherical function phi_lambda(t); entire in lambda, phi(0) = 1.

    The Jacobi series, the forward bridge to T_PHI where a large |Im lambda|
    moves the series' switch earlier, and c Q past it (near the lattice the
    bridge has no end: ``_phi_series``).  phi grows like
    e^((|Re lambda| - rho) t); OutOfRangeError where it leaves the
    floating-point range (a bridge read is refused where that growth passes
    e^_MAX_EXPONENT), and where the series of a |lambda| past about 1e154
    overflows; IllConditionedError where the c Q terms cancel (``_CQ``).
    At a 1-d array of t (a complex array back) each series reads its t in
    one pass.
    """
    if isinstance(t, np.ndarray):
        t = as_array("t", t)
        if (t < 0.0).any():
            raise ValueError("eval_phi needs t >= 0")
        return continuation(space, as_complex("lambda", lam), _phi_series).pair(t)[0]
    t = as_float("t", t)
    if t < 0.0:
        raise ValueError("eval_phi needs t >= 0")
    lam = as_complex("lambda", lam)
    if not t:  # the series' value at t = 0, whatever finite lambda
        return 1 + 0j
    return complex(continuation(space, lam, _phi_series).pair(t)[0])


# -- batch reads ----------------------------------------------------------------


def _stacked(rows):
    """The rows of n series, k rows each, zero-padded to the longest: a
    (k, n, L) array."""
    out = np.zeros((len(rows[0]), len(rows), max(r.shape[1] for r in rows)), dtype=complex)
    for i, r in enumerate(rows):
        out[:, i, :r.shape[1]] = r
    return out


def _stacked_sums(stack, x, on):
    """The k row sums of each stacked series i with on[i] at its own
    variable x[i], sum_n rows[n] x^n: a (k, m) array for the m series on,
    one matrix-vector product per distinct x."""
    width = stack.shape[-1]
    sums = np.empty(stack.shape[:2], dtype=complex)
    for value in dict.fromkeys(x[on].tolist()):
        cols = on & (x == value)
        block = stack if cols.all() else stack[:, cols]
        sums[:, cols] = (block.reshape(-1, width) @ value ** np.arange(width)).reshape(
            len(block), -1)
    return sums[:, on]


def _frobenius_stack(series):
    return _stacked([x.rows for x in series]), np.array([x.exponent for x in series])


def _frobenius_pairs(stack, on, t):
    """FrobeniusSeries.pair at t of the stacked series with on[i]."""
    rows, e = stack
    y = math.exp(-t)
    s, ds = _stacked_sums(rows, np.full(len(e), y * y), on)
    e = e[on]
    head = np.exp(-e * t)
    return head * s, -head * (e * s + ds)


def _tanh_stack(series):
    return (_stacked([x.rows for x in series]), np.array([x.e for x in series]),
            np.array([x.tanh_reach for x in series]), np.array([x.scale for x in series]),
            np.array([2.0 * x.shift for x in series]))


def _tanh_pairs(stack, on, t):
    """_TanhSeries.pair at t of the stacked two-row series with on[i]."""
    rows, e, tanh_reach, scale, power = stack
    tanh = math.tanh(t)
    s, ws = _stacked_sums(rows, (tanh / tanh_reach) ** 2, on)
    e = e[on]
    head = np.exp(-e * np.log(scale[on] * math.cosh(t))) * tanh ** power[on]
    u = head * s
    du = -e * tanh * u
    if t:
        du += head * 4.0 * ws / math.sinh(2.0 * t)
    return u, du


_STACKS = {FrobeniusSeries: (_frobenius_stack, _frobenius_pairs),
           _TanhSeries: (_tanh_stack, _tanh_pairs)}


class RadialBatch:
    """Many radial solutions read together at one float t: cache entries
    (Continuations) or RadialSolutions, of any spaces and lambdas.
    ``at(t)`` is (u, u') and ``self(t)`` is u, complex arrays with one entry
    per solution.

    The solutions on their start series at t are summed per series kind
    (Q's Frobenius series, phi's Jacobi series), from rows stacked at the
    first read that needs them: one matrix-vector product per distinct
    variable, y^2 or (tanh t / tanh reach)^2.  Those on a Taylor bridge read
    each solve once, grown first where t lies beyond it as a single read
    grows it, and the rest (c Q past T_PHI, Q's second-kind series, a
    solution that reads no Continuation) are read one by one.  A stacked
    sum differs from a single read by rounding only; a bridge read is the
    single read.  ValueError where t lies outside a RadialSolution's range
    (or below 0 for a phi entry, at or below 0 for a Q entry),
    OutOfRangeError naming the first solution whose u is not finite.
    """

    def __init__(self, sources):
        self._sources = sources = list(sources)
        if not sources:
            raise ValueError("need at least one solution")
        self._conts = conts = [s._eval if isinstance(s, RadialSolution) else s for s in sources]
        ours = [isinstance(c, Continuation) for c in conts]
        self._ours = np.array(ours)
        # a RadialSolution's range, to 1e-12 as its ``at``; a cache entry's
        # domain, t >= 0 for phi and t > 0 for Q
        self._lo, self._hi = np.array([(s.t_lo - 1e-12, s.t_hi + 1e-12)
                                       if isinstance(s, RadialSolution)
                                       else (0.0 if s.sign > 0.0 else math.ulp(0.0), math.inf)
                                       for s in sources]).T
        self._switch, self._end, self._sign = np.array([(c.switch, c.end, c.sign)
                                                        if mine else (0.0, 0.0, 0.0)
                                                        for c, mine in zip(conts, ours)]).T
        # a two-row _TanhSeries is phi's Jacobi series: Q's second-kind
        # series have four or six rows, and are read one by one
        kinds = [type(c.start) if mine and (isinstance(c.start, FrobeniusSeries)
                                            or len(c.start.rows) == 2) else None
                 for c, mine in zip(conts, ours)]
        self._kinds = {kind: np.array([k is kind for k in kinds]) for kind in _STACKS}
        self._stacks = {}

    def __call__(self, t):
        return self.at(t)[0]

    def at(self, t):
        t = as_float("t", t)
        outside = (t < self._lo) | (t > self._hi)
        if outside.any():
            lam = self._sources[int(outside.argmax())].lam
            raise ValueError(f"t={t} outside the range of the solution at lambda = {lam}")
        u, du = np.empty((2, len(self._conts)), dtype=complex)
        start = (t - self._switch) * self._sign <= 0.0
        bridge = self._ours & ~start & ((t - self._end) * self._sign <= 0.0)
        rest = ~bridge
        with np.errstate(all="ignore"):  # inf or nan, refused below
            for kind, mask in self._kinds.items():
                on = mask & start
                if on.any():
                    stack, pairs = _STACKS[kind]
                    if kind not in self._stacks:
                        starts = [c.start for c, m in zip(self._conts, mask) if m]
                        self._stacks[kind] = stack(starts)
                    u[on], du[on] = pairs(self._stacks[kind], on[mask], t)
                    rest &= ~on
        bridges = {}
        for i in np.flatnonzero(bridge).tolist():
            cont = self._conts[i]
            rows, cols = bridges.setdefault(cont.bridge(t), ([], []))
            rows.append(i)
            cols.append(cont.column)
        for steps, (rows, cols) in bridges.items():
            su, sdu = steps.read(t)
            u[rows], du[rows] = su[cols], sdu[cols]
        for i in np.flatnonzero(rest).tolist():
            read = self._conts[i]
            try:
                u[i], du[i] = read._pair(t) if self._ours[i] else read(t)
            except OverflowError:
                u[i] = math.inf
        finite = np.isfinite(u)
        if not finite.all():
            raise _overflow(self._sources[int(finite.argmin())].lam, t)
        return u, du


# -- connection problem and Wronskian ----------------------------------------


def _pairing(t, j, u, du, q, dq, rho, mu):
    """J W(u, q) at t and its condition (see ``_connection_solve``), of
    floats or of arrays with one entry per solution; nan or inf where J W
    leaves the float range."""
    with np.errstate(all="ignore"):  # an overflow or 0 / 0 reads condition inf
        w = j * (u * dq - du * q)
        return w, j * (np.abs(u * dq) + np.abs(du * q)) / np.abs(w) * (1.0 + (rho + np.abs(mu)) * t)


def _connection_solve(space, mus, sol):
    """[(J W(u, Q_mu), condition) for mu in mus]: sol's Abel pairings with
    the Q_mu its caller needs (see the module docstring), read at log 2, or
    at sol's start if that is later, from sol's (u, u'), read once, and each
    Q_mu's Frobenius series.  condition times 1e-16 bounds a pairing's
    relative rounding: J (|u q'| + |u' q|) / |J W| (inf where J W is 0),
    times 1 + (rho + |mu|) t for the heads e^(-(rho +- mu) t) that u and q
    carry (phi's series at log 2 is about |lambda| ulps off).  ValueError
    where sol ends before log 2, OutOfRangeError where J W leaves the float
    range.

    A sequence of solutions (``space`` one space or one per solution) takes
    each mu as a sequence, one per solution, and gives each J W and
    condition as an array: per matching point, one RadialBatch read of the
    solutions and one stacked sum of each mu's Frobenius series.  Its
    errors name the solution's lambda.
    """
    if isinstance(sol, RadialSolution):
        t = max(sol.t_lo, T_SWITCH)
        if t > sol.t_hi:
            raise ValueError(f"the solution ends at t = {sol.t_hi}, before the matching "
                             "point log 2")
        u, du = sol.at(t)
        j = space.density_J_t(t)
        out = []
        for mu in mus:
            q, dq = _checked(_series(space, mu).pair, mu, t)
            w, condition = _pairing(t, j, u, du, q, dq, space.rho, mu)
            if not cmath.isfinite(w):
                raise OutOfRangeError(f"J W(u, Q_mu) at t = {t} leaves the floating-point "
                                      f"range (mu = {mu})")
            condition = float(condition)
            out.append((w, condition if condition < math.inf else math.inf))
        return out
    sols = list(sol)
    spaces = _spaces(space, len(sols))
    mus = [np.array(mu, dtype=complex) for mu in mus]
    if any(len(mu) != len(sols) for mu in mus):
        raise ValueError(f"need one mu per solution, {len(sols)}")
    ts = np.array([max(x.t_lo, T_SWITCH) for x in sols])
    late = ts > np.array([x.t_hi for x in sols])
    if late.any():
        x = sols[int(late.argmax())]
        raise ValueError(f"the solution at lambda = {x.lam} ends at t = {x.t_hi}, before the "
                         "matching point log 2")
    out = [(np.empty(len(sols), dtype=complex), np.empty(len(sols))) for _ in mus]
    for t in dict.fromkeys(ts.tolist()):
        cols = np.flatnonzero(ts == t)
        group = [spaces[i] for i in cols]
        u, du = RadialBatch([sols[i] for i in cols]).at(t)
        density = {x: x.density_J_t(t) for x in dict.fromkeys(group)}
        j, rho = np.array([(density[x], x.rho) for x in group]).T
        for (ws, conditions), mu in zip(out, mus):
            mu = mu[cols]
            series = [_series(x, m) for x, m in zip(group, mu.tolist())]
            with np.errstate(all="ignore"):
                q, dq = _frobenius_pairs(_frobenius_stack(series), np.full(len(cols), True), t)
            w, condition = _pairing(t, j, u, du, q, dq, rho, mu)
            finite = np.isfinite(q) & np.isfinite(w)
            if not finite.all():
                k = int(finite.argmin())
                raise OutOfRangeError(f"J W(u, Q_mu) at t = {t} leaves the floating-point range "
                                      f"(mu = {mu[k]}, lambda = {sols[cols[k]].lam})")
            ws[cols], conditions[cols] = w, np.where(condition < math.inf, condition, math.inf)
    return out


def phi_pairings(space, lam, mus, t=T_SWITCH):
    """[(J W(phi_lambda, Q_mu), condition) for mu in mus] at log 2 <= t <=
    T_PHI: ``_connection_solve`` of phi's cache entry, its series or bridge
    there (never c Q), which reads no c.  A sequence of lambda, with one
    space or one per lambda, takes each mu as a sequence, one per lambda,
    and gives arrays: one batched pairing."""
    lams, many = _lambdas(lam)
    spaces = _spaces(space, len(lams))
    sols = [continuation(x, lam, _phi_series).view(t, T_PHI) for x, lam in zip(spaces, lams)]
    if many:
        return _connection_solve(spaces, mus, sols)
    return _connection_solve(spaces[0], mus, sols[0])


def connection_coefficients(space, lam):
    """(a_minus, a_plus) = (c(lambda), c(-lambda)), with phi = a_minus
    Q_{-lambda} + a_plus Q_{lambda}, read without the closed-form c by
    ``phi_pairings`` at log 2.  Pairing with the dominant Q cancels phi's
    dominant term: IllConditionedError where the larger condition times
    1e-16 passes 1e-8, and at c's pole lambda = 0 (inf)."""
    # 2 lambda or -2 lambda a negative integer is refused, odd ones included:
    # the spectral sweep's exclusion queries expect ResonantExponentError there
    lam = as_complex("lambda", lam)
    _check_exponent(lam)
    _check_exponent(-lam)
    mus = (lam, -lam)
    pairs = phi_pairings(space, lam, mus)
    condition = max(cond for _, cond in pairs) if lam else math.inf
    if not condition <= _MAX_CONDITION:  # the connection suite's bound
        raise IllConditionedError(f"a connection coefficient at lambda = {lam} is resolved "
                                  f"only to {condition * 1e-16:.1e}", condition=condition)
    return tuple(w / (-2.0 * mu) for (w, _), mu in zip(pairs, mus))


def abel_wronskian(space, lam, t):
    """J(t) (phi Q' - phi' Q) for log 2 <= t <= T_PHI.

    By Abel's identity the Wronskian of two solutions times J is constant in
    t, and as t -> 0 phi -> 1 and J phi' Q -> 0, so the value is lim J Q' =
    -2 lambda c(lambda): ``phi_pairings`` at t with Q_lambda alone, which
    reads no c.  ValueError for other t.  A sequence of lambda (with one
    space, or one space per lambda) gives a list, from one batched pairing.
    """
    lams, many = _lambdas(lam)
    t = as_float("t", t)
    if not T_SWITCH <= t <= T_PHI:
        raise ValueError(f"abel_wronskian needs log 2 <= t <= {T_PHI}, got t = {t}")
    if many:
        (w, _), = phi_pairings(space, lams, (lams,), t)
        return w.tolist()
    (w, _), = phi_pairings(space, lams[0], (lams[0],), t)
    return w


def wronskian_limit(space, lam):
    """lim_{t->0} J(t) dQ_lambda/dt = -2 lambda c(lambda), ``abel_wronskian``
    at t = log 2, which reads no c.  A sequence of lambda (with one space,
    or one space per lambda) gives a list.
    """
    lams, many = _lambdas(lam)
    values = [abel_wronskian(s, x, T_SWITCH) for s, x in zip(_spaces(space, len(lams)), lams)]
    return values if many else values[0]
