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
  with the powers of y^2.  Below log 2 ``eval_Q`` sums the second-kind
  Jacobi function (2 cosh t)^-(rho+lambda)
  2F1((rho+lambda)/2, (alpha-beta+1+lambda)/2; 1+lambda; cosh(t)^-2),
  connected to tanh(t)^2: for alpha not an integer (h3, odd hn) two power
  series, the first phi's own (A&S 15.3.6); for an integer alpha (h2, even
  hn, chn, hhn, oh2) a finite sum in w^(n-alpha) plus a log series with
  psi weights (A&S 15.3.11).

* phi_lambda, the regular solution with phi(0) = 1 (the spherical
  function), which is a Jacobi function (Koornwinder 1984) with
  alpha = (m_alpha + m_2alpha - 1)/2 and beta = (m_2alpha - 1)/2.
  ``eval_phi`` integrates nothing off the lattice.  For t <= T_PHI = 1.5 it
  sums cosh(t)^-(rho+lambda) 2F1((rho+lambda)/2, (alpha-beta+1+lambda)/2;
  alpha+1; tanh(t)^2); above, it returns c(lambda) Q_{-lambda} +
  c(-lambda) Q_lambda from the closed-form c and the Frobenius series.
  Below 1.5 the two c Q terms are up to 1e6 times phi (oh2 at t = 0.7).

Both tanh^2 series are one kind of object, a _TanhSeries: rows of 2F1
terms, made once by the term ratio at the widest w they will be read at
(tanh^2 of phi's switch, tanh^2 log 2 for Q) and cut where they are falling
and below 1e-17 of the largest, then summed at every read by one product
with the powers of w over that w.  phi's rows are its series and its
w d/dw; Q's hold the Gamma prefactors and psi weights as well.

The two are linked by phi = c(lambda) Q_{-lambda} + c(-lambda) Q_{lambda};
``boundary.boundary_pair`` recovers the pair numerically for any solution.
lim_{t->0} J(t) dQ/dt = -2 lambda c(lambda) fixes the resolvent
normalization: ``wronskian_limit`` extrapolates it from an integrated Q, and
``abel_wronskian`` reads it from the two series between log 2 and T_PHI as
J (phi Q' - phi' Q), which Abel's identity makes constant in t.

Q's series cancels where Re lambda > 0 is large (it loses about
2 Re lambda t / ln 10 decades) or |Im lambda| is.  Its condition at
t = log 2, the sum of its parts' moduli over the modulus of the sum, times
1e-16 tracks its error (to 20x for Re lambda > 0, where the Gamma
prefactors carry error too).  Where the condition exceeds 1e3, the ODE
continues the Frobenius series backward from log 2 instead: 1e-12 off,
the dominant direction for Re lambda > 0.  For Re lambda < 0 the backward
ODE follows the recessive solution and its error grows about threefold per
unit of -Re lambda (5e-12 at Re lambda = -3, 4e-3 at -20, against mpmath),
so the bound grows by 3^(-Re lambda).  The spectral sweep's box
(|Re lambda| < 2.9, |Im lambda| < 1.2) lies inside: its condition is at
most 82 over h2, h3, oh2, hn:4-10, chn:2-5 and hhn:2-5.  Near a negative
integer lambda the Gamma factors cancel too, losing about 1e-16 / distance,
but the backward ODE is worse there, so there is no guard.
``q_solution`` always integrates, so the connection suite compares an
integrated Q with the closed forms, and the ``jacobi`` suite compares it
with the series.

Where eval_phi still integrates, the ODE continues the series forward.
Within LATTICE_GUARD = 0.05 of an integer lambda the two c Q terms have
poles that cancel, and with 2 lambda within EXCLUSION_RADIUS of an integer
frobenius_Q refuses one of the series: there the ODE takes over at T_PHI.
A large |Im lambda| makes the series itself cancel, its terms outgrowing the
sum by about |Im lambda| tanh(t) / 2 decades, so it hands over where
|Im lambda| tanh(t) = 4: to c Q if that is past log 2, to the ODE if not.
A |lambda| in the hundreds overflows the terms at the switch; the series
is then made for half that reach, halved again until its terms are floats,
and the switch moves there.  ``phi_solution`` always integrates, from
T_SEED = 0.2 on (or from t_max / 2 if that is earlier, from where
|Im lambda| tanh(t) reaches 4, or from a halving for a large |lambda|), so
the connection suite compares an integrated phi with c Q.

All integrations use DOP853 with a vanishing absolute floor, so solutions
spanning forty decades (the octonionic family) keep full relative accuracy.
They do not follow u itself but w = g(t) u, where g(t0) = 1 takes out the
exponent the solution is known to have in the direction of integration
(Koornwinder 1984), so that the step control resolves what is left:

* forward, w = e^(sigma (t - t0)) u.  Every solution behaves like
  e^((+-lambda - rho) t) at large t, so on oh2 (rho = 11) the steps would
  follow a rate of 8 to 14 where |lambda| < 3.  sigma = rho where
  2 |Re lambda| <= rho leaves e^(+-lambda t); elsewhere sigma = 0, since
  near lambda = rho one mode is flat already and sigma = rho would make it
  grow.  sigma is at most 700 / (t1 - t0), so that neither w nor the factor
  e^(-sigma (t - t0)) that reads u back leaves the floating-point range.
  With e = b - 2 rho, formed from e^-2t so that it cannot overflow,
  w'' = -(e + 2 (rho - sigma)) w' + (sigma e + sigma (2 rho - sigma) -
  rho^2 + lambda^2) w.
* backward (Q toward 0), w = (t/t0)^p u with p = m_alpha + m_2alpha - 1,
  Q's exponent at the origin (t^-14 on oh2).  With d = m_alpha (coth t -
  1/t) + 2 m_2alpha (coth 2t - 1/2t), summed from its Bernoulli series
  below 0.5, w'' = ((p - 1)/t - d) w' + (p d / t - rho^2 + lambda^2) w.

Following w takes fewer steps than following u, and is more accurate: Q
at 0.0035 on oh2 is 4e-15 off mpmath in place of 1.6e-12.  Near the origin
the steps stay at about 0.03 t whatever g is: the coefficient (m_alpha +
m_2alpha)/t of u' limits an explicit method there, about 30 steps per
e-fold of t.  So phi's ODE starts where its series still converges fast,
at T_SEED = 0.2 (the series has about 15 terms there), and
``abel_wronskian`` reads the Wronskian without solving Q toward 0.
The ODE is linear, and only lambda^2, sigma and the space's m_alpha,
m_2alpha, rho and p differ from one solution to another, so N solutions,
of one space or of several, are integrated as one system whose
coefficients are per-component arrays, at rtol 1e-12/sqrt(N): the step
control measures the RMS error over all 2N components, and the scaling
keeps one lambda's error from hiding behind the others.  A single lambda
runs a scalar right-hand side at rtol 1e-12.  The verify suites make one
such solve per kind over every (family, lambda) pair of their grid, 125
solutions, so the families share their steps, where one solve per family
would pay each family's count.

The solver is the library's own DOP853 (``dop853``, Hairer, Norsett and
Wanner, Solving ODEs I, II.5-II.6): a port of scipy 1.17.1's
solve_ivp(method="DOP853") operation for operation, so its steps, nfev
and dense reads are scipy's bit for bit, with no scipy.integrate import.
Its dense output keeps only each step's start state.  DOP853's
interpolant needs three stages beyond the step's twelve, and a solve reads
few of its steps: at the first read of a step the stages are rerun from
that start with the same arithmetic, so every read equals the eager
interpolant's bit for bit and an unread step costs no extra right-hand
side.  The solutions of one batch read the shared dense output through
one evaluation and one scaling back to (u, u') per t, so the Wronskian
fit's nodes and the connection suite's points cost one interpolation of
all 2N components each, not one per lambda.  The steps grow with the
phase |Im lambda| t, so a piece that would turn through more than
_MAX_PHASE = 1e5 radians is refused with ValueError.

``eval_phi``, ``eval_Q``, ``connection_coefficients`` and the K-type profiles
of ``model_h2`` read one cache, ``continuation``, with one entry per (space,
lambda, kind).  An entry is data, a Continuation of what the kind gives:
the start, a series read on its side of the switch point (phi's Jacobi
series, Q's Frobenius series), and past it ``beyond``, a second series
object (c(lambda) Q_{-lambda} + c(-lambda) Q_lambda for phi off the
lattice, made at the first read past the switch; Q's second-kind series),
or None: then ODE pieces, each started from the end of the one before and
ending at a fixed breakpoint: 1.5, 3, 6, ... forward (phi near the
lattice; the last forward piece ends where the solution reaches
e^_MAX_EXPONENT), 0.3, 0.1, 1/30, ... backward (Q where its second-kind
series is ill-conditioned).  ``Continuation.pair`` alone chooses among the
three, and an entry holds no function outside its ODE pieces.  A request
beyond the last piece adds pieces and never re-solves a span, so a value
depends on the key and t alone, not on the order of the requests.
The ten suites that the benchmark pins make 412 entries (the Wronskian
rows' phi are 125 of them) and ``verify --all`` makes 537 (the ``jacobi``
suite reads the same phi and adds 125 of Q).  maxsize 512 holds the pinned
suites, so repeating them in one process rereads every entry; repeating all
eleven cycles 537 entries through 512 places and misses 412 of them.
``continuation.cache_info()`` reports the hit rate.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import accumulate
from operator import mul

import numpy as np
from scipy.special import loggamma, psi

from .cfunction import for_space
from .dop853 import solve_ivp
from .errors import (AccuracyWarning, IllConditionedError, NonFiniteInputError,
                     OutOfRangeError, ResonantExponentError, StiffnessError)
from .space import RankOneSpace

T_SWITCH = math.log(2.0)  # series/ODE handover at y = 1/2
T_PHI = 1.5  # phi: Jacobi series below, c Q_{-lambda} + c Q_lambda above
T_SEED = 0.2  # phi_solution's ODE starts from the Jacobi series here, or earlier
_MIN_T_MAX = 0.01  # phi_solution's least t_max; its seed is at most half of t_max
EXCLUSION_RADIUS = 1e-6
LATTICE_GUARD = 0.05  # lambda this near an integer: the c Q terms cancel

_SERIES_TOL = 1e-17
_FROBENIUS_TOL = 1e-16  # frobenius_Q stops after two terms below this at y = 1/2,
_FROBENIUS_MAX_TERMS = 400  # ... or here, with an AccuracyWarning
_SERIES_MAX_TERMS = 1 << 14
_SERIES_REACH = 4.0  # |Im lambda| tanh t where phi's series has lost two digits
_Q_CONDITION = 1e3  # Q's series conditioned worse than this: the ODE instead,
_ODE_RECESSIVE = 3.0  # ... with the bound raised this much per unit of -Re lambda

_RTOL = 1e-12
_ATOL = 1e-300  # effectively pure relative error control
_MAX_EXPONENT = 700.0  # a solution growing past e^700 leaves the floating-point range
_MAX_PHASE = 1e5  # radians an ODE piece may turn through: about 100 s of steps


def _require_finite(lam):
    if not cmath.isfinite(lam):
        raise NonFiniteInputError(f"lambda = {lam} is not finite")


def _radius(t):
    """t as a float; NonFiniteInputError for nan or inf."""
    t = float(t)
    if not math.isfinite(t):
        raise NonFiniteInputError(f"t = {t} is not finite")
    return t


def _lambdas(lam):
    """(list of complex lambdas, whether lam was a sequence)."""
    if np.ndim(lam) == 0:
        return [complex(lam)], False
    if len(lam) == 0:
        raise ValueError("need at least one lambda")
    return [complex(x) for x in lam], True


def _spaces(space, count):
    """One space per lambda: ``space`` repeated, or the sequence it is."""
    if isinstance(space, RankOneSpace):
        return [space] * count
    spaces = list(space)
    if len(spaces) != count:
        raise ValueError(f"need one space per lambda, got {len(spaces)} for {count}")
    return spaces


def _check_exponent(lam):
    """Refuse a non-finite lambda, and 2*lambda near {-1, -2, -3, ...}."""
    lam = complex(lam)
    _require_finite(lam)
    w = 2.0 * lam
    m = round(w.real)
    if m <= -1 and abs(w - m) <= EXCLUSION_RADIUS:
        raise ResonantExponentError(
            f"2*lambda = {w} is within {EXCLUSION_RADIUS} of a "
            "negative integer; the Frobenius recursion for Q is singular there"
        )


# -- Frobenius solution Q ----------------------------------------------------


@dataclass(frozen=True)
class FrobeniusSeries:
    """Power-series data of Q_lambda(t) = y^exponent * sum_nu h_nu y^nu.

    ``coefficients[0] == 1`` and the stored truncation satisfies the tail
    bound |h_N| * valid_radius^N below the construction tolerance.
    """

    space: RankOneSpace
    lam: complex
    exponent: complex
    coefficients: tuple
    valid_radius: float = 0.5

    @property
    def truncation(self):
        return len(self.coefficients) - 1

    @cached_property
    def _rows(self):
        """The even coefficients h_nu and nu h_nu (odd ones vanish identically)."""
        h = np.array(self.coefficients[::2])
        return np.array([h, 2.0 * np.arange(len(h)) * h])

    def series_sums(self, y):
        """(h(y), y h'(y)) at scalar y with |y| <= valid_radius, every stored
        coefficient summed by one product with the powers of y^2."""
        if abs(y) > self.valid_radius * (1.0 + 1e-12):
            raise ValueError(
                f"series evaluated at y={y} outside radius {self.valid_radius}"
            )
        rows = self._rows
        return tuple((rows @ (y * y) ** np.arange(rows.shape[1])).tolist())

    def pair(self, t):
        """(Q(t), dQ/dt) for t >= -log(valid_radius); ValueError where
        y^exponent overflows."""
        y = math.exp(-t)
        s, ds = self.series_sums(y)
        try:
            head = cmath.exp(-self.exponent * t)
        except OverflowError:
            raise ValueError(f"Q_lambda({t}) overflows the floating-point range "
                             f"(lambda = {self.lam})") from None
        q = head * s
        dq = -head * (self.exponent * s + ds)
        return q, dq


def frobenius_Q(space, lam):
    """Frobenius coefficients of Q_lambda, adaptively truncated.

    Raises ResonantExponentError when 2*lambda is within 1e-6 of a negative
    integer (vanishing recursion denominator nu(nu + 2 lambda)), and
    OutOfRangeError at the first coefficient that leaves the float range
    (a large multiplicity: hn:1000).
    """
    lam = complex(lam)
    _check_exponent(lam)
    e = space.rho + lam
    # b(t) - 2 rho = sum_{k even >= 2} b_k y^k, b_k = 2 m_alpha + 4 m_2alpha [4 | k],
    # so with j = nu - k the source sum_k b_k (e+nu-k) h_{nu-k} is 2 m_alpha
    # times the sum of (e+j) h_j over even j < nu, plus 4 m_2alpha times the
    # same sum over j = nu mod 4: running sums, one term added per step
    m_a, m_2a = 2.0 * space.m_alpha, 4.0 * space.m_2alpha
    every = e  # sum of (e+j) h_j over even j < nu
    by_residue = [e, 0j]  # ... over j = 0 and j = 2 mod 4
    h = [1.0 + 0j]
    r = 0.5
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
        h.append(0j)  # odd coefficient
        h.append(h_nu)
        if nu >= 8 and abs(h_nu) * r**nu < _FROBENIUS_TOL:
            quiet += 1
        else:
            quiet = 0
    if quiet < 2:
        warnings.warn(
            f"Frobenius tail still {abs(h[-1]) * r**nu:.2e} after {nu} terms "
            f"(lambda={lam})",
            AccuracyWarning,
        )
    return FrobeniusSeries(
        space=space,
        lam=lam,
        exponent=e,
        coefficients=tuple(h),
    )


@lru_cache(maxsize=512)
def _series(space, lam):
    return frobenius_Q(space, lam)


# -- generic ODE continuation ------------------------------------------------


@dataclass
class RadialSolution:
    """A solved radial eigenfunction on [t_lo, t_hi].

    ``at(t)`` returns (value, derivative); ``ts`` records the steps the
    integrator certified, where ``residual`` checks the ODE.
    """

    space: RankOneSpace
    lam: complex
    t_lo: float
    t_hi: float
    _eval: object = field(repr=False)
    ts: np.ndarray = field(default=None, repr=False)

    def at(self, t):
        if not (self.t_lo - 1e-12 <= t <= self.t_hi + 1e-12):
            raise ValueError(
                f"t={t} outside solved range [{self.t_lo}, {self.t_hi}]"
            )
        u, v = self._eval(float(t))
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


def _coth_series(terms):
    """Coefficients of coth x - 1/x = sum_{n >= 1} 4^n B_2n x^(2n-1) / (2n)!,
    highest first, for Horner's rule in x^2.  The Bernoulli numbers are
    exact fractions (scipy's are 2e-12 off from B_4 on)."""
    b = [Fraction(1)]
    for m in range(1, 2 * terms + 1):
        b.append(-sum(math.comb(m + 1, k) * b[k] for k in range(m)) / (m + 1))
    return tuple(float(4**n * b[2 * n] / math.factorial(2 * n)) for n in range(terms, 0, -1))


_COTH_SERIES = _coth_series(13)


def _coth_excess(x):
    """coth x - 1/x for x > 0: the Bernoulli series below 0.5, where its
    13th term is below 1e-19 of the sum, and the difference above."""
    if x >= 0.5:
        return 1.0 / math.tanh(x) - 1.0 / x
    x2, s = x * x, 0.0
    for c in _COTH_SERIES:
        s = s * x2 + c
    return x * s


def _forward_rate(space, lam, length):
    """sigma, the rate of e^(sigma (t - t0)) a forward solve over ``length``
    multiplies lambda's solution by.  Where 2 |Re lambda| <= rho it is rho,
    so that e^(+-lambda t) is left to follow in place of e^((+-lambda -
    rho) t), but at most _MAX_EXPONENT / length: then neither w, which
    grows at most like e^((sigma - rho/2) length), nor the factor
    e^(-sigma (t - t0)) that reads u back leaves the floating-point range.
    0 elsewhere: near lambda = rho one mode is flat already."""
    if 2.0 * abs(lam.real) > space.rho:
        return 0.0
    return min(space.rho, _MAX_EXPONENT / length)


def integrate_radial_ode(space, lams, t_span, inits):
    """Continue (u, u') of the radial ODE across t_span = (t0, t1) for each
    lambda in ``lams``, starting from the matching (u, u') in ``inits``.

    ``space`` is one space, or one per lambda: the ODE's coefficients are
    per-component arrays, so lambdas of different spaces share one solve.
    The integrated unknown is w = g(t) u, with g(t0) = 1 taking out the
    dominant growth in the direction of integration: e^(sigma (t - t0))
    forward (sigma from _forward_rate, one per lambda), (t/t0)^p backward
    (p = m_alpha + m_2alpha - 1, so Q's t^-p becomes flat).  One solve_ivp
    (``dop853``) runs on [w_1..w_N, w'_1..w'_N]; the returned list holds
    one RadialSolution per lambda, each reading its own (u, u') from the
    shared dense output.  The dense output is evaluated and scaled back once
    per t for the whole batch (the last 32 t are kept), not once per
    solution.  t_span may be decreasing (backward continuation toward the
    singular endpoint).  Both endpoints must be positive, finite and
    distinct.
    """
    t0, t1 = _radius(t_span[0]), _radius(t_span[1])
    if min(t0, t1) <= 0.0:
        raise ValueError("t_span must stay inside (0, inf)")
    lams = [complex(lam) for lam in lams]
    count = len(lams)
    if count == 0 or len(inits) != count:
        raise ValueError("need one initial (u, u') pair per lambda, at least one")
    spaces = _spaces(space, count)
    # numpy slicing costs more than the arithmetic for a single lambda
    batch = (lambda xs: xs[0]) if count == 1 else np.array
    m_a = batch([float(s.m_alpha) for s in spaces])
    m_2a = batch([float(s.m_2alpha) for s in spaces])
    rho = batch([s.rho for s in spaces])
    lam = batch(lams)

    # w'' = A(t) w' + B(t) w, and (u, u') = f(t) (w, w' - k(t) w)
    if t1 > t0:
        sigma = batch([_forward_rate(s, x, t1 - t0) for s, x in zip(spaces, lams)])
        shift, c0 = 2.0 * (rho - sigma), sigma * (2.0 * rho - sigma) - rho * rho + lam * lam

        def coefficients(t):
            # e = b - 2 rho = 2 m_alpha / (e^2t - 1) + 4 m_2alpha / (e^4t - 1),
            # in e^-2t so that nothing overflows at large t
            q = math.exp(-2.0 * t)
            e = 2.0 * m_a * q / -math.expm1(-2.0 * t) + 4.0 * m_2a * q * q / -math.expm1(-4.0 * t)
            return -(e + shift), sigma * e + c0

        def unscale(t):
            return np.exp(-sigma * (t - t0)), sigma
    else:
        p, c0 = m_a + m_2a - 1.0, lam * lam - rho * rho

        def coefficients(t):
            # d = b - (p + 1) / t, regular at 0
            d = m_a * _coth_excess(t) + 2.0 * m_2a * _coth_excess(2.0 * t)
            return (p - 1.0) / t - d, p * d / t + c0

        def unscale(t):
            return (t0 / t) ** p, p / t

    if count == 1:
        def rhs(t, wv):
            a, b = coefficients(t)
            w, dw = wv
            return (dw, a * dw + b * w)
    else:
        def rhs(t, wv):
            a, b = coefficients(t)
            w, dw = wv[:count], wv[count:]
            return np.concatenate((dw, a * dw + b * w))

    u0 = np.array([complex(u) for u, _ in inits], dtype=complex)
    du0 = np.array([complex(v) for _, v in inits], dtype=complex)
    y0 = np.concatenate((u0, du0 + unscale(t0)[1] * u0))
    sol = solve_ivp(rhs, (t0, t1), y0, rtol=_RTOL / math.sqrt(count), atol=_ATOL)
    if not sol.success:
        raise StiffnessError(f"radial integration failed: {sol.message}")

    # the batch's solutions read the same few t in turn: one dense-output
    # evaluation and one scaling of all 2N components serve every lambda at
    # that t
    @lru_cache(maxsize=32)
    def read(t):
        wv = sol.sol(t)
        f, k = unscale(t)
        w = wv[:count]
        return f * w, f * (wv[count:] - k * w)

    def solution(i):
        def ev(t):
            u, du = read(t)
            return u[i], du[i]

        return RadialSolution(
            space=spaces[i],
            lam=lams[i],
            t_lo=min(t0, t1),
            t_hi=max(t0, t1),
            _eval=ev,
            ts=sol.t,
        )

    return [solution(i) for i in range(count)]


# -- stitched solutions and their cache --------------------------------------

_FORWARD = (1.5, 2.0)  # piece ends 1.5, 3, 6, ...
_BACKWARD = (0.3, 1.0 / 3.0)  # piece ends 0.3, 0.1, 1/30, ...


class Continuation:
    """One radial solution of (space, lambda), stitched from pieces.

    ``start.pair(t)`` gives (u, u') on the start's side of ``switch``;
    ``sign`` is the direction away from it, +1 forward, -1 backward.  Past
    the switch, ``beyond.pair(t)`` gives them, or, where ``beyond`` is None,
    ODE pieces continue the start from the switch.
    """

    def __init__(self, space, lam, start, switch, sign, beyond):
        self.space, self.lam = space, lam
        self.start, self.switch, self.sign, self.beyond = start, switch, sign, beyond
        self.reach = switch  # far end of the last piece
        self.pieces = []

    def pair(self, t):
        """(u(t), u'(t)), integrating further pieces if t lies beyond them.

        A forward piece ends at its breakpoint, or earlier at
        _growth_limit, past which it is refused: ValueError for a t there.
        """
        sign = self.sign
        if (t - self.switch) * sign <= 0.0:
            return self.start.pair(t)
        if self.beyond is not None:
            return self.beyond.pair(t)
        if (t - self.reach) * sign > 0.0:
            last = _growth_limit(self.space, self.lam) if sign > 0 else math.inf
            if t > last:
                raise ValueError(f"the radial solution at lambda = {self.lam} leaves "
                                 f"the floating-point range before t = {t}")
            first, ratio = _FORWARD if sign > 0 else _BACKWARD
            k = 0
            while (t - self.reach) * sign > 0.0:
                while (first * ratio**k - self.reach) * sign <= 0.0:
                    k += 1
                _extend([self], min(first * ratio**k, last))
        return next(p for p in self.pieces if p.t_lo <= t <= p.t_hi)._eval(t)

    def view(self, t_lo, t_hi, ts=None):
        """A RadialSolution on [t_lo, t_hi] reading this continuation."""
        return RadialSolution(self.space, self.lam, t_lo, t_hi, self.pair, ts)


def _growth_limit(space, lam):
    """The t where e^((|Re lambda| - rho) t), the growth of every radial
    solution, passes e^_MAX_EXPONENT: a forward ODE would overflow beyond."""
    growth = abs(lam.real) - space.rho
    return _MAX_EXPONENT / growth if growth > 0.0 else math.inf


def _extend(conts, end):
    """Add a piece up to ``end`` to continuations sharing a reach, of one
    space or of several.

    A forward piece is refused (ValueError) where ``end`` passes the
    _growth_limit of a member, in its own space.  Any piece is refused where
    its phase, |Im lambda| times its length, passes _MAX_PHASE: the step
    count grows with it.
    """
    reach = conts[0].reach
    if end > reach:
        nearest = min(conts, key=lambda c: _growth_limit(c.space, c.lam))
        if end > _growth_limit(nearest.space, nearest.lam):
            raise ValueError(f"the radial solution at lambda = {nearest.lam} leaves the "
                             f"floating-point range before t = {end}")
    fastest = max(conts, key=lambda c: abs(c.lam.imag))
    if abs(fastest.lam.imag) * abs(end - reach) > _MAX_PHASE:
        raise ValueError(f"the radial ODE at lambda = {fastest.lam} would turn through "
                         f"more than {_MAX_PHASE:g} radians between t = {reach} "
                         f"and t = {end}")
    pieces = integrate_radial_ode([c.space for c in conts], [c.lam for c in conts],
                                  (reach, end), [c.pair(reach) for c in conts])
    for cont, piece in zip(conts, pieces):
        cont.pieces.append(piece)
        cont.reach = end


@lru_cache(maxsize=512)
def continuation(space, lam, kind):
    """The one cache of radial solutions: the Continuation of (space,
    lambda) made from kind(space, lam) = (start, switch, sign, beyond)."""
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
    moduli do not sum in floating point: then no read overflows either.
    """

    def __init__(self, e, scale, reach, shift, rows):
        self.e, self.scale, self.reach, self.shift = e, scale, reach, shift
        self.tanh_reach = math.tanh(reach)
        self.rows = rows
        self._n = np.arange(rows.shape[1])
        with np.errstate(over="ignore", invalid="ignore"):
            self.moduli = np.abs(rows).sum(axis=1)
        if not np.isfinite(self.moduli).all():
            raise OverflowError(f"the series of exponent {e} overflows before t = {reach}")

    def _factors(self, tanh):
        """What multiplies S_0, S_1, S_2 at t: w^shift, 1, log w."""
        factors = [tanh ** (2.0 * self.shift)]
        if len(self.rows) > 2:
            factors.append(1.0)
        if len(self.rows) > 4:
            factors.append(2.0 * math.log(tanh))
        return factors

    def _sums(self, tanh):
        """(S(w), w S'(w)); w^shift is taken through tanh(t), which stays
        positive where w underflows (t below 1e-162).  OverflowError when
        w^shift overflows."""
        sums = (self.rows @ ((tanh / self.tanh_reach) ** 2) ** self._n).tolist()
        s = ws = 0j
        for factor, x, wx in zip(self._factors(tanh), sums[::2], sums[1::2]):
            s += factor * x
            ws += factor * wx
        return s, ws

    def condition(self):
        """The sum of the parts' moduli over the modulus of the sum at t =
        reach: the factor by which rounding in the terms grows in the value."""
        parts = float(np.abs(self._factors(self.tanh_reach)) @ self.moduli[::2])
        value = abs(self._sums(self.tanh_reach)[0])
        return parts / value if value else math.inf

    def pair(self, t):
        tanh = math.tanh(t)
        try:
            s, ws = self._sums(tanh)
            head = cmath.exp(-self.e * math.log(self.scale * math.cosh(t)))
        except OverflowError:
            s = ws = head = math.inf
        u = complex(head * s)
        if not cmath.isfinite(u):
            raise ValueError(f"the series of exponent {self.e} overflows the "
                             f"floating-point range at t = {t}")
        du = -self.e * tanh * u
        if t:
            du += head * 4.0 * ws / math.sinh(2.0 * t)
        return u, complex(du)


def _jacobi_series(space, lam, reach):
    """phi = cosh(t)^-(rho+lambda) 2F1(a, b; alpha+1; tanh(t)^2), the Pfaff
    form of the Jacobi function (alpha = (m_alpha+m_2alpha-1)/2, beta =
    (m_2alpha-1)/2, a = (rho+lambda)/2, b = (alpha-beta+1+lambda)/2), for t
    up to reach, or reach/2, /4, ... where a |lambda| in the hundreds
    overflows the terms."""
    _require_finite(lam)
    a, b, c = _jacobi_abc(space, lam)
    while True:
        w = math.tanh(reach) ** 2
        try:
            f = _hyp_coefficients(a, b, c, w, _SERIES_MAX_TERMS)
            return _TanhSeries(space.rho + lam, 1.0, reach, 0.0,
                               np.array([f, np.arange(len(f)) * f]))
        except OverflowError:
            if not w:
                raise ValueError(f"the series of phi at lambda = {lam} overflows "
                                 "at every t > 0") from None
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


def _near_lattice(lam):
    """Whether c(lambda) Q_{-lambda} + c(-lambda) Q_lambda is unusable:
    lambda near an integer, where the two terms have poles that cancel, or
    2 lambda where frobenius_Q refuses one of the two series."""
    w = 2.0 * lam
    return (abs(lam - round(lam.real)) < LATTICE_GUARD
            or abs(w - round(w.real)) <= EXCLUSION_RADIUS)


def _series_reach(lam, reach):
    """reach, or less where |Im lambda| tanh(t) passes _SERIES_REACH: phi's
    series cancels there, its terms outgrowing their sum by about
    |Im lambda| tanh(t) / 2 decades."""
    mu = abs(lam.imag)
    return reach if mu * math.tanh(reach) <= _SERIES_REACH else math.atanh(_SERIES_REACH / mu)


@dataclass(frozen=True)
class _CQ:
    """phi past its switch, c(lambda) Q_{-lambda} + c(-lambda) Q_lambda: both
    c values and both Frobenius series are made at the first read."""

    space: RankOneSpace
    lam: complex

    @cached_property
    def _terms(self):
        cf = for_space(self.space)
        return (cf.value(self.lam), cf.value(-self.lam),
                _series(self.space, -self.lam), _series(self.space, self.lam))

    def pair(self, t):
        cp, cm, q_minus, q_plus = self._terms
        (qm, dqm), (qp, dqp) = q_minus.pair(t), q_plus.pair(t)
        return cp * qm + cm * qp, cp * dqm + cm * dqp


def _phi_series(space, lam):
    """phi: the Jacobi series up to a switch, c Q_{-lambda} + c Q_lambda beyond.

    The switch is T_PHI, or earlier where the series cancels: its terms
    outgrow their sum by about |Im lambda| tanh(t) / 2 decades, so it stops
    where |Im lambda| tanh(t) reaches _SERIES_REACH.  Near the lattice, or
    where the switch falls below log 2 and the Frobenius series of Q no
    longer converge, the ODE continues the series from the switch instead.
    """
    series = _jacobi_series(space, lam, _series_reach(lam, T_PHI))
    beyond = None if series.reach < T_SWITCH or _near_lattice(lam) else _CQ(space, lam)
    return series, series.reach, 1.0, beyond


def _q_second_kind(space, lam):
    """Q: the Frobenius series from log 2 up, the second-kind series below;
    or the backward ODE where that series is conditioned worse than
    _Q_CONDITION * _ODE_RECESSIVE^max(0, -Re lambda)."""
    frobenius = _series(space, lam)  # refuses excluded exponents first
    try:
        series = _second_kind_series(space, lam)
    except OverflowError:
        return frobenius, T_SWITCH, -1.0, None
    bound = math.log(_Q_CONDITION) + max(0.0, -lam.real) * math.log(_ODE_RECESSIVE)
    return frobenius, T_SWITCH, -1.0, series if math.log(series.condition()) <= bound else None


def phi_solution(space, lam, t_max):
    """The regular solution phi_lambda solved out to t_max.

    The ODE starts from phi's Jacobi series at T_SEED, or at t_max / 2 if
    that is earlier; a |Im lambda| tanh(t) past _SERIES_REACH moves the
    seed back to where the series keeps its digits, and a large |lambda|
    halves it until the series' terms are floats.  A sequence of lambda is
    solved as one batch per seed point and gives a list.  ``space`` is one
    space or one per lambda; the batch spans them all.
    """
    lams, many = _lambdas(lam)
    spaces = _spaces(space, len(lams))
    t_max = _radius(t_max)
    if t_max <= _MIN_T_MAX:
        raise ValueError(f"t_max must exceed {_MIN_T_MAX}")
    starts = [_jacobi_series(s, x, _series_reach(x, min(T_SEED, t_max / 2.0)))
              for s, x in zip(spaces, lams)]
    conts = [Continuation(s, x, start, start.reach, 1.0, None)
             for s, x, start in zip(spaces, lams, starts)]
    for seed in dict.fromkeys(c.reach for c in conts):
        _extend([c for c in conts if c.reach == seed], t_max)
    out = [c.view(0.0, t_max, c.pieces[0].ts) for c in conts]
    return out if many else out[0]


def q_solution(space, lam, t_min):
    """Q_lambda on [t_min, inf): series for t >= log 2, ODE continuation below.

    A sequence of lambda is continued as one batch and gives a list.
    ``space`` is one space or one per lambda; the batch spans them all.
    """
    lams, many = _lambdas(lam)
    spaces = _spaces(space, len(lams))
    t_min = _radius(t_min)
    if t_min <= 0.0:
        raise ValueError("Q is singular at t = 0; need t_min > 0")
    conts = [Continuation(s, lam, _series(s, lam), T_SWITCH, -1.0, None)
             for s, lam in zip(spaces, lams)]
    if t_min < T_SWITCH:
        _extend(conts, t_min)
    out = [c.view(t_min, math.inf, c.pieces[0].ts if c.pieces else np.empty(0))
           for c in conts]
    return out if many else out[0]


def eval_Q(space, lam, t):
    """Q_lambda(t): Frobenius series for t >= log 2, the second-kind series
    (or, where it is ill-conditioned, the backward continuation) below."""
    t = _radius(t)
    if t <= 0.0:
        raise ValueError("eval_Q needs t > 0")
    return complex(continuation(space, complex(lam), _q_second_kind).pair(t)[0])


def eval_phi(space, lam, t):
    """The spherical function phi_lambda(t); entire in lambda, phi(0) = 1.

    phi grows like e^((|Re lambda| - rho) t); ValueError where that passes
    e^_MAX_EXPONENT, and where the series of a |lambda| past about 1e154
    overflows.
    """
    t = _radius(t)
    if t < 0.0:
        raise ValueError("eval_phi needs t >= 0")
    lam = complex(lam)
    _require_finite(lam)
    if not t:
        return 1 + 0j  # the series' value at t = 0, whatever lambda
    if t > _growth_limit(space, lam):
        u = math.inf
    else:
        u = complex(continuation(space, lam, _phi_series).pair(t)[0])
    if not cmath.isfinite(u):
        raise ValueError(f"phi_lambda({t}) overflows the floating-point range "
                         f"(lambda = {lam})")
    return u


# -- connection problem ------------------------------------------------------

_MATCH_CANDIDATES = (0.7, 0.8, 0.9, 1.0, 1.1, 1.2)


def _connection_solve(space, lam, sol):
    """Match sol against (Q_{-lambda}, Q_{+lambda}) at the best-conditioned t*.

    The candidates inside sol's range are scaled and conditioned as one
    stack of matching matrices.  Returns (a_minus, a_plus, condition,
    t_star).
    """
    lam = complex(lam)
    ser_p = _series(space, lam)
    ser_m = _series(space, -lam)
    ts = [t for t in _MATCH_CANDIDATES if sol.t_lo <= t <= sol.t_hi]
    # m[k] = [[Q_-(t_k), Q_+(t_k)], [Q_-'(t_k), Q_+'(t_k)]]
    m = np.array([[ser_m.pair(t), ser_p.pair(t)] for t in ts],
                 dtype=complex).reshape(-1, 2, 2).transpose(0, 2, 1)
    scale = np.linalg.norm(m, axis=1)
    usable = np.all(scale > 0.0, axis=1)
    if not usable.any():
        raise ValueError(
            "solution does not cover any matching point in "
            f"[{_MATCH_CANDIDATES[0]}, {_MATCH_CANDIDATES[-1]}]"
        )
    m, scale, ts = m[usable], scale[usable], [t for t, ok in zip(ts, usable) if ok]
    m = m / scale[:, None, :]
    conds = np.linalg.cond(m)
    best = int(np.argmin(conds))
    cond, ts = float(conds[best]), ts[best]
    if cond > 1e13:
        raise IllConditionedError(
            f"matching matrix condition {cond:.2e} at t*={ts}", condition=cond
        )
    u, v = sol.at(ts)
    x = np.linalg.solve(m[best], np.array([u, v], dtype=complex)) / scale[best]
    return complex(x[0]), complex(x[1]), cond, ts


def connection_coefficients(space, lam):
    """(a_minus, a_plus) = (c(lambda), c(-lambda)), with phi = a_minus
    Q_{-lambda} + a_plus Q_{lambda}, matched from phi's Jacobi series
    (t* <= 1.2) without the closed-form c.  ``boundary.boundary_pair``
    matches any other solution."""
    sol = continuation(space, complex(lam), _phi_series).view(0.0, _MATCH_CANDIDATES[-1] + 0.1)
    return _connection_solve(space, lam, sol)[:2]


# -- Wronskian ---------------------------------------------------------------


def abel_wronskian(space, lam, t):
    """J(t) (phi Q' - phi' Q) for log 2 <= t <= T_PHI.

    By Abel's identity the Wronskian of two solutions times J is constant in
    t, and as t -> 0 phi -> 1 and J phi' Q -> 0, so the value is lim J Q' =
    -2 lambda c(lambda), the limit ``wronskian_limit`` extrapolates.  phi is
    read from its cache entry and Q from its Frobenius series, so both are
    series and neither reads c, unless a large |lambda| moves phi's switch
    below t (the ODE continues phi from there).  ValueError for other t.
    """
    lam = complex(lam)
    t = _radius(t)
    if not T_SWITCH <= t <= T_PHI:
        raise ValueError(f"abel_wronskian needs log 2 <= t <= {T_PHI}, got t = {t}")
    u, du = continuation(space, lam, _phi_series).pair(t)
    q, dq = _series(space, lam).pair(t)
    return space.density_J_t(t) * (u * dq - du * q)



_WRONSKIAN_NODES = 0.4 * 0.65 ** np.arange(12)


def _wronskian_design(ts):
    lg = np.log(ts)
    return np.column_stack([
        np.ones_like(ts), ts**2, ts**3, ts**4, ts**5, ts**6,
        ts**2 * lg, ts**4 * lg,
    ])


def wronskian_limit(space, lam):
    """lim_{t->0} J(t) * dQ_lambda/dt, extrapolated from a geometric grid.

    Equals -2 lambda c(lambda).  The limit is approached with integer powers
    of t together with t^2 log t terms (the two indicial roots differ by an
    integer), so plain Richardson is replaced by a small least-squares fit in
    that basis.  Warns (AccuracyWarning) when the fit's internal error
    estimate exceeds 1e-6 of the value.  A sequence of lambda (with one
    space, or one space per lambda) shares one batched continuation and one
    fit per design, a column per lambda, and gives a list.
    """
    lams, many = _lambdas(lam)
    spaces = _spaces(space, len(lams))
    nodes = _WRONSKIAN_NODES
    sols = q_solution(spaces, lams, float(nodes[-1]))
    density = {s: [s.density_J_t(t) for t in nodes] for s in dict.fromkeys(spaces)}
    w = np.array([[density[sol.space][k] * sol._eval(t)[1] for sol in sols]
                  for k, t in enumerate(nodes)])
    fit, *_ = np.linalg.lstsq(_wronskian_design(nodes), w, rcond=None)
    refit, *_ = np.linalg.lstsq(_wronskian_design(nodes[2:]), w[2:], rcond=None)
    values = [complex(x) for x in fit[0]]
    for sol, value, other in zip(sols, values, refit[0]):
        err = abs(value - complex(other))
        if err > 1e-6 * max(1.0, abs(value)):
            warnings.warn(
                f"Wronskian extrapolation uncertain: estimate {err:.2e} "
                f"(lambda={sol.lam})",
                AccuracyWarning,
            )
    return values if many else values[0]
