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
``connection_coefficients`` recovers the pair numerically for any solution,
and ``wronskian_limit`` extrapolates lim_{t->0} J(t) dQ/dt = -2 lambda
c(lambda), which fixes the resolvent normalization.

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
``q_solution`` always integrates, so the connection and Wronskian suites
compare an integrated Q with the closed forms, and the ``jacobi`` suite
compares it with the series.

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
t = 0.01 on (or from its halving for a large |lambda|), so the connection
suite compares an integrated phi with c Q.

All integrations use DOP853 with a vanishing absolute floor, so solutions
spanning forty decades (the octonionic family) keep full relative accuracy.
The ODE is linear and only rho^2 - lambda^2 depends on lambda, so N values
of lambda are integrated as one system at rtol 1e-12/sqrt(N): the step
control measures the RMS error over all 2N components, and the scaling
keeps one lambda's error from hiding behind the others.  A single lambda
runs a scalar right-hand side at rtol 1e-12.  The solutions of one batch
read the shared dense output through one evaluation per t, so the
Wronskian fit's nodes and the connection suite's points cost one
interpolation of all 2N components each, not one per lambda.  The steps
grow with the phase |Im lambda| t, so a piece that would turn through more
than _MAX_PHASE = 1e5 radians is refused with ValueError.

``eval_phi``, ``eval_Q``, ``connection_coefficients`` and the K-type profiles
of ``model_h2`` read one cache, ``continuation``, with one entry per (space,
lambda, kind).  An entry is a Continuation: the analytic start on its side
of the switch point, then ODE pieces, each started from the end of the one
before and ending at a fixed breakpoint: 1.5, 3, 6, ... forward (phi near
the lattice), 0.3, 0.1, 1/30, ... backward (Q).  An entry of phi off the
lattice has no switch and no pieces: it keeps the series coefficients, both
c values and both Frobenius series.  An entry of Q inside the series region
has none either: it keeps the Frobenius series and the second-kind
coefficient rows, with the Gamma prefactors and psi weights folded in.  A
request beyond the last piece adds pieces and never re-solves a span, so a
value depends on the key and t alone, not on the order of the requests.
The ten suites that the benchmark pins make 287 entries and ``verify --all``
makes 537 (the ``jacobi`` suite adds 250).  maxsize 512 holds the pinned
suites, so repeating them in one process rereads every entry; repeating all
eleven cycles 537 entries through 512 places in order and misses every one.
``continuation.cache_info()`` reports the hit rate.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass, field
from functools import cache, cached_property, lru_cache

import numpy as np
from scipy.integrate import solve_ivp
from scipy.special import loggamma, psi

from .cfunction import for_space
from .errors import (AccuracyWarning, IllConditionedError, NonFiniteInputError,
                     ResonantExponentError, StiffnessError)
from .space import RankOneSpace

T_SWITCH = math.log(2.0)  # series/ODE handover at y = 1/2
T_PHI = 1.5  # phi: Jacobi series below, c Q_{-lambda} + c Q_lambda above
T_SEED = 0.01  # phi_solution's ODE starts from the Jacobi series here
EXCLUSION_RADIUS = 1e-6
LATTICE_GUARD = 0.05  # lambda this near an integer: the c Q terms cancel

_SERIES_TOL = 1e-17
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


def _lambdas(lam):
    """(list of complex lambdas, whether lam was a sequence)."""
    if np.ndim(lam) == 0:
        return [complex(lam)], False
    if len(lam) == 0:
        raise ValueError("need at least one lambda")
    return [complex(x) for x in lam], True


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


def frobenius_Q(space, lam, tol=1e-16, max_terms=400):
    """Frobenius coefficients of Q_lambda, adaptively truncated.

    Raises ResonantExponentError when 2*lambda is within 1e-6 of a negative
    integer (vanishing recursion denominator nu(nu + 2 lambda)).
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
    while quiet < 2 and nu + 2 <= max_terms:
        nu += 2
        side = nu % 4 // 2
        h_nu = (m_a * every + m_2a * by_residue[side]) / (nu * (nu + 2.0 * lam))
        term = (e + nu) * h_nu
        every += term
        by_residue[side] += term
        h.append(0j)  # odd coefficient
        h.append(h_nu)
        if nu >= 8 and abs(h_nu) * r**nu < tol:
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
    integrator certified, where ``residual`` checks the ODE by default.
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

    def residual(self, ts=None, h=1e-4):
        """Max ODE defect |u'' + b u' + (rho^2-lam^2)u|.

        u'' is taken by central differences of the stored derivative, so this
        is a genuine consistency check on the integrator output, good to
        roughly h^2 * |u'''|.
        """
        if ts is None:
            ts = self.ts if self.ts is not None else np.linspace(self.t_lo, self.t_hi, 7)
        worst = 0.0
        k2 = self.space.rho**2 - self.lam**2
        for t in np.atleast_1d(ts):
            t = float(t)
            hh = min(h, 0.25 * (t - self.t_lo), 0.25 * (self.t_hi - t))
            if hh <= 0.0:
                continue
            u, v = self.at(t)
            vp = self.at(t + hh)[1]
            vm = self.at(t - hh)[1]
            upp = (vp - vm) / (2.0 * hh)
            defect = upp + self.space.log_density_dot(t) * v + k2 * u
            worst = max(worst, abs(defect))
        return worst


def integrate_radial_ode(space, lams, t_span, inits):
    """Continue (u, u') of the radial ODE across t_span = (t0, t1) for each
    lambda in ``lams``, starting from the matching (u, u') in ``inits``.

    One solve_ivp runs on [u_1..u_N, u'_1..u'_N]; the returned list holds
    one RadialSolution per lambda, each reading its own components of the
    shared dense output.  The dense output is evaluated once per t for the
    whole batch (the last 32 t are kept), not once per solution.  t_span
    may be decreasing (backward continuation toward the singular endpoint).
    Both endpoints must be positive.
    """
    t0, t1 = float(t_span[0]), float(t_span[1])
    if min(t0, t1) <= 0.0:
        raise ValueError("t_span must stay inside (0, inf)")
    lams = [complex(lam) for lam in lams]
    count = len(lams)
    if count == 0 or len(inits) != count:
        raise ValueError("need one initial (u, u') pair per lambda, at least one")
    m_a, m_2a = float(space.m_alpha), float(space.m_2alpha)

    def accel(t, u, v):
        b = m_a / math.tanh(t) + 2.0 * m_2a / math.tanh(2.0 * t)
        return -(b * v + k2 * u)

    # numpy slicing costs more than the arithmetic for a single lambda
    if count == 1:
        k2 = space.rho**2 - lams[0] * lams[0]

        def rhs(t, uv):
            u, v = uv
            return (v, accel(t, u, v))
    else:
        k2 = space.rho**2 - np.array(lams) ** 2

        def rhs(t, uv):
            return np.concatenate((uv[count:], accel(t, uv[:count], uv[count:])))

    y0 = np.array([complex(u) for u, _ in inits] + [complex(v) for _, v in inits],
                  dtype=complex)
    sol = solve_ivp(rhs, (t0, t1), y0, method="DOP853",
                    rtol=_RTOL / math.sqrt(count), atol=_ATOL, dense_output=True)
    if not sol.success:
        raise StiffnessError(f"radial integration failed: {sol.message}")

    # the batch's solutions read the same few t in turn: one dense-output
    # evaluation of all 2N components serves every lambda at that t
    read = lru_cache(maxsize=32)(sol.sol)

    def solution(i):
        def ev(t):
            uv = read(t)
            return uv[i], uv[count + i]

        return RadialSolution(
            space=space,
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

    ``kind(space, lam)`` gives the analytic start (a function of t returning
    (u, u')), the switch point, and the direction the ODE pieces run from
    there: +1 forward, -1 backward.  A switch at the far end (inf forward,
    0 backward) means the start covers every t and no piece is ever
    integrated.
    """

    def __init__(self, space, lam, kind):
        self.space, self.lam = space, lam
        self.start, self.switch, self.sign = kind(space, lam)
        self.reach = self.switch  # far end of the last piece
        self.pieces = []

    def pair(self, t):
        """(u(t), u'(t)), integrating further pieces if t lies beyond them."""
        sign = self.sign
        if (t - self.switch) * sign <= 0.0:
            return self.start(t)
        first, ratio = _FORWARD if sign > 0 else _BACKWARD
        k = 0
        while (t - self.reach) * sign > 0.0:
            while (first * ratio**k - self.reach) * sign <= 0.0:
                k += 1
            _extend([self], first * ratio**k)
        return next(p for p in self.pieces if p.t_lo <= t <= p.t_hi)._eval(t)

    def view(self, t_lo, t_hi, ts=None):
        """A RadialSolution on [t_lo, t_hi] reading this continuation."""
        return RadialSolution(self.space, self.lam, t_lo, t_hi, self.pair, ts)


def _extend(conts, end):
    """Add a piece up to ``end`` to continuations sharing space and reach.

    A forward piece is refused (ValueError) where e^((|Re lambda| - rho) t),
    the growth of every solution, passes e^_MAX_EXPONENT before ``end``:
    the ODE would overflow there.  Any piece is refused where its phase,
    |Im lambda| times its length, passes _MAX_PHASE: the step count grows
    with it.
    """
    head = conts[0]
    if end > head.reach:
        widest = max(conts, key=lambda c: abs(c.lam.real))
        if (abs(widest.lam.real) - head.space.rho) * end > _MAX_EXPONENT:
            raise ValueError(f"the radial solution at lambda = {widest.lam} leaves the "
                             f"floating-point range before t = {end}")
    fastest = max(conts, key=lambda c: abs(c.lam.imag))
    if abs(fastest.lam.imag) * abs(end - head.reach) > _MAX_PHASE:
        raise ValueError(f"the radial ODE at lambda = {fastest.lam} would turn through "
                         f"more than {_MAX_PHASE:g} radians between t = {head.reach} "
                         f"and t = {end}")
    pieces = integrate_radial_ode(head.space, [c.lam for c in conts], (head.reach, end),
                                  [c.pair(head.reach) for c in conts])
    for cont, piece in zip(conts, pieces):
        cont.pieces.append(piece)
        cont.reach = end


# The one cache of radial solutions, keyed by (space, lambda, kind).
continuation = lru_cache(maxsize=512)(Continuation)


# -- the two distinguished solutions ----------------------------------------


def _jacobi_abc(space, lam):
    """(a, b, alpha + 1): phi is cosh(t)^-(rho+lambda) 2F1(a, b; alpha+1; tanh^2 t)."""
    return ((space.rho + lam) / 2.0, (0.5 * space.m_alpha + 1.0 + lam) / 2.0,
            (space.m_alpha + space.m_2alpha + 1) / 2.0)


def _hyp_coefficients(a, b, c, w, size):
    """The terms (a)_n (b)_n / ((c)_n n!) w^n of 2F1(a, b; c; w), made by the
    term ratio: ``size`` of them, or fewer, up to the first that is falling
    and below _SERIES_TOL of the largest (weighted by 1 + log(n+1), the
    growth of Q's psi weights).  OverflowError where a term overflows, or
    where _SERIES_MAX_TERMS terms have not settled."""
    a, b, c = a - 1.0, b - 1.0, c - 1.0
    terms = [1.0 + 0j]
    term, peak, prev = terms[0], 1.0, 1.0
    for n in range(1, size):
        term *= (a + n) * (b + n) / ((c + n) * n) * w
        mag = abs(term) * (1.0 + math.log(n + 1.0))
        if not mag < math.inf:
            raise OverflowError(f"2F1 at w = {w} overflows at term {n}")
        terms.append(term)
        if mag > peak:
            peak = mag
        elif mag < _SERIES_TOL * peak and mag < prev:
            break
        prev = mag
    else:
        if size >= _SERIES_MAX_TERMS:
            raise OverflowError(f"2F1 at w = {w} needs more than {size} terms")
    return np.array(terms)


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
            if not w:  # a and b past 1e154: no reach is small enough
                raise
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


def _phi_series(space, lam):
    """phi: the Jacobi series up to a switch, c Q_{-lambda} + c Q_lambda beyond.

    The switch is T_PHI, or earlier where the series cancels: its terms
    outgrow their sum by about |Im lambda| tanh(t) / 2 decades, so it stops
    where |Im lambda| tanh(t) reaches _SERIES_REACH.  Near the lattice, or
    where the switch falls below log 2 and the Frobenius series of Q no
    longer converge, the ODE continues the series from the switch instead.
    """
    mu = abs(lam.imag)
    series = _jacobi_series(space, lam, T_PHI if mu * math.tanh(T_PHI) <= _SERIES_REACH
                            else math.atanh(_SERIES_REACH / mu))
    switch = series.reach
    if switch < T_SWITCH or _near_lattice(lam):
        return series.pair, switch, 1.0

    @cache
    def connection():
        """c(lambda), c(-lambda), Q_{-lambda}, Q_lambda, made at the first
        read past the switch and kept with the entry."""
        cf = for_space(space)
        return (cf.value(lam), cf.value(-lam),
                _series(space, -lam).pair, _series(space, lam).pair)

    def pair(t):
        if t <= switch:
            return series.pair(t)
        cp, cm, q_minus, q_plus = connection()
        (qm, dqm), (qp, dqp) = q_minus(t), q_plus(t)
        return cp * qm + cm * qp, cp * dqm + cm * dqp

    return pair, math.inf, 1.0


def _phi_seed(space, lam):
    """phi's Jacobi series, continued forward by the ODE from T_SEED, or
    from T_SEED/2, /4, ... where a large |lambda| overflows the series."""
    series = _jacobi_series(space, lam, T_SEED)
    return series.pair, series.reach, 1.0


def _q_series(space, lam):
    """Q's Frobenius series, continued backward from t = log 2."""
    return _series(space, lam).pair, T_SWITCH, -1.0


def _q_second_kind(space, lam):
    """Q: the Frobenius series from log 2 up, the second-kind series below;
    or the backward ODE where that series is conditioned worse than
    _Q_CONDITION * _ODE_RECESSIVE^max(0, -Re lambda)."""
    frobenius = _series(space, lam).pair  # refuses excluded exponents first
    try:
        series = _second_kind_series(space, lam)
    except OverflowError:
        series = None
    bound = math.log(_Q_CONDITION) + max(0.0, -lam.real) * math.log(_ODE_RECESSIVE)
    if series is None or not math.log(series.condition()) <= bound:
        return frobenius, T_SWITCH, -1.0

    def pair(t):
        return frobenius(t) if t >= T_SWITCH else series.pair(t)

    return pair, 0.0, -1.0


def phi_solution(space, lam, t_max):
    """The regular solution phi_lambda solved out to t_max.

    A sequence of lambda is solved as one batch per seed point (T_SEED,
    unless a large |lambda| halves it) and gives a list.
    """
    lams, many = _lambdas(lam)
    t_max = float(t_max)
    if t_max <= T_SEED:
        raise ValueError(f"t_max must exceed the series patch {T_SEED}")
    conts = [Continuation(space, lam, _phi_seed) for lam in lams]
    for seed in dict.fromkeys(c.reach for c in conts):
        _extend([c for c in conts if c.reach == seed], t_max)
    out = [c.view(0.0, t_max, c.pieces[0].ts) for c in conts]
    return out if many else out[0]


def q_solution(space, lam, t_min):
    """Q_lambda on [t_min, inf): series for t >= log 2, ODE continuation below.

    A sequence of lambda is continued as one batch and gives a list.
    """
    lams, many = _lambdas(lam)
    t_min = float(t_min)
    if t_min <= 0.0:
        raise ValueError("Q is singular at t = 0; need t_min > 0")
    conts = [Continuation(space, lam, _q_series) for lam in lams]
    if t_min < T_SWITCH:
        _extend(conts, t_min)
    out = [c.view(t_min, math.inf, c.pieces[0].ts if c.pieces else np.empty(0))
           for c in conts]
    return out if many else out[0]


def eval_Q(space, lam, t):
    """Q_lambda(t): Frobenius series for t >= log 2, the second-kind series
    (or, where it is ill-conditioned, the backward continuation) below."""
    t = float(t)
    if not t > 0.0:
        raise ValueError("eval_Q needs t > 0")
    return complex(continuation(space, complex(lam), _q_second_kind).pair(t)[0])


def eval_phi(space, lam, t):
    """The spherical function phi_lambda(t); entire in lambda, phi(0) = 1.

    phi grows like e^((|Re lambda| - rho) t); ValueError where that passes
    e^_MAX_EXPONENT, or where the ODE piece past t would (near the lattice,
    from about half that t).
    """
    t = float(t)
    if not 0.0 <= t < math.inf:
        raise ValueError("eval_phi needs finite t >= 0")
    lam = complex(lam)
    if (abs(lam.real) - space.rho) * t > _MAX_EXPONENT:
        _require_finite(lam)  # an infinite lambda is refused as such
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

    Returns (a_minus, a_plus, condition, t_star).
    """
    lam = complex(lam)
    ser_p = _series(space, lam)
    ser_m = _series(space, -lam)
    best = None
    for ts in _MATCH_CANDIDATES:
        if not (sol.t_lo <= ts <= sol.t_hi):
            continue
        qm, dqm = ser_m.pair(ts)
        qp, dqp = ser_p.pair(ts)
        m = np.array([[qm, qp], [dqm, dqp]], dtype=complex)
        scale = np.linalg.norm(m, axis=0)
        if not np.all(scale > 0.0):
            continue
        cond = np.linalg.cond(m / scale)
        if best is None or cond < best[0]:
            best = (cond, ts, m, scale)
    if best is None:
        raise ValueError(
            "solution does not cover any matching point in "
            f"[{_MATCH_CANDIDATES[0]}, {_MATCH_CANDIDATES[-1]}]"
        )
    cond, ts, m, scale = best
    if cond > 1e13:
        raise IllConditionedError(
            f"matching matrix condition {cond:.2e} at t*={ts}", condition=cond
        )
    u, v = sol.at(ts)
    x = np.linalg.solve(m / scale, np.array([u, v], dtype=complex)) / scale
    return complex(x[0]), complex(x[1]), float(cond), ts


def connection_coefficients(space, lam, sol=None):
    """(a_minus, a_plus) with sol = a_minus Q_{-lambda} + a_plus Q_{lambda}.

    With sol omitted the spherical function is used, so the result is the
    c-function pair (c(lambda), c(-lambda)), matched from phi's Jacobi series
    (t* <= 1.2) without the closed-form c.
    """
    if sol is None:
        sol = continuation(space, complex(lam), _phi_series).view(
            0.0, _MATCH_CANDIDATES[-1] + 0.1)
    am, ap, _, _ = _connection_solve(space, lam, sol)
    return am, ap


# -- Wronskian limit ---------------------------------------------------------

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
    estimate exceeds 1e-6 of the value.  A sequence of lambda shares one
    batched continuation and gives a list.
    """
    lams, many = _lambdas(lam)
    nodes = _WRONSKIAN_NODES
    values = []
    for sol in q_solution(space, lams, float(nodes[-1])):
        w = np.array([space.density_J_t(t) * sol._eval(t)[1] for t in nodes])
        fit, *_ = np.linalg.lstsq(_wronskian_design(nodes), w, rcond=None)
        refit, *_ = np.linalg.lstsq(_wronskian_design(nodes[2:]), w[2:], rcond=None)
        value = complex(fit[0])
        err = abs(value - complex(refit[0]))
        if err > 1e-6 * max(1.0, abs(value)):
            warnings.warn(
                f"Wronskian extrapolation uncertain: estimate {err:.2e} "
                f"(lambda={sol.lam})",
                AccuracyWarning,
            )
        values.append(value)
    return values if many else values[0]
