"""Meromorphically continued resolvent of the shifted Laplacian.

In the spectral parameter zeta (eigenvalue kappa(rho^2 + zeta^2), physical
half-plane Im zeta < 0) the radial kernel of the resolvent is

    R_zeta(t) = Q_{i zeta}(t) / (2 i kappa zeta c(i zeta)),

continued meromorphically through the real axis.  Poles in Im zeta > 0 sit at
the zeros of c(i zeta) — the resonances — and the continuation breaks down on
the Frobenius exclusion set of Q_{i zeta}; both conditions are reported as
structured exceptions rather than garbage values.

``apply_radial`` realizes the resolvent as an operator on radial data by the
Green representation (variation of parameters with the Wronskian
J (phi Q' - phi' Q) = -2 i zeta c(i zeta), which is what pins the kernel
normalization), its integrals by QUADPACK's QAGS (``quadpack``), and
certifies the output by an ODE-residual check.  Each Gauss-Kronrod rule
reads phi or Q, and J, once on the array of its 21 nodes; the radial data
f is a scalar function, called once per node.

The difference of the two continuations across the axis is rank-one-in-angle
and collapses, at coincident base point, to the spherical function:

    R_{-zeta} - R_{zeta} = i phi_{i zeta}(t) / (2 kappa zeta czz(zeta)),

which is the radial specialization of the resolvent/scattering identity and
the bridge to the spectral measure: ``spectral_density_kernel`` divides the
difference by 2 pi i.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cfunction import for_space
from .errors import PoleSignal, as_array, as_complex, as_float
from .quadpack import quad
from .radial import eval_phi, eval_Q
from .space import RankOneSpace


def _normalization(space, zeta):
    """1/(2 i kappa zeta c(i zeta)) with structured failure at poles.

    Order of checks: zeta = 0 is a domain error; a zero of c(i zeta) is a
    pole of the continued resolvent (PoleSignal); the Frobenius exclusion
    set surfaces later from Q itself (ResonantExponentError).
    """
    if abs(zeta) < 1e-13:
        raise ValueError("zeta = 0: the resolvent continuation is evaluated off zero")
    cf = for_space(space)
    val = cf.value(1j * zeta)  # PoleSignal here means c has a pole: see below
    if val == 0:
        order = cf.local_expansion(1j * zeta)[0]
        raise PoleSignal(
            f"resonance: c(i zeta) vanishes at zeta = {zeta}",
            at=zeta,
            order=order,
        )
    return 1.0 / (2j * space.kappa * zeta * val)


@dataclass(frozen=True)
class ResolventKernel:
    """The continued resolvent kernel at one zeta, as a function of separation."""

    space: RankOneSpace
    zeta: complex
    normalization: complex

    def __call__(self, t):
        t = as_float("t", t)
        if t <= 0.0:
            raise ValueError("kernel is singular at coincident points; need t > 0")
        return self.normalization * eval_Q(self.space, 1j * self.zeta, t)


def kernel_at(space, zeta):
    """ResolventKernel object for repeated evaluation at fixed zeta."""
    zeta = as_complex("zeta", zeta)
    return ResolventKernel(space=space, zeta=zeta, normalization=_normalization(space, zeta))


def kernel(space, zeta, t):
    """R_zeta(t) = Q_{i zeta}(t) / (2 i kappa zeta c(i zeta))."""
    return kernel_at(space, zeta)(t)


def resolvent_difference(space, zeta, t):
    """R_{-zeta}(t) - R_{zeta}(t), computed from the two kernels.

    Tested contract: equals i phi_{i zeta}(t) / (2 kappa zeta czz(zeta));
    this function keeps the two-kernel route so the identity stays a real
    cross-check rather than a definition.
    """
    return kernel(space, -zeta, t) - kernel(space, zeta, t)


def spectral_density_kernel(space, s, t):
    """Radial density of the spectral measure at spectral parameter s > 0.

    (R_{-zeta} - R_{zeta})(t) / (2 pi i) with zeta = sqrt(s / kappa); real
    for s, t > 0 by conjugation symmetry.
    """
    s = as_float("s", s)
    if s <= 0.0:
        raise ValueError("spectral parameter must be positive")
    zeta = math.sqrt(s / space.kappa)
    return resolvent_difference(space, zeta, t) / (2j * math.pi)


def _quad(f, a, b):
    if b <= a:
        return 0j
    return quad(f, a, b)


class ResolventApplication:
    """u = R_zeta f for radial f supported in [t_a, t_b].

    Green representation u = N [ Q(t) int_0^t phi f J + phi(t) int_t^inf Q f J ]
    with N = 1/(2 i kappa zeta c(i zeta)).  ``residual`` reports the defect
    kappa (u'' + b u' + (rho^2 + zeta^2) u) + f by finite differences — the
    operator identity (L - kappa rho^2 - s) u = f in radial form.
    """

    def __init__(self, space, zeta, f, support):
        self.space = space
        self.zeta = as_complex("zeta", zeta)
        self.f = f
        self.t_a, self.t_b = as_float("t", support[0]), as_float("t", support[1])
        if not (0.0 < self.t_a < self.t_b):
            raise ValueError("support must satisfy 0 < t_a < t_b")
        self.normalization = _normalization(space, self.zeta)
        self._J = space.density_J_t

    def _weighted(self, read):
        """The integrand read(t) f(t) J(t) at an array of nodes, read eval_phi
        or eval_Q at lambda = i zeta: one array read of the solution and of
        J, and f called once per node."""
        lam = 1j * self.zeta
        return lambda s: (read(self.space, lam, s) * np.array([self.f(x) for x in s.tolist()])
                          * self._J(s))

    def _inner(self, lo, hi):
        return _quad(self._weighted(eval_phi), lo, hi)

    def _outer(self, lo, hi):
        return _quad(self._weighted(eval_Q), lo, hi)

    def __call__(self, t):
        return self.on_grid([t])[0]

    def on_grid(self, ts):
        """Values on an ascending grid, sharing cumulative segment quadratures;
        an empty grid gives an empty array, and a nan or inf in it raises
        NonFiniteInputError before any quadrature."""
        ts = as_array("t", ts)
        if ts.size == 0:
            return np.empty(0, dtype=complex)
        if np.any(np.diff(ts) <= 0) or ts[0] <= 0.0:
            raise ValueError("grid must be positive and strictly ascending")
        clips = np.clip(ts, self.t_a, self.t_b)
        inner = np.empty(len(ts), dtype=complex)
        outer = np.empty(len(ts), dtype=complex)
        acc = 0j
        prev = self.t_a
        for i, c in enumerate(clips):
            acc += self._inner(prev, c)
            inner[i] = acc
            prev = c
        acc = 0j
        prev = self.t_b
        for i in range(len(ts) - 1, -1, -1):
            acc += self._outer(clips[i], prev)
            outer[i] = acc
            prev = clips[i]
        lam = 1j * self.zeta
        return self.normalization * (eval_Q(self.space, lam, ts) * inner
                                     + eval_phi(self.space, lam, ts) * outer)

    def residual(self):
        """Max |kappa (u'' + b u' + (rho^2 + zeta^2) u) + f| over 13 t (6th-order FD)."""
        ts = np.linspace(max(0.1, 1.5 * self.t_a / 10.0), self.t_b + 1.0, 13)
        h = 2e-3
        k2 = self.space.rho**2 + self.zeta**2
        kap = self.space.kappa
        w2 = np.array([2.0, -27.0, 270.0, -490.0, 270.0, -27.0, 2.0]) / 180.0
        w1 = np.array([-1.0, 9.0, -45.0, 0.0, 45.0, -9.0, 1.0]) / 60.0
        worst = 0.0
        for t in np.atleast_1d(ts):
            t = float(t)
            stencil = np.array([self(t + k * h) for k in range(-3, 4)])
            upp = np.dot(w2, stencil) / (h * h)
            up = np.dot(w1, stencil) / h
            u = stencil[3]
            b = self.space.log_density_dot(t)
            fval = self.f(t) if self.t_a <= t <= self.t_b else 0.0
            worst = max(worst, abs(kap * (upp + b * up + k2 * u) + fval))
        return worst


def apply_radial(space, zeta, f, support):
    """Resolvent applied to radial data f supported in the finite [t_a, t_b] = support.

    The Green integrals are QUADPACK's QAGS (``quad``) to 1e-10 relative,
    with f called once per node on a float: f may have integrable
    singularities such as |s - c|^-1/2 at an end or inside, which its
    extrapolation settles; where QAGS reports a failure (a steeper
    (s - t_a)^-0.9, say, or an f that 200 intervals do not resolve) a value
    raises QuadratureError.
    """
    return ResolventApplication(space, zeta, f, support)
