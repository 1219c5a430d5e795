"""Rank-one symmetric spaces of noncompact type, reduced to radial data.

A space is described by the root multiplicities ``(m_alpha, m_2alpha)`` and
the normalization ``kappa = <alpha, alpha>`` of the short restricted root.
Everything radial happens on the geodesic coordinate ``t > 0`` or on the
boundary-adapted coordinate ``y = exp(-t)`` in (0, 1), with radial density

    J(y) = y^(-2 rho) (1 - y^2)^m_alpha (1 - y^4)^m_2alpha
         = (2 sinh t)^m_alpha (2 sinh 2t)^m_2alpha,

where ``rho = (m_alpha + 2 m_2alpha) / 2`` is the half-sum of the positive
restricted roots (in units of alpha) and the invariant measure is
``J(y) y^-1 dy db`` with ``db`` the probability measure on the boundary.

The classical families are real hyperbolic space H^n = (n-1, 0), complex
hyperbolic space CH^n = (2(n-1), 1), quaternionic hyperbolic space
HH^n = (4(n-1), 3) and the octonionic plane OH^2 = (8, 7).
"""

from __future__ import annotations

import math
import re
import sys
from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteInputError, OutOfRangeError, as_array, as_float, as_int


@dataclass(frozen=True)
class RankOneSpace:
    """Root multiplicities and metric normalization of a rank-one space."""

    m_alpha: int
    m_2alpha: int = 0
    kappa: float = 1.0

    def __post_init__(self):
        m_alpha, m_2alpha = as_int("m_alpha", self.m_alpha), as_int("m_2alpha", self.m_2alpha)
        kappa = as_float("kappa", self.kappa)
        if m_alpha + 2 * m_2alpha > sys.float_info.max:
            raise OutOfRangeError("2 rho = m_alpha + 2 m_2alpha passes the floating-point range")
        if m_alpha < 1:
            raise ValueError(f"m_alpha must be a positive integer, got {m_alpha}")
        if m_2alpha < 0:
            raise ValueError(f"m_2alpha must be a nonnegative integer, got {m_2alpha}")
        if not kappa > 0:
            raise ValueError(f"kappa must be positive, got {kappa}")
        object.__setattr__(self, "m_alpha", m_alpha)
        object.__setattr__(self, "m_2alpha", m_2alpha)
        object.__setattr__(self, "kappa", kappa)
        # the dataclass hash of the fields, made once: every radial cache
        # lookup hashes its space
        object.__setattr__(self, "_hash", hash((m_alpha, m_2alpha, kappa)))

    def __hash__(self):
        return self._hash

    @property
    def rho(self) -> float:
        """Half sum of positive roots in units of alpha."""
        return 0.5 * self.m_alpha + self.m_2alpha

    @property
    def dim(self) -> int:
        """Dimension of the space, 1 + m_alpha + m_2alpha."""
        return 1 + self.m_alpha + self.m_2alpha

    def density_J(self, y):
        """Radial density J(y) = y^(-2 rho) (1-y^2)^m_alpha (1-y^4)^m_2alpha.

        ``y`` may be a float or an array with entries strictly inside (0, 1).
        """
        y = as_array("y", y)
        if np.any(y <= 0.0) or np.any(y >= 1.0):
            raise ValueError("y must lie strictly inside (0, 1)")
        out = y ** (-2.0 * self.rho) * (1.0 - y**2) ** self.m_alpha
        if self.m_2alpha:
            out = out * (1.0 - y**4) ** self.m_2alpha
        return out if out.ndim else float(out)

    def density_J_t(self, t):
        """J in the geodesic coordinate, (2 sinh t)^m_alpha (2 sinh 2t)^m_2alpha,
        at a float or, node by node, at an array.

        t <= 0 raises ValueError, a nan or infinite t NonFiniteInputError,
        and a J past the floating-point range OutOfRangeError naming its t.
        """
        if not isinstance(t, (float, int)) and np.ndim(t):
            return np.array([self.density_J_t(x) for x in as_array("t", t).tolist()])
        t = t if isinstance(t, float) else as_float("t", t)
        if not math.isfinite(t):  # inline for a float (each node of an array): no gate call
            raise NonFiniteInputError(f"t = {t} is not finite")
        if t <= 0.0:
            raise ValueError("t must be positive")
        try:
            out = ((2.0 * math.sinh(t)) ** self.m_alpha
                   * (2.0 * math.sinh(2.0 * t)) ** self.m_2alpha)
        except OverflowError:
            out = math.inf
        if out < math.inf:
            return out
        raise OutOfRangeError(f"J(t) passes the floating-point range at t = {t}")

    def log_density_dot(self, t):
        """d/dt log J(e^-t) = m_alpha coth t + 2 m_2alpha coth 2t; t <= 0
        raises ValueError and a nan or infinite t NonFiniteInputError, as in
        density_J_t."""
        t = as_array("t", t)
        if np.any(t <= 0.0):
            raise ValueError("t must be positive")
        out = self.m_alpha / np.tanh(t)
        if self.m_2alpha:
            out = out + 2.0 * self.m_2alpha / np.tanh(2.0 * t)
        return out if out.ndim else float(out)

    def __str__(self):
        return (
            f"RankOneSpace(m_alpha={self.m_alpha}, m_2alpha={self.m_2alpha}, "
            f"kappa={self.kappa:g}, rho={self.rho:g}, dim={self.dim})"
        )


def make_space(m_alpha, m_2alpha=0, kappa=1.0) -> RankOneSpace:
    """Construct a space from multiplicities, validating admissibility."""
    return RankOneSpace(m_alpha, m_2alpha, kappa)


_FAMILY_PATTERN = re.compile(r"^(hn|chn|hhn):(\d+)$")

NAMED_SPACES = "h2, h3, hn:<n>, chn:<n>, hhn:<n>, oh2"


def space_from_name(name: str, kappa=1.0) -> RankOneSpace:
    """Resolve a named family: h2, h3, hn:<n>, chn:<n>, hhn:<n>, oh2."""
    key = name.strip().lower()
    if key == "h2":
        return RankOneSpace(1, 0, kappa)
    if key == "h3":
        return RankOneSpace(2, 0, kappa)
    if key == "oh2":
        return RankOneSpace(8, 7, kappa)
    m = _FAMILY_PATTERN.match(key)
    if m is None:
        raise ValueError(f"unknown space name {name!r}; expected one of {NAMED_SPACES}")
    family, n = m.group(1), int(m.group(2))
    if n < 2:
        raise ValueError(f"family {family!r} needs n >= 2, got {n}")
    if family == "hn":
        return RankOneSpace(n - 1, 0, kappa)
    if family == "chn":
        return RankOneSpace(2 * (n - 1), 1, kappa)
    return RankOneSpace(4 * (n - 1), 3, kappa)
