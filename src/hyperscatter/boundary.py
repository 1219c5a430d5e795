"""Boundary values of radial eigenfunctions.

A tempered eigenfunction has the two-exponent expansion near y = 0

    u(y) = a_minus y^(rho-lambda) (1 + O(y)) + a_plus y^(rho+lambda) (1 + O(y)),

and the pair (a_minus, a_plus) = (bv_{rho-lambda} u, bv_{rho+lambda} u) is the
boundary data this module extracts.  The admissible exponents rho +/- lambda
are the roots of the indicial polynomial I(s) - rho^2 + lambda^2 with
I(s) = -s^2 + 2 rho s; after conjugating the operator by y^(rho-lambda) the
indicial polynomial shifts to I_lambda(s) = -s(s - 2 lambda).

Why the connection problem computes a distributional object: the analytic
construction extends u past y = 0 and corrects by delta layers supported on
the boundary, and the correction of order j is solvable exactly when
I_lambda(-j-1) != 0 — the same nonvanishing of nu(nu + 2 lambda) (nu = j+1)
that makes the Frobenius recursion for Q_lambda solvable at step nu.  The
index shift performed on delta layers and the power-series recursion are one
computation in two dresses, which is why ``boundary_pair`` may read the pair
off the Frobenius series of Q_{+-lambda} and still deserve the name
"boundary value".

Both extraction routes live here:

* ``boundary_pair`` — the primary one, valid on the whole admissible lambda
  set: by Abel's identity each coefficient is u's Wronskian pairing with the
  other Q over -+2 lambda (radial._connection_solve), read at log 2.
* ``bv_limit`` — the Fatou-type limit bv_{rho-lambda} u = lim y^(lambda-rho)
  u(y), extrapolated from samples on a geometric grid.  It needs the leading
  exponent separated from the first correction, hence the Re lambda >= 0.25
  gate; it exists as an independent cross-check of the first route.

Numerical scope: K-finite eigenfunctions (finitely many boundary Fourier
modes).  The analytic theory defines bv on tempered eigenfunctions of
arbitrary growth; that generality has no finite sampling surrogate and is
deliberately not simulated here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DominanceError, IllConditionedError, as_array, as_complex
from .radial import _connection_solve, _lambdas
from .space import RankOneSpace


@dataclass(frozen=True)
class BoundaryPair:
    """Boundary values (a_minus, a_plus) of one radial eigenfunction.

    a_minus multiplies y^(rho-lambda), a_plus multiplies y^(rho+lambda);
    condition times 1e-16 is the coarser coefficient's resolution (inf
    where one is 0).  For the spherical function the pair is (c(lambda),
    c(-lambda)).
    """

    a_minus: complex
    a_plus: complex
    lam: complex
    condition: float


def boundary_pair(space, lam, sol):
    """Extract (bv_{rho-lambda}, bv_{rho+lambda}) of a solved eigenfunction
    whose range covers log 2 (ValueError if not).  IllConditionedError at
    lambda = 0, where the two exponents coincide.  A sequence of lambda, with
    one solution per lambda and one space or one per lambda, gives a list,
    read by one batched Abel pairing."""
    lams, many = _lambdas(lam)
    if not all(lams):
        raise IllConditionedError("at lambda = 0 the exponents coincide", condition=math.inf)
    if not many:
        lam, = lams
        (w_minus, c_minus), (w_plus, c_plus) = _connection_solve(space, (lam, -lam), sol)
        return BoundaryPair(a_minus=w_minus / (-2.0 * lam), a_plus=w_plus / (2.0 * lam),
                            lam=lam, condition=max(c_minus, c_plus))
    (w_minus, c_minus), (w_plus, c_plus) = _connection_solve(space, (lams, [-x for x in lams]), sol)
    x = np.array(lams)
    return [BoundaryPair(a_minus=complex(a), a_plus=complex(b), lam=lam, condition=float(c))
            for a, b, lam, c in zip(w_minus / (-2.0 * x), w_plus / (2.0 * x), lams,
                                    np.maximum(c_minus, c_plus))]


def bv_limit(space, lam, samples):
    """Fatou-route boundary value bv_{rho-lambda} u = lim y^(lambda-rho) u(y).

    ``samples`` is a sequence of (y_m, u(y_m)) on a geometric grid
    y_m = y0 * 2^(-m), m = 0..M with M >= 6.  The limit is extracted by a
    least-squares fit of y^(lambda-rho) u against the two-exponent correction
    model a_minus (1 + O(y)) + a_plus y^(2 lambda) (1 + O(y)); returns
    (value, error_estimate), the estimate from refitting on the tail of the
    grid.  Raises DominanceError for Re lambda < 0.25, where the y^(2 lambda)
    branch is not separated enough for limit extraction (use boundary_pair),
    NonFiniteInputError for a nan or infinite lambda, y or u, and ValueError
    for a sample with y <= 0, where y^(lambda-rho) leaves the boundary limit.
    """
    lam = as_complex("lambda", lam)
    if lam.real < 0.25:
        raise DominanceError(
            f"Re lambda = {lam.real} < 0.25: boundary exponents too close "
            "for the limit route; use boundary_pair instead"
        )
    ys = as_array("y", [y for y, _ in samples])
    us = as_array("u", [u for _, u in samples], complex)
    if np.any(ys <= 0.0):
        raise ValueError("bv_limit samples need y > 0")
    if len(ys) < 7:
        raise ValueError("need at least 7 geometric samples (M >= 6)")
    ratios = ys[1:] / ys[:-1]
    if np.any(np.abs(ratios - 0.5) > 1e-9):
        raise ValueError("samples must sit on a geometric grid y0 * 2^-m")
    w = ys ** (lam - space.rho) * us

    def fit(yy, ww):
        cols = [np.ones_like(yy), yy, yy**2, yy**3,
                yy ** (2 * lam), yy ** (2 * lam + 1), yy ** (2 * lam + 2)]
        a = np.column_stack(cols).astype(complex)
        coef, *_ = np.linalg.lstsq(a, ww, rcond=None)
        return complex(coef[0])

    value = fit(ys, w)
    check = fit(ys[2:], w[2:])
    return value, abs(value - check)
