"""Exception and warning types shared across the library, and the one gate
through which every public entry point converts its numeric arguments: each
as_* returns the converted argument, refuses a nan or infinite one (or part)
with NonFiniteInputError "name = x is not finite", and a number past the
float range (10**400) with OutOfRangeError "name is past the floating-point
range"."""

import cmath
import math
import numbers

import numpy as np


class PoleSignal(ArithmeticError):
    """An evaluation landed on a pole of a meromorphic quantity.

    Carries the pole location (``at``), its order, and, for simple poles,
    the residue when the caller computed one.
    """

    def __init__(self, message, at=None, order=1, residue=None):
        super().__init__(message)
        self.at = at
        self.order = order
        self.residue = residue


class ResonantExponentError(ValueError):
    """Degenerate Frobenius data: 2*lambda hit the excluded integer set."""


class NonFiniteInputError(ValueError):
    """A nan or infinite argument reached a computation that needs finite
    input."""


def _past_range(name):
    # str() of a huge int may itself be refused: the name alone
    return OutOfRangeError(f"{name} is past the floating-point range")


def as_float(name, x):
    """x as a float; a complex x is refused as as_complex refuses it, else a TypeError."""
    try:
        x = float(x)
    except (OverflowError, TypeError):
        as_complex(name, x)
        raise
    if not math.isfinite(x):
        raise NonFiniteInputError(f"{name} = {x} is not finite")
    return x


def as_complex(name, x):
    try:
        x = complex(x)
    except OverflowError:
        raise _past_range(name) from None
    if not cmath.isfinite(x):
        raise NonFiniteInputError(f"{name} = {x} is not finite")
    return x


def as_int(name, n):
    """n as an int, from an int or an integral float; else ValueError."""
    if isinstance(n, numbers.Integral):
        return int(n)
    if isinstance(n, numbers.Real) and as_float(name, n).is_integer():
        return int(n)
    raise ValueError(f"{name} = {n!r} is not an integer")


def as_array(name, xs, dtype=float):
    """xs as a numpy array of ``dtype`` (float or complex), refused at its first
    nan or infinite element; complex elements of a float array as in as_float."""
    xs = np.asarray(xs)
    try:
        if dtype is float and np.iscomplexobj(xs):  # astype would drop the imaginary parts
            raise TypeError(f"{name} holds a complex number")
        xs = xs.astype(dtype, copy=False)
    except OverflowError:
        raise _past_range(name) from None
    except TypeError:
        as_array(name, xs, complex)
        raise
    finite = np.isfinite(xs)
    if not finite.all():
        raise NonFiniteInputError(f"{name} = {xs[~finite][0]} is not finite")
    return xs


class OutOfRangeError(ValueError):
    """A finite argument too large for floating point to resolve or hold what
    the computation depends on: the c-function lattice past |lambda| = 2^52,
    or c, a Frobenius coefficient or a radial density J(t) past the float range."""


class IllConditionedError(RuntimeError):
    """A value was refused because its condition number is too large."""

    def __init__(self, message, condition=None):
        super().__init__(message)
        self.condition = condition


class DominanceError(ValueError):
    """The leading boundary exponent does not dominate, so a direct limit
    cannot converge (use boundary_pair instead)."""


class StiffnessError(RuntimeError):
    """The terms of a radial ODE Taylor step turn non-finite or do not settle."""


class QuadratureError(RuntimeError):
    """An adaptive quadrature did not converge within its node budget."""


class IndeterminateRankError(RuntimeError):
    """Singular values near the rank threshold are too close to call."""

    def __init__(self, message, gap=None):
        super().__init__(message)
        self.gap = gap


class EnumerationError(RuntimeError):
    """A seeded root search failed to certify its zero.  The seeds are exact
    for the implemented c-functions, so this indicates a defect upstream."""


class AccuracyWarning(UserWarning):
    """An extrapolation or quadrature met its formal stopping rule but the
    internal error estimate is larger than the requested tolerance."""
