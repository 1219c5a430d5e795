"""Exception and warning types shared across the library, and the one
refusal of a non-finite argument."""

import cmath


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


def require_finite(**values):
    """NonFiniteInputError "name = x is not finite" for the first named
    value, a float or a complex, with a nan or infinite part; OutOfRangeError
    for an int past the float range, which no float conversion takes."""
    for name, x in values.items():
        try:
            finite = cmath.isfinite(x)
        except OverflowError:
            # str() of a huge int may itself be refused: the name alone
            raise OutOfRangeError(f"{name} is an int past the floating-point range") from None
        if not finite:
            raise NonFiniteInputError(f"{name} = {x} is not finite")


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
