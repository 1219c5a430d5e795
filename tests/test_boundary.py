# Boundary-value extraction: connection route, Fatou route.

import math
import warnings

import numpy as np
import pytest

from hyperscatter.boundary import boundary_pair, bv_limit
from hyperscatter.cfunction import for_space
from hyperscatter.errors import DominanceError, NonFiniteInputError
from hyperscatter.radial import eval_phi, phi_solution
from hyperscatter.space import space_from_name

H2 = space_from_name("h2")


def test_boundary_pair_of_spherical_function():
    for name, lam in (("h2", 0.8), ("oh2", 1.3), ("chn:2", 0.6 + 0.4j)):
        space = space_from_name(name)
        cf = for_space(space)
        sol = phi_solution(space, lam, 2.6)
        pair = boundary_pair(space, lam, sol)
        assert abs(pair.a_minus - cf.value(lam)) / abs(cf.value(lam)) < 1e-8, name
        assert abs(pair.a_plus - cf.value(-lam)) / abs(cf.value(-lam)) < 1e-8, name
        assert pair.lam == complex(lam)
        assert pair.condition >= 1.0


def test_bv_limit_on_synthetic_two_exponent_data():
    space = H2
    lam = 0.6
    a_minus, a_plus = 1.25, -3.0

    def u(y):
        return (a_minus * y ** (space.rho - lam) * (1.0 + 0.5 * y)
                + a_plus * y ** (space.rho + lam))

    ys = 0.4 * 0.5 ** np.arange(9)
    value, err = bv_limit(space, lam, [(y, u(y)) for y in ys])
    assert abs(value - a_minus) < 1e-9
    assert err < 1e-8


def test_bv_limit_of_spherical_function_is_c():
    space = H2
    cf = for_space(space)
    lam = 0.7
    ys = 0.3 * 0.5 ** np.arange(9)
    samples = [(y, eval_phi(space, lam, -np.log(y))) for y in ys]
    value, _ = bv_limit(space, lam, samples)
    assert abs(value - cf.value(lam)) / abs(cf.value(lam)) < 1e-4


def test_bv_limit_input_validation():
    ys = 0.4 * 0.5 ** np.arange(9)
    samples = [(y, y) for y in ys]
    with pytest.raises(DominanceError):
        bv_limit(H2, 0.1, samples)  # exponents too close to separate
    with pytest.raises(ValueError):
        bv_limit(H2, 0.7, samples[:5])  # too few points
    bad = [(0.4, 1.0), (0.3, 1.0), (0.2, 1.0), (0.1, 1.0),
           (0.05, 1.0), (0.025, 1.0), (0.0125, 1.0)]
    with pytest.raises(ValueError):
        bv_limit(H2, 0.7, bad)  # not a geometric grid
    # nan passed the Re lambda gate and reached numpy's power
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for lam in (math.nan, complex(0.7, math.inf)):
            with pytest.raises(NonFiniteInputError):
                bv_limit(H2, lam, samples)


def test_bv_limit_refuses_non_finite_samples():
    # a nan or infinite y or u once gave (nan+nanj, nan) and a RuntimeWarning
    ys = 0.4 * 0.5 ** np.arange(9)
    good = [(y, y) for y in ys]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for i, bad in ((0, (ys[0], math.nan)), (4, (ys[4], math.inf)),
                       (8, (ys[8], complex(1.0, -math.inf))), (3, (math.nan, 1.0)),
                       (6, (math.inf, 1.0))):
            with pytest.raises(NonFiniteInputError):
                bv_limit(H2, 0.7, good[:i] + [bad] + good[i + 1:])


def test_bv_limit_refuses_samples_at_or_below_the_boundary():
    # y_m = -0.4 * 2^-m passed the ratio check and returned a value off the
    # principal branch of y^(lambda - rho); a sample y = 0 reached the ratio
    # check and warned (divide by zero, invalid value) before it raised
    ys = 0.4 * 0.5 ** np.arange(9)
    grids = [-ys, np.append(ys[:-1], 0.0), np.insert(ys[1:], 0, 0.0),
             np.append(ys[:-1], -ys[-1])]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for grid in grids:
            with pytest.raises(ValueError, match="y > 0"):
                bv_limit(H2, 0.7, [(y, 1.0) for y in grid])
