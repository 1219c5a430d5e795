"""Shared test oracles."""

import mpmath
import pytest


def _mp_c(space, x):
    """c(x) from mpmath's Gamma and reciprocal Gamma at the working
    precision; shares no code with the library's c-function."""
    a1 = mpmath.mpf(space.m_alpha + 2) / 4
    a2 = mpmath.mpf(space.m_alpha + 2 * space.m_2alpha) / 4
    rho = mpmath.mpf(space.m_alpha + 2 * space.m_2alpha) / 2

    def raw(y):
        return (mpmath.gamma(y) * mpmath.power(2, -y)
                * mpmath.rgamma(a1 + y / 2) * mpmath.rgamma(a2 + y / 2))

    return raw(x) / raw(rho)


@pytest.fixture
def mp_c():
    return _mp_c
