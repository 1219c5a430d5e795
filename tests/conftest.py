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


def _mp_args(space, lam):
    lam = complex(lam)
    return (mpmath.mpc(lam.real, lam.imag),
            mpmath.mpf(space.m_alpha + 2 * space.m_2alpha) / 2)


@mpmath.workdps(30)
def _mp_phi(space, lam, t):
    """phi_lambda(t) as the Jacobi function (Koornwinder 1984),
    2F1((rho+lambda)/2, (rho-lambda)/2; (m_alpha+m_2alpha+1)/2; -sinh^2 t)."""
    lam, rho = _mp_args(space, lam)
    t = mpmath.mpf(t)
    c = mpmath.mpf(space.m_alpha + space.m_2alpha + 1) / 2
    return complex(mpmath.hyp2f1((rho + lam) / 2, (rho - lam) / 2, c,
                                 -mpmath.sinh(t) ** 2))


@mpmath.workdps(30)
def _mp_q(space, lam, t):
    """Q_lambda(t) as the second-kind Jacobi function, (2 cosh t)^-(rho+lambda)
    2F1((rho+lambda)/2, (m_alpha/2+1+lambda)/2; 1+lambda; cosh^-2 t)."""
    lam, rho = _mp_args(space, lam)
    t = mpmath.mpf(t)
    b = (mpmath.mpf(space.m_alpha) / 2 + 1 + lam) / 2
    return complex(mpmath.power(2 * mpmath.cosh(t), -(rho + lam))
                   * mpmath.hyp2f1((rho + lam) / 2, b, 1 + lam,
                                   1 / mpmath.cosh(t) ** 2))


@pytest.fixture
def mp_c():
    return _mp_c


@pytest.fixture
def mp_jacobi():
    """(phi, Q) of a space at (lambda, t) from mpmath's hypergeometric
    function at 30 digits; shares no code with the library's series or ODE
    routes."""
    return _mp_phi, _mp_q


def pytest_report_header(config):
    # the QAGS port is checked bit for bit against the installed scipy, so
    # a report names the versions it was checked against
    import numpy
    import scipy

    return f"numpy {numpy.__version__}, scipy {scipy.__version__}"
