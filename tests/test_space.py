# Geometry layer: multiplicities, named families, radial density, coordinates.

import math

import numpy as np
import pytest

from hyperscatter.space import (
    RankOneSpace,
    make_space,
    space_from_name,
    t_of_y,
    y_of_t,
)

EXPECTED_FAMILIES = {
    "h2": (1, 0, 0.5, 2),
    "h3": (2, 0, 1.0, 3),
    "hn:4": (3, 0, 1.5, 4),
    "chn:2": (2, 1, 2.0, 4),
    "chn:3": (4, 1, 3.0, 6),
    "hhn:2": (4, 3, 5.0, 8),
    "oh2": (8, 7, 11.0, 16),
}


def test_named_families_multiplicities_rho_dim():
    for name, (ma, m2a, rho, dim) in EXPECTED_FAMILIES.items():
        space = space_from_name(name)
        assert space.m_alpha == ma, name
        assert space.m_2alpha == m2a, name
        assert space.rho == rho, name
        assert space.dim == dim, name


def test_name_parsing_is_case_and_space_tolerant():
    assert space_from_name(" H2 ") == space_from_name("h2")
    assert space_from_name("CHN:2") == space_from_name("chn:2")


def test_unknown_names_rejected():
    for bad in ("h0", "h4", "hn:1", "chn:1", "xx", "oh3", "hn:", "hn:two"):
        with pytest.raises(ValueError):
            space_from_name(bad)


def test_invalid_multiplicities_rejected():
    with pytest.raises(ValueError):
        RankOneSpace(0, 0)
    with pytest.raises(ValueError):
        RankOneSpace(-2, 0)
    with pytest.raises(ValueError):
        RankOneSpace(1, -1)
    with pytest.raises(ValueError):
        RankOneSpace(1.5, 0)
    with pytest.raises(ValueError):
        RankOneSpace(1, 0, kappa=0.0)
    with pytest.raises(ValueError):
        RankOneSpace(1, 0, kappa=-3.0)
    with pytest.raises(ValueError):
        RankOneSpace(1, 0, kappa=float("inf"))


def test_make_space_defaults_and_equality():
    assert make_space(1) == RankOneSpace(1, 0, 1.0)
    assert make_space(2, 1, kappa=2.0).kappa == 2.0


def test_density_same_in_both_coordinates():
    # J(y(t)) = (2 sinh t)^m_alpha (2 sinh 2t)^m_2alpha = J_t(t)
    for name in ("h2", "h3", "hhn:2", "oh2"):
        space = space_from_name(name)
        for t in (0.3, 1.0, 2.5):
            a = space.density_J(y_of_t(t))
            b = space.density_J_t(t)
            assert abs(a - b) <= 1e-10 * abs(b), (name, t)


def test_density_of_a_float_equals_the_array_route():
    # a float t takes math's sinh, an array numpy's: 3e-15 apart at most.
    # Where J overflows, a float takes numpy's route too and gives inf
    for name in ("h2", "h3", "chn:2", "hhn:2", "oh2"):
        space = space_from_name(name)
        ts = np.geomspace(1e-6, 80.0, 200)
        with np.errstate(over="ignore"):
            array = space.density_J_t(ts)
            for t, b in zip(ts.tolist(), array.tolist()):
                a = space.density_J_t(t)
                assert type(a) is float
                assert a == b == math.inf or abs(a - b) <= 5e-15 * b, (name, t)
    with pytest.raises(ValueError):
        space_from_name("h2").density_J_t(0.0)


def test_density_small_t_growth():
    # J ~ t^m_alpha (2t)^... to leading order: check J_t(t)/t^(m_alpha+m_2alpha) -> 2^m * 4^m2
    space = space_from_name("chn:2")
    t = 1e-5
    lead = (2.0 * t) ** space.m_alpha * (4.0 * t) ** space.m_2alpha
    assert abs(space.density_J_t(t) / lead - 1.0) < 1e-8


def test_log_density_dot_matches_difference_quotient():
    space = space_from_name("oh2")
    h = 1e-6
    for t in (0.4, 1.1, 2.0):
        fd = (math.log(space.density_J_t(t + h))
              - math.log(space.density_J_t(t - h))) / (2.0 * h)
        assert abs(space.log_density_dot(t) - fd) < 1e-6


def test_coordinate_roundtrip_and_domains():
    ts = np.array([0.05, 0.7, 3.0, 12.0])
    assert np.allclose(t_of_y(y_of_t(ts)), ts, rtol=0, atol=1e-12)
    assert y_of_t(2.0) == math.exp(-2.0)
    with pytest.raises(ValueError):
        y_of_t(0.0)
    with pytest.raises(ValueError):
        y_of_t(-1.0)
    with pytest.raises(ValueError):
        t_of_y(0.0)
    with pytest.raises(ValueError):
        t_of_y(1.0)
    with pytest.raises(ValueError):
        space_from_name("h2").density_J(1.2)


def test_spaces_are_frozen_and_hashable():
    space = space_from_name("h2")
    with pytest.raises(AttributeError):
        space.m_alpha = 3
    assert len({space_from_name(n) for n in ("h2", "h2", "h3")}) == 2
