# Geometry layer: multiplicities, named families, radial density, coordinates.

import math

import warnings

import numpy as np
import pytest

from hyperscatter.errors import NonFiniteInputError, OutOfRangeError
from hyperscatter.radial import _phi_series, _series, continuation
from hyperscatter.space import RankOneSpace, make_space, space_from_name

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
    # inf raised a raw OverflowError and nan "cannot convert float NaN to
    # integer"; a multiplicity past the float range passed, and rho raised
    # OverflowError at its first read
    for args in ((math.inf,), (math.nan,), (1, -math.inf), (1, 0, math.nan)):
        with pytest.raises(NonFiniteInputError):
            make_space(*args)
    for args in ((10**400,), (1, 10**400), (1, 0, 10**400)):
        with pytest.raises(OutOfRangeError, match="floating-point range"):
            make_space(*args)


def test_make_space_defaults_and_equality():
    assert make_space(1) == RankOneSpace(1, 0, 1.0)
    assert make_space(2, 1, kappa=2.0).kappa == 2.0


def test_density_same_in_both_coordinates():
    # J(y(t)) = (2 sinh t)^m_alpha (2 sinh 2t)^m_2alpha = J_t(t)
    for name in ("h2", "h3", "hhn:2", "oh2"):
        space = space_from_name(name)
        for t in (0.3, 1.0, 2.5):
            a = space.density_J(math.exp(-t))
            b = space.density_J_t(t)
            assert abs(a - b) <= 1e-10 * abs(b), (name, t)


def test_density_of_a_float_equals_the_array_route():
    # an array is read node by node through the float formula, so the two
    # are equal; where J overflows both raise OutOfRangeError
    for name in ("h2", "h3", "chn:2", "hhn:2", "oh2"):
        space = space_from_name(name)
        ts = np.geomspace(1e-6, 80.0, 200)
        # log J, with 2 sinh t = e^t (1 - e^-2t)
        log_j = (space.m_alpha * (ts + np.log1p(-np.exp(-2.0 * ts)))
                 + space.m_2alpha * (2.0 * ts + np.log1p(-np.exp(-4.0 * ts))))
        finite, over = ts[log_j < 709.0], ts[log_j > 710.0]
        array = space.density_J_t(finite)
        for t, b in zip(finite.tolist(), array.tolist()):
            a = space.density_J_t(t)
            assert type(a) is float
            assert a == b, (name, t)
        for t in over.tolist():
            with pytest.raises(OutOfRangeError):
                space.density_J_t(t)
        if over.size:
            with pytest.raises(OutOfRangeError):
                space.density_J_t(ts)
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


def test_density_past_the_float_range_raises_under_warnings_as_errors():
    # J of oh2 at t = 400 is about e^8800: OutOfRangeError, not an overflow
    # warning, for a float and for an array, which names the first t it
    # refuses; a nan or infinite t is refused, by log_density_dot as well
    # (which returned nan)
    space = space_from_name("oh2")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OutOfRangeError, match="t = 400"):
            space.density_J_t(400.0)
        with pytest.raises(OutOfRangeError, match="t = 400"):
            space.density_J_t(np.array([1.0, 400.0, 500.0]))
        for bad in (math.nan, math.inf, np.array([1.0, math.nan])):
            with pytest.raises(NonFiniteInputError):
                space.density_J_t(bad)
            with pytest.raises(NonFiniteInputError):
                space.log_density_dot(bad)


def test_log_density_dot_refuses_t_at_or_below_zero_under_warnings_as_errors():
    # coth 0 divides by zero: the ValueError density_J_t raises for t <= 0
    space = space_from_name("chn:2")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for bad in (0.0, -1.0, np.array([0.5, 0.0])):
            with pytest.raises(ValueError, match="positive"):
                space.log_density_dot(bad)
            with pytest.raises(ValueError, match="positive"):
                space.density_J_t(bad)


def test_coordinate_roundtrip_and_domains():
    with pytest.raises(ValueError):
        space_from_name("h2").density_J(1.2)


def test_spaces_are_frozen_and_hashable():
    space = space_from_name("h2")
    with pytest.raises(AttributeError):
        space.m_alpha = 3
    assert len({space_from_name(n) for n in ("h2", "h2", "h3")}) == 2


def test_equal_spaces_hash_alike_and_share_cache_entries():
    # the hash is made once per space; equality still compares the fields,
    # so two spaces built apart find each other's radial cache entries
    a, b = RankOneSpace(3, 1), make_space(3, 1, 1)
    assert a is not b and a == b and hash(a) == hash(b) == hash((3, 1, 1.0))
    assert a != RankOneSpace(3, 1, 2.0) and a != RankOneSpace(4, 1)
    assert continuation(a, 0.7 + 0.1j, _phi_series) is continuation(b, 0.7 + 0.1j, _phi_series)
    assert _series(a, 0.7 + 0.1j) is _series(b, 0.7 + 0.1j)
    assert {a: 1}[b] == 1
