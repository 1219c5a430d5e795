# Resonance enumeration, residue scalars, contour cross-checks.

import math

import mpmath
import numpy as np
import pytest

from hyperscatter import resonances, scattering
from hyperscatter.cfunction import CFunction, for_space
from hyperscatter.errors import EnumerationError, OutOfRangeError, PoleSignal
from hyperscatter.model_h2 import residue_rank
from hyperscatter.radial import eval_phi
from hyperscatter.resonances import (
    enumerate_resonances,
    residue_contour_probe,
    residue_kernel,
    residue_scalar,
)
from hyperscatter.scattering import KIND_RESONANCE, classify_poles
from hyperscatter.space import space_from_name

H2 = space_from_name("h2")


def test_h2_ladder_and_residues():
    recs = enumerate_resonances(H2, 6)
    assert len(recs) == 6
    for k, rec in enumerate(recs):
        assert rec.k == k
        assert abs(rec.zeta - 1j * (0.5 + k)) < 1e-10
        # closed-form residue scalar is -i/2 at every rung of this family
        assert abs(rec.residue_scalar - (-0.5j)) < 1e-9


def test_h3_has_no_resonances():
    assert enumerate_resonances(space_from_name("h3"), 8) == []


def test_step_two_families():
    recs = enumerate_resonances(space_from_name("chn:2"), 4)
    for k, rec in enumerate(recs):
        assert abs(rec.zeta - 1j * (2.0 + 2 * k)) < 1e-10
    recs = enumerate_resonances(space_from_name("hhn:2"), 2)
    for k, rec in enumerate(recs):
        assert abs(rec.zeta - 1j * (5.0 + 2 * k)) < 1e-10
    recs = enumerate_resonances(space_from_name("oh2"), 2)
    for k, rec in enumerate(recs):
        assert abs(rec.zeta - 1j * (11.0 + 2 * k)) < 1e-10


def test_multiplicity_estimates_follow_odd_ladder():
    recs = enumerate_resonances(H2, 3)
    assert [rec.multiplicity_estimate for rec in recs] == [1, 3, 5]
    # only the disk model carries a rank oracle
    recs = enumerate_resonances(space_from_name("chn:2"), 1)
    assert recs[0].multiplicity_estimate is None


def test_multiplicity_counts_ktypes_at_every_index():
    # the K-type count gives 2k+1 where the SVD rank turns indeterminate
    # (k >= 11), and agrees with it where the SVD is decisive
    recs = enumerate_resonances(H2, 50)
    assert [rec.multiplicity_estimate for rec in recs] == [2 * k + 1 for k in range(50)]
    for rec in recs[:11]:
        assert rec.multiplicity_estimate == residue_rank(rec.k), rec.k


def test_completeness_guard_accepts_true_lists():
    enumerate_resonances(H2, 3, verify_complete=True)
    enumerate_resonances(space_from_name("chn:2"), 2, verify_complete=True)


def test_residue_kernel_is_scalar_times_spherical():
    rec = enumerate_resonances(H2, 1)[0]
    for t in (0.5, 1.7):
        ratio = residue_kernel(H2, rec, t) / eval_phi(H2, 1j * rec.zeta, t)
        assert abs(ratio - rec.residue_scalar) < 1e-12
    assert residue_scalar(H2, rec) == rec.residue_scalar


def test_contour_probe_matches_formula():
    for name, count in (("h2", 2), ("chn:2", 1)):
        space = space_from_name(name)
        for rec in enumerate_resonances(space, count):
            est, second = residue_contour_probe(space, rec, 1.0)
            rel = abs(est - rec.residue_scalar) / abs(rec.residue_scalar)
            assert rel < 1e-8, (name, rec.k)
            assert second < 1e-10, (name, rec.k)


def test_contour_probe_independent_of_base_point():
    # the probe divides out phi before integrating, so the ratio residue
    # cannot depend on where the kernel is sampled
    rec = enumerate_resonances(H2, 1)[0]
    a, _ = residue_contour_probe(H2, rec, 0.8)
    b, _ = residue_contour_probe(H2, rec, 1.6)
    assert abs(a - b) < 1e-9


def test_empty_and_zero_counts():
    assert enumerate_resonances(H2, 0) == []


@pytest.mark.parametrize("count", [-1, 2.5, math.nan, math.inf, "3", None])
def test_count_must_be_a_non_negative_integer(count):
    with pytest.raises(ValueError):
        enumerate_resonances(H2, count)
    with pytest.raises(ValueError):
        classify_poles(H2, count)


@pytest.mark.parametrize("name, limit", [("h2", 2**52), ("chn:2", 2**51 - 1), ("h3", 2**52 - 1)])
def test_a_count_past_the_lattice_limit_is_refused_before_any_seed(name, limit, monkeypatch):
    # the seeds were made before any check: classify_poles(h2, 10**400)
    # built a list of 10**400 of them and exhausted memory.  The top rung
    # rho + j (count - 1) (j = 1 on h3, which has no rungs) must stay below
    # c's lattice limit 2^52; at the largest count that does, ``limit``, the
    # patched czz_zeros_upper is reached
    def refuse(self, count):
        raise AssertionError("a seed was made")

    monkeypatch.setattr(CFunction, "czz_zeros_upper", refuse)
    space = space_from_name(name)
    for call in (enumerate_resonances, classify_poles, resonances.certified_rungs):
        for count in (limit + 1, 10**400):
            with pytest.raises(OutOfRangeError, match="2\\^52"):
                call(space, count)
        with pytest.raises(AssertionError, match="a seed was made"):
            call(space, limit)


def test_winding_check_catches_a_missing_zero(monkeypatch):
    # a lattice prediction that leaves out one resonance must disagree with
    # the argument-principle count
    space = space_from_name("chn:2")
    cf = for_space(space)
    full = resonances._lattice_candidates

    def drop_first_zero(space, cf, lo, hi):
        ys = full(space, cf, lo, hi)
        first = next(y for y in ys if cf.zero_order(-y) == 1)
        return [y for y in ys if y != first]

    resonances._winding_check(space, cf)
    monkeypatch.setattr(resonances, "_lattice_candidates", drop_first_zero)
    with pytest.raises(EnumerationError):
        resonances._winding_check(space, cf)


TURN_FAMILIES = ["h2", "h3", "hn:4", "hn:7", "hn:12", "chn:2", "chn:4", "chn:8",
                 "hhn:2", "hhn:4", "hhn:6", "oh2"]


def _full_rectangle_turns(cf, lo, hi):
    # 800 points on each side of [-0.25, 0.25] x [lo, hi], counterclockwise
    corners = [complex(-0.25, lo), complex(0.25, lo), complex(0.25, hi), complex(-0.25, hi)]
    s = np.arange(800) / 800
    vals = cf.czz(np.concatenate([a + (b - a) * s
                                  for a, b in zip(corners, corners[1:] + corners[:1])]))
    return float(np.sum(np.angle(vals / np.roll(vals, 1))) / (2.0 * np.pi))


@pytest.mark.parametrize("name", TURN_FAMILIES)
def test_half_path_count_equals_the_full_rectangle(name):
    # czz(-conj zeta) = conj czz(zeta): the right half of the rectangle,
    # divided by pi, counts what the whole rectangle's 3,200 points count
    space = space_from_name(name)
    cf = for_space(space)
    lo, hi = 0.11, 3.0 * space.rho + 6.13  # as _winding_check sets them
    turns = resonances._turns(cf, lo, hi)
    assert abs(turns - _full_rectangle_turns(cf, lo, hi)) < 1e-9
    assert abs(turns - round(turns)) < 1e-9


def test_winding_check_sees_a_mirror_pair_off_the_axis():
    # zeros at zeta0 = 0.1 + 2.3i and -conj zeta0, inside the rectangle but
    # off the lattice: the count rises by 2, one zero in each half
    space = space_from_name("h2")
    cf = CFunction(space)  # not the memoized one: _turns caches per CFunction
    zeta0 = 0.1 + 2.3j
    czz = cf.czz
    cf.czz = lambda zeta: czz(zeta) * (zeta - zeta0) * (zeta + zeta0.conjugate())
    with pytest.raises(EnumerationError):
        resonances._winding_check(space, cf)


def test_certificate_rejects_a_point_that_is_no_zero():
    # czz on h3 is a multiple of 1/zeta^2, nonzero at 2.5i: the point
    # fails the certificate
    with pytest.raises(EnumerationError):
        resonances._certify(for_space(space_from_name("h3")), np.array([2.5j]))


def test_certificate_is_scale_free():
    # multiplying c by e^(+-300) scales czz and czz' by e^(+-600); the
    # certificate reads both against czz half a rung off the axis, so the
    # same ladder certifies
    space = space_from_name("oh2")
    ladder = [rec.zeta for rec in enumerate_resonances(space, 30)]
    for shift in (-300.0, 300.0):
        cf = CFunction(space)
        cf.log_c0 += shift
        seeds = cf.czz_zeros_upper(30)
        resonances._certify(cf, np.array(seeds))
        assert seeds == ladder


# oh2, hhn:3 and chn:3 pass where |czz'| at the zero has fallen below 1e-8
# (oh2 and hhn:3 from 53i, chn:3 from 161i), which a certificate with an
# absolute bound on the derivative refused
LARGE_COUNTS = {"chn:2": 200, "hn:4": 200, "oh2": 30, "hhn:3": 30, "chn:3": 200}


@pytest.mark.parametrize("name", list(LARGE_COUNTS))
def test_large_index_residues_stay_finite(name, mp_c):
    # factorials in the local data of c pass the float range from k = 171
    # on; the residue scalars -1/(2 kappa zeta c'(i zeta) c(-i zeta)) grow
    # only polynomially.  The reference reads c' at the simple zero
    # lam0 = i zeta as c(lam0 + e)/e at 60 digits.
    space = space_from_name(name)
    count = LARGE_COUNTS[name]
    recs = enumerate_resonances(space, count)
    assert len(recs) == count
    for rec in recs:
        with mpmath.workdps(60):
            lam0 = -mpmath.mpf(round(2 * rec.zeta.imag)) / 2
            e = mpmath.mpf("1e-25")
            cprime = mp_c(space, lam0 + e) / e
            zeta = mpmath.mpc(0, -lam0)
            want = complex(-1 / (2 * space.kappa * zeta * cprime * mp_c(space, -lam0)))
        rel = abs(rec.residue_scalar - want) / abs(want)
        assert rel < 1e-9, (name, rec.k)


def _mp_residue(space, mp_c, zeta):
    """-1/(2 kappa zeta c'(i zeta) c(-i zeta)) at 60 digits, c' read at the
    simple zero lam0 = i zeta as c(lam0 + e)/e."""
    with mpmath.workdps(60):
        lam0 = -mpmath.mpf(round(2 * zeta.imag)) / 2
        e = mpmath.mpf("1e-25")
        cprime = mp_c(space, lam0 + e) / e
        return complex(-1 / (2 * space.kappa * mpmath.mpc(0, -lam0) * cprime
                             * mp_c(space, -lam0)))


HIGH_COUNTS = {"chn:2": 200, "chn:3": 200, "oh2": 200, "hhn:3": 200, "h2": 60}


@pytest.mark.parametrize("name", list(HIGH_COUNTS))
def test_ladder_residues_at_high_index(name, mp_c):
    # the array pass against the scalar routes at every rung, and a stride
    # of rungs against mpmath
    space = space_from_name(name)
    cf = for_space(space)
    count = HIGH_COUNTS[name]
    recs = enumerate_resonances(space, count)
    assert len(recs) == count
    for rec in recs:
        want = residue_scalar(space, rec)
        assert abs(rec.residue_scalar - want) <= 2e-12 * abs(want), rec.k
    for rec in recs[::13]:
        want = _mp_residue(space, mp_c, rec.zeta)
        assert abs(rec.residue_scalar - want) <= 2e-12 * abs(want), rec.k
    for pole in classify_poles(space, count):
        if pole.kind == KIND_RESONANCE:
            lam = 1j * pole.zeta
            want = scattering._resonance_residue(cf.value(-lam), cf.derivative(lam))
        else:
            with pytest.raises(PoleSignal) as info:
                scattering.scalar(space, pole.zeta)
            want = info.value.residue
        assert abs(pole.residue_scalar - want) <= 2e-12 * abs(want), pole.zeta


LADDER_FAMILIES = ["h2", "h3", "chn:2", "chn:3", "hhn:2", "hhn:3", "oh2", "hn:4"]
REQUEST_ORDERS = {
    "ascending": [5, 12, 30, 100, 200],
    "descending": [200, 100, 30, 12, 5],
    "interleaved": [5, "classify", 30, "classify", 12, 200, "classify", 100],
}


def _serve(monkeypatch, space, cf):
    """Serve cf as the CFunction of space (only) through resonances.for_space."""
    monkeypatch.setattr(resonances, "for_space",
                        lambda s: cf if s == space else for_space(s))


def _one_pass(space, n, cf=None):
    """The first n rungs as one _certify pass over the first n seeds of a
    fresh CFunction gives them: (records, c'(i zeta), c(-i zeta))."""
    cf = CFunction(space) if cf is None else cf
    zetas = np.array(cf.czz_zeros_upper(n), dtype=complex)
    dc, c_minus = resonances._certify(cf, zetas)
    records = [resonances.ResonanceRecord(zeta, k, resonances._residue(space, zeta, d, c), mult)
               for k, (zeta, d, c, mult) in enumerate(zip(
                   zetas.tolist(), dc.tolist(), c_minus.tolist(),
                   resonances._multiplicities(space, 0, n)))]
    return records, dc.tolist(), c_minus.tolist()


@pytest.mark.parametrize("order", list(REQUEST_ORDERS))
@pytest.mark.parametrize("name", LADDER_FAMILIES)
def test_ladder_equals_one_certificate_pass_in_any_request_order(name, order, monkeypatch):
    # every request reads the ladder of one fresh CFunction; each answer must
    # equal, bit for bit (repr shows every digit and signed zeros), a single
    # certificate pass over its first n seeds, and _certify must see each
    # rung once over the whole sequence
    space = space_from_name(name)
    counts = REQUEST_ORDERS[order]
    cf = CFunction(space)
    _serve(monkeypatch, space, cf)
    certify, sizes = resonances._certify, []

    def counting(cf_, zetas):
        if cf_ is cf:  # not _one_pass's fresh CFunction
            sizes.append(len(zetas))
        return certify(cf_, zetas)

    monkeypatch.setattr(resonances, "_certify", counting)
    for n in counts:
        if n == "classify":
            records, dc, c_minus = _one_pass(space, 12)
            want = [scattering.ScatteringPole(rec.zeta, KIND_RESONANCE, -1j * c / d)
                    for rec, d, c in zip(records, dc, c_minus)]
            got = [p for p in classify_poles(space, 12) if p.kind == KIND_RESONANCE]
            assert repr(got) == repr(want)
        else:
            got = enumerate_resonances(space, n)
            assert len(got) == len(cf.czz_zeros_upper(n))
            assert repr(got) == repr(_one_pass(space, n)[0]), n
    top = max(n for n in counts if n != "classify")
    assert sum(sizes) == len(cf.czz_zeros_upper(top))


def test_ladder_refuses_past_a_rung_off_the_lattice(monkeypatch):
    # rung 9 of a fresh chn:2 c-function is seeded 0.3 off the lattice, where
    # czz is no zero: every request past it raises the message one pass over
    # its seeds raises, and leaves the ladder as it was; every request below
    # it still returns
    space = space_from_name("chn:2")

    def shifted():
        cf = CFunction(space)
        seeds = cf.czz_zeros_upper
        cf.czz_zeros_upper = lambda count: [z + (0.3j if k == 9 else 0)
                                            for k, z in enumerate(seeds(count))]
        return cf

    cf = shifted()
    _serve(monkeypatch, space, cf)
    for n in (3, 12, 9, 10, 30, 5, 200, 8, 10):
        have = len(resonances._ladder(cf))
        if n <= 9:
            got = enumerate_resonances(space, n)
            assert repr(got) == repr(_one_pass(space, n, shifted())[0]), n
            continue
        with pytest.raises(EnumerationError) as direct:
            _one_pass(space, n, shifted())
        with pytest.raises(EnumerationError) as info:
            enumerate_resonances(space, n)
        assert str(info.value) == str(direct.value), n
        with pytest.raises(EnumerationError) as info:
            classify_poles(space, n)
        assert str(info.value) == str(direct.value), n
        assert len(resonances._ladder(cf)) == have
    assert len(resonances._ladder(cf)) == 9


@pytest.mark.parametrize("name", ["h2", "chn:2", "hhn:3", "oh2"])
def test_classify_reads_its_resonances_off_the_ladder(name, monkeypatch):
    # once the ladder holds 12 rungs, classify_poles makes one array pass
    # of c, over the intertwiner candidates -k/2 and k/2 alone, and no
    # certificate
    space = space_from_name(name)
    enumerate_resonances(space, 12)
    expand, seen = CFunction._expand, []

    def recording(self, lam, slope):
        seen.append((np.array(lam), slope))
        return expand(self, lam, slope)

    def refuse(cf, zetas):
        raise AssertionError("a rung was certified again")

    monkeypatch.setattr(CFunction, "_expand", recording)
    monkeypatch.setattr(resonances, "_certify", refuse)
    poles = classify_poles(space, 12)
    assert sum(p.kind == KIND_RESONANCE for p in poles) == 12
    ks = np.arange(1, 13)
    assert len(seen) == 1
    lam, slope = seen[0]
    assert not slope
    assert np.array_equal(lam, np.concatenate([-0.5 * ks, 0.5 * ks]))
