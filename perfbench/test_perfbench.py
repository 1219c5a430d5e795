"""Self-tests of the benchmark: python3 -m pytest -q perfbench"""

from __future__ import annotations

import signal
import sys
import time

import pytest

import clock
import run
import tracer as trmod
import workloads as wl


def _library_caches():
    for name, mod in list(sys.modules.items()):
        if name.startswith("hyperscatter."):
            for value in vars(mod).values():
                if hasattr(value, "cache_clear"):
                    yield value


@pytest.fixture(scope="module")
def lib():
    queries = wl.generate_sweep(3)
    families = {q["family"] for q in queries} | set(wl.VERIFY_FAMILIES)
    return run.Library(sorted(families))


def _sample_queries():
    """A few queries of every kind from each workload, kept small."""
    sweep = wl.generate_sweep(3)
    picked, seen = [], {}
    for q in sweep:
        if seen.get(q["kind"], 0) < 2:
            seen[q["kind"]] = seen.get(q["kind"], 0) + 1
            picked.append((wl.WORKLOADS["spectral-sweep"], q))
    scan = wl.generate_scan(3)
    for kind in ("enumerate", "axis_scan", "classify", "scalar", "plancherel",
                 "large"):
        q = next(q for q in scan if q["kind"] == kind)
        if kind == "enumerate":
            q = dict(q, count=5)
        picked.append((wl.WORKLOADS["resonance-scan"], q))
    for suite in ("h3-oracles", "quadrature"):
        picked.append((wl.WORKLOADS["verify-all"], {"kind": "suite", "suite": suite}))
    return picked


def _run(lib, picked):
    return [work.run_query(lib, q) for work, q in picked]


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_same_seed_same_inputs(name):
    gen = wl.WORKLOADS[name].generate
    assert repr(gen(11)) == repr(gen(11))
    if name != "verify-all":
        assert repr(gen(11)) != repr(gen(12))


def test_sweep_mix_is_stratified():
    for seed in (1, 2):
        qs = wl.generate_sweep(seed)
        kinds = [q["kind"] for q in qs]
        for kind, n in wl.SWEEP_MIX + wl.HOSTILE_MIX:
            assert kinds.count(kind) == n
        regular = [q for q in qs if "repeat" in q]
        groups = {}
        for q in regular:
            groups.setdefault((q["family"], q["kind"]), []).append(q)
        for group in groups.values():
            assert sum(q["repeat"] for q in group) == len(group) // 2
            assert not group[0]["repeat"]
            for i, q in enumerate(group):
                if q["repeat"]:
                    assert q["lam"] in [p["lam"] for p in group[:i]]
        for q in regular:
            k = round(2 * q["lam"].real)
            assert abs(2 * q["lam"] - k) >= wl.LATTICE_GAP
            assert wl.RADII[0] < q["radii"][0] < q["radii"][-1] < wl.RADII[1]


def test_tracer_restores_every_name(lib):
    before = trmod.snapshot_bindings()
    original = lib.hs.radial.eval_phi
    suite = lib.hs.verify.SUITES["connection"]
    with trmod.Tracer():
        assert lib.hs.radial.eval_phi is not original
        assert lib.hs.resolvent.eval_phi is lib.hs.radial.eval_phi
        assert lib.hs.verify.SUITES["connection"] is not suite
        assert trmod.snapshot_bindings() != before
    assert trmod.snapshot_bindings() == before
    assert lib.hs.radial.eval_phi is original
    assert lib.hs.verify.SUITES["connection"] is suite


@pytest.fixture(scope="module")
def traced_and_plain(lib):
    picked = _sample_queries()
    plain = _run(lib, picked)
    for cache in _library_caches():
        cache.cache_clear()
    # for_space is memoized too; rebuild the prebuilt spaces' c-functions
    for space in lib.spaces.values():
        lib.hs.for_space(space)
    tr = trmod.Tracer()
    start = time.perf_counter()
    with tr:
        traced = _run(lib, picked)
    wall = time.perf_counter() - start
    return plain, traced, tr, wall


def test_traced_pass_matches_untraced(traced_and_plain):
    plain, traced, tr, _ = traced_and_plain
    assert wl.digest(plain) == wl.digest(traced)
    assert tr.calls_of("radial.ode") > 0 and tr.calls_of("cfunction") > 0


def test_self_times_nonnegative_and_bounded(traced_and_plain):
    _, _, tr, wall = traced_and_plain
    assert all(s.self_time >= -1e-9 for s in tr.stats.values())
    assert all(s.self_time <= s.total + 1e-9 for s in tr.stats.values())
    total_self = sum(tr.layer_self(layer) for layer in trmod.LAYERS)
    assert 0.0 < total_self <= wall


class _Boom(Exception):
    pass


def test_verdict_rules():
    class PoleSignal(ArithmeticError):
        pass
    PoleSignal.__module__ = "hyperscatter.errors"

    raw = wl.Raised(ValueError("x"))
    pole = wl.Raised(PoleSignal("p"))
    assert wl.verdict(1.0) == wl.OK
    assert wl.verdict(float("nan")) == "nonfinite"
    assert wl.verdict(1.0, check=lambda v: False) == "oracle"
    assert wl.verdict(raw) == "ValueError"
    assert wl.verdict(pole) == "PoleSignal"            # regular input: fails
    assert wl.verdict(pole, expect="PoleSignal") == wl.OK
    assert wl.verdict(pole, expect="structured") == wl.OK
    assert wl.verdict(raw, expect="structured") == "ValueError"
    assert wl.verdict(1.0, expect="PoleSignal") == "no-error"
    assert wl.verdict(wl.Raised(_Boom()), expect="PoleSignal") == "_Boom"


def test_verify_rows_are_pinned():
    q = {"kind": "suite", "suite": "residue-relation"}
    row = ("residue-relation", "r", "0.1", "1.0", "pass")
    assert wl.check_verify(None, q, [row] * 4) == [wl.OK] * 4
    raised = wl.check_verify(None, q, [wl.Raised(ValueError("x"))])
    assert raised == ["suite-raised"] * 4
    assert wl.check_verify(None, q, [row] * 3) == [wl.OK] * 3 + ["row-missing"]
    assert wl.check_verify(None, q, [row] * 6) == [wl.OK] * 3 + ["row-extra"]
    assert {"suite-raised", "row-missing", "row-extra"} <= set(wl.WRONG)
    assert set(wl.VERIFY_SUITES) == set(wl.VERIFY_ROWS)


def test_headroom_rules():
    rows = [("s", "a", "0.5", "1.0", "pass"),      # upper bound: 0.5
            ("s", "gap", "4e6", "1e6", "pass"),    # lower bound: 0.25
            ("s", "eq", "4", "4", "pass")]         # equality: skipped
    assert wl.headroom(rows) == 0.5
    assert wl.headroom(rows[1:]) == 0.25
    assert wl.headroom(rows[2:]) == 0.0


def test_clock_subtracts_probes_and_restores_the_alarm_handler():
    before = signal.getsignal(signal.SIGALRM)
    clk = clock.CalibratedClock(clock.ELASTICITY_ODE)
    clk.start()
    begin = clk.mark()
    end = time.perf_counter() + 0.2
    while time.perf_counter() < end:
        pass
    finish = clk.mark()
    clk.stop()
    assert signal.getsignal(signal.SIGALRM) == before
    assert len(clk.times) >= clock.MIN_SAMPLES and clk.spent > 0.0
    assert clk.wall(begin, finish) >= 0.2
    assert clk.seconds(begin, finish) > 0.0
