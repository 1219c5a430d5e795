"""The benchmark's three workloads: seeded inputs, timed passes, checks.

Every workload is a single-threaded closed loop: one caller, and the next
query starts only when the previous one has returned.  A query is what a
user would issue in one go (one verify suite, one point evaluation at four
radii, one scan of a family); an op is one library call inside it, and ops
are what ``attempted`` and ``failed`` count.

Inputs are plain Python data made from the seed by ``random.Random``; the
library only ever sees those values.  This module imports neither numpy
nor the library at import time, so the set-up timing in ``run.py`` covers
the library import and nothing else.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import math
import random

from clock import ELASTICITY_CFUNCTION, ELASTICITY_ODE

# The ten suites that exist at the commit that defined the benchmark, with
# the number of rows each printed there.  The list is pinned: a suite added
# later does not change the workload.  A suite that raises, or prints fewer
# rows, fails its missing rows as wrong outputs instead of shrinking
# ``attempted``; one that prints more rows is wrong too.
VERIFY_ROWS = {"connection": 125, "wronskian": 125, "h3-oracles": 9,
               "resonances": 16, "quadrature": 10, "fatou": 36,
               "scattering": 14, "residues": 10, "residue-relation": 4,
               "poles": 15}
VERIFY_SUITES = tuple(VERIFY_ROWS)
VERIFY_FAMILIES = ("h2", "h3", "chn:2", "hhn:2", "oh2")

# Family slots of the seeded workloads: the verify families, plus one slot
# each for hn:<n>, chn:<n> and hhn:<n> whose n (2..4) is drawn per use.
SLOTS = VERIFY_FAMILIES + ("hn", "chn", "hhn")

# spectral-sweep: queries per pass by kind (70% point, 20% connection,
# 5% apply_radial) and the hostile 5%, stratified so every pass has the
# same mix and only the drawn values differ between seeds.  The Q and
# kernel queries of a pass fill 204..248 entries of the library's
# 256-entry backward-continuation cache (seeds 0..2999): every seed's warm
# pass finds all of them.  Near 256 the warm pass would be three times
# faster on the few seeds that fit than on the rest.
SWEEP_MIX = (("phi", 60), ("Q", 60), ("kernel", 60), ("connection", 50),
             ("apply", 13))
HOSTILE_MIX = (("exclusion", 5), ("resonance", 5), ("nonfinite", 3))
RADII = (0.005, 6.0)
LAMBDA_BOX = (2.9, 1.2)        # |Re lambda| < 2.9, |Im lambda| < 1.2
LATTICE_GAP = 0.1              # |2 lambda - k| >= 0.1 for every integer k
NONFINITE = (float("nan"), float("inf"), float("-inf"),
             complex(float("nan"), 0.5), complex(0.5, float("inf")))

# resonance-scan: rounds over the family slots per pass, and draws per family
SCAN_ROUNDS = 3
SCAN_POINTS = 50
LARGE_COUNTS = (100, 200)

# Relative tolerances of the output checks (verify uses 1e-8 for the
# connection pair as well).
TOL = 1e-9
TOL_CONNECTION = 1e-8

OK = "ok"
# failure reasons that mean a wrong output rather than a refused one
WRONG = ("oracle", "nonfinite", "no-error", "row-failed", "suite-raised",
         "row-missing", "row-extra")


class Raised:
    """An op that raised: its exception type and defining module."""

    __slots__ = ("name", "module")

    def __init__(self, exc):
        self.name = type(exc).__name__
        self.module = type(exc).__module__

    def __repr__(self):
        return f"Raised({self.module}.{self.name})"


def _call(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except Exception as exc:  # every failure is recorded, none stops the pass
        return Raised(exc)


# -- family names without the library ------------------------------------------


def multiplicities(name):
    """(m_alpha, m_2alpha) of a family name, as space_from_name reads it."""
    fixed = {"h2": (1, 0), "h3": (2, 0), "oh2": (8, 7)}
    if name in fixed:
        return fixed[name]
    family, n = name.split(":")
    n = int(n)
    return {"hn": (n - 1, 0), "chn": (2 * (n - 1), 1),
            "hhn": (4 * (n - 1), 3)}[family]


def has_resonances(name):
    m_a, m_2a = multiplicities(name)
    return m_2a != 0 or m_a % 2 == 1


class Families:
    """Draws family names so that every slot, and every n of the hn, chn
    and hhn slots, is used equally often (+-1) over a pass."""

    def __init__(self, rng):
        self.rng = rng
        self.ns = {slot: [] for slot in ("hn", "chn", "hhn")}

    def name(self, slot):
        if slot not in self.ns:
            return slot
        if not self.ns[slot]:
            self.ns[slot] = [2, 3, 4]
            self.rng.shuffle(self.ns[slot])
        return f"{slot}:{self.ns[slot].pop()}"

    def any(self):
        return self.name(self.rng.choice(SLOTS))


def _slot_cycle(rng, count):
    """``count`` family slots, each slot used equally often (+-1)."""
    out = []
    while len(out) < count:
        block = list(SLOTS)
        rng.shuffle(block)
        out.extend(block)
    return out[:count]


def _strata(rng, lo, hi, parts):
    """One integer from each of ``parts`` equal slices of lo..hi, shuffled."""
    width = (hi - lo + 1) / parts
    out = [rng.randint(lo + math.ceil(i * width), lo + math.ceil((i + 1) * width) - 1)
           for i in range(parts)]
    rng.shuffle(out)
    return out


# -- spectral-sweep -----------------------------------------------------------


def _off_lattice(lam):
    k = round(2.0 * lam.real)
    return math.hypot(2.0 * lam.real - k, 2.0 * lam.imag) >= LATTICE_GAP


def _draw_lambdas(rng, n):
    """n lambdas in the LAMBDA_BOX by Latin hypercube: each of n equal
    slices of Re and of Im holds one, so every space sees the same spread
    of lambda from seed to seed.  A draw too near the lattice is redrawn
    inside its cell."""
    re_max, im_max = LAMBDA_BOX
    if math.hypot(re_max, im_max) / n <= LATTICE_GAP / 2:
        raise ValueError(f"{n} cells are too small to avoid the lattice")
    re_cells, im_cells = list(range(n)), list(range(n))
    rng.shuffle(re_cells)
    rng.shuffle(im_cells)
    out = []
    for i, j in zip(re_cells, im_cells):
        while True:
            lam = complex(-re_max + 2.0 * re_max * (i + rng.random()) / n,
                          -im_max + 2.0 * im_max * (j + rng.random()) / n)
            if _off_lattice(lam):
                out.append(lam)
                break
    return out


def _draw_radii(rng):
    """Four radii, log-uniform on RADII, one in each quarter of the log
    range: every query reaches the Taylor patch, the backward-continuation
    buckets and the series region."""
    lo, hi = (math.log(r) for r in RADII)
    step = (hi - lo) / 4.0
    return [math.exp(lo + (i + rng.random()) * step) for i in range(4)]


def generate_sweep(seed):
    rng = random.Random(seed)
    families = Families(rng)
    kinds = [kind for kind, n in SWEEP_MIX for _ in range(n)]
    rng.shuffle(kinds)
    slots = {kind: iter(_slot_cycle(rng, n)) for kind, n in SWEEP_MIX}
    regular = []
    for kind in kinds:
        q = {"kind": kind, "family": families.name(next(slots[kind])),
             "lam": None, "radii": _draw_radii(rng),
             "repeat": False}
        if kind == "apply":
            ta = math.exp(rng.uniform(math.log(0.3), math.log(1.2)))
            tb = ta + rng.uniform(0.6, 1.4)
            q["support"] = (ta, tb)
            q["center"] = ta + (tb - ta) * rng.uniform(1 / 3, 2 / 3)
            q["width"] = (tb - ta) / 6.0
        regular.append(q)
    by_family = {}
    for q in regular:
        by_family.setdefault(q["family"], []).append(q)
    for group in by_family.values():
        for q, lam in zip(group, _draw_lambdas(rng, len(group))):
            q["lam"] = lam
    # Half of the queries of each kind on each space reuse the lambda of an
    # earlier one, with their own fresh radii.
    groups = {}
    for pos, q in enumerate(regular):
        groups.setdefault((q["family"], q["kind"]), []).append(pos)
    for positions in groups.values():
        for pos in sorted(rng.sample(positions[1:], len(positions) // 2)):
            earlier = [p for p in positions if p < pos]
            regular[pos].update(lam=regular[rng.choice(earlier)]["lam"],
                                repeat=True)
    queries = regular
    for kind, n in HOSTILE_MIX:
        for _ in range(n):
            q = _hostile(rng, families, kind)
            queries.insert(rng.randrange(len(queries) + 1), q)
    return queries


def _hostile(rng, families, kind):
    radius = _draw_radii(rng)[rng.randrange(4)]
    if kind == "exclusion":
        # 2 lambda a negative integer: the Frobenius recursion is singular
        return {"kind": kind, "family": families.any(),
                "lam": complex(-0.5 * rng.randint(1, 5)), "radius": radius,
                "op": rng.choice(("Q", "connection")),
                "expect": "ResonantExponentError"}
    if kind == "resonance":
        family = families.any()
        while not has_resonances(family):
            family = families.any()
        m_a, m_2a = multiplicities(family)
        rho, step = 0.5 * m_a + m_2a, (2 if m_2a else 1)
        zeta = 1j * (rho + step * rng.randint(0, 3))
        return {"kind": kind, "family": family, "zeta": zeta,
                "radius": radius, "op": "kernel", "expect": "PoleSignal"}
    return {"kind": kind, "family": families.any(),
            "lam": rng.choice(NONFINITE), "radius": radius,
            "op": rng.choice(("phi", "Q", "kernel", "connection")),
            "expect": "structured"}


def _bump(q):
    c, w = q["center"], q["width"]
    return lambda s: math.exp(-((s - c) / w) ** 2)


def _point(lib, op, space, lam, t):
    if op == "phi":
        return _call(lib.hs.eval_phi, space, lam, t)
    if op == "Q":
        return _call(lib.hs.eval_Q, space, lam, t)
    if op == "kernel":
        return _call(lib.hs.kernel, space, -1j * lam, t)
    return _call(lib.hs.connection_coefficients, space, lam)


def _apply(lib, space, q):
    app = lib.hs.apply_radial(space, -1j * q["lam"], _bump(q), q["support"])
    return [complex(v) for v in app.on_grid(q["radii"])]


def run_sweep_query(lib, q):
    space = lib.spaces[q["family"]]
    kind = q["kind"]
    if kind in ("phi", "Q", "kernel"):
        return [_point(lib, kind, space, q["lam"], t) for t in q["radii"]]
    if kind == "connection":
        return [_point(lib, kind, space, q["lam"], None)]
    if kind == "apply":
        return [_call(_apply, lib, space, q)]
    if kind == "resonance":
        return [_call(lib.hs.kernel, space, q["zeta"], q["radius"])]
    return [_point(lib, q["op"], space, q["lam"], q["radius"])]


def check_sweep(orc, q, outs):
    sp = orc.Space(*multiplicities(q["family"]))
    kind = q["kind"]
    if kind in ("exclusion", "resonance", "nonfinite"):
        return [verdict(outs[0], q["expect"])]
    lam = q["lam"]
    if kind == "phi":
        return [verdict(v, check=_close(orc.phi(sp, lam, t)))
                for v, t in zip(outs, q["radii"])]
    if kind == "Q":
        return [verdict(v, check=_close(orc.q(sp, lam, t)))
                for v, t in zip(outs, q["radii"])]
    if kind == "kernel":
        return [verdict(v, check=_close(orc.kernel(sp, -1j * lam, t)))
                for v, t in zip(outs, q["radii"])]
    if kind == "connection":
        want = (orc.c_value(sp, lam), orc.c_value(sp, -lam))
        return [verdict(outs[0], check=lambda got: all(
            _rel(g, w) <= TOL_CONNECTION for g, w in zip(got, want)))]

    def apply_ok(got):
        want = orc.apply_radial_grid(sp, -1j * lam, _bump(q), q["support"],
                                     q["radii"])
        return all(_rel(g, w) <= TOL for g, w in zip(got, want))
    return [verdict(outs[0], check=apply_ok)]


# -- resonance-scan -------------------------------------------------------------


def is_h2(name):
    return multiplicities(name) == (1, 0)


def generate_scan(seed):
    """SCAN_ROUNDS scans of every family slot.  Over a pass each slot gets
    one enumeration count from each third of 5..30, the large counts
    alternate, and each n of hn, chn and hhn is used once."""
    rng = random.Random(seed)
    families = Families(rng)
    counts = {slot: _strata(rng, 5, 30, SCAN_ROUNDS) for slot in SLOTS}
    large = {slot: [LARGE_COUNTS[(i + r) % 2] for r in range(SCAN_ROUNDS)]
             for i, slot in enumerate(SLOTS)}
    queries = []
    for r in range(SCAN_ROUNDS):
        slots = list(SLOTS)
        rng.shuffle(slots)
        for slot in slots:
            family = families.name(slot)
            scalar_z = [complex(rng.choice((-1, 1)) * rng.uniform(0.1, 3.0),
                                rng.uniform(-2.0, 2.0))
                        for _ in range(SCAN_POINTS)]
            planch_z = [math.exp(rng.uniform(math.log(0.05), math.log(5.0)))
                        for _ in range(SCAN_POINTS)]
            queries += [
                {"kind": "enumerate", "family": family,
                 "count": counts[slot][r]},
                {"kind": "axis_scan", "family": family},
                {"kind": "classify", "family": family, "count": 12},
                {"kind": "scalar", "family": family, "zetas": scalar_z},
                {"kind": "plancherel", "family": family, "zetas": planch_z},
            ]
            # h2 is left out of the large-index slice only because its SVD
            # multiplicity estimate takes seconds there
            if not is_h2(family):
                queries.append({"kind": "large", "family": family,
                                "count": large[slot][r]})
    return queries


def _records(recs):
    return [(r.zeta, r.k, r.residue_scalar, r.multiplicity_estimate)
            for r in recs]


def _poles(poles):
    return [(p.zeta, p.kind, p.residue_scalar) for p in poles]


def run_scan_query(lib, q):
    hs, space = lib.hs, lib.spaces[q["family"]]
    kind = q["kind"]
    if kind == "enumerate":
        return [_call(lambda: _records(hs.resonances.enumerate_resonances(
            space, q["count"], verify_complete=True)))]
    if kind == "large":
        return [_call(lambda: _records(hs.resonances.enumerate_resonances(
            space, q["count"])))]
    if kind == "axis_scan":
        return [_call(hs.scattering.find_scalar_poles, space)]
    if kind == "classify":
        return [_call(lambda: _poles(hs.scattering.classify_poles(
            space, q["count"])))]
    if kind == "scalar":
        return [_call(hs.scattering.scalar, space, z) for z in q["zetas"]]
    cf = hs.for_space(space)
    return [_call(cf.plancherel_density, z) for z in q["zetas"]]


def check_scan(orc, q, outs):
    sp = orc.Space(*multiplicities(q["family"]))
    kind = q["kind"]
    if kind in ("enumerate", "large"):
        return [verdict(outs[0], check=lambda got: _records_ok(
            orc, sp, q["family"], q["count"], got))]
    if kind == "axis_scan":
        want = [float(s) for s in orc.scalar_pole_sigmas(sp)]
        return [verdict(outs[0], check=lambda got: len(got) == len(want)
                        and all(abs(complex(g) - 1j * w) <= TOL * max(1.0, abs(w))
                                for g, w in zip(got, want)))]
    if kind == "classify":
        want = orc.classified_poles(sp, q["count"])
        return [verdict(outs[0], check=lambda got: len(got) == len(want) and all(
            gk == wk and abs(gz - wz) <= TOL * max(1.0, abs(wz))
            and _rel(gr, wr) <= TOL
            for (gz, gk, gr), (wz, wk, wr) in zip(got, want)))]
    if kind == "scalar":
        return [verdict(v, check=_close(orc.scalar(sp, z)))
                for v, z in zip(outs, q["zetas"])]
    return [verdict(v, check=_close(orc.plancherel(sp, z)))
            for v, z in zip(outs, q["zetas"])]


def _records_ok(orc, sp, family, count, got):
    want = orc.resonance_zetas(sp, count)
    if len(got) != len(want):
        return False
    for k, ((zeta, rk, res, mult), im) in enumerate(zip(got, want)):
        if rk != k or abs(zeta - 1j * float(im)) > TOL * float(im):
            return False
        if _rel(res, orc.residue_scalar(sp, im)) > TOL:
            return False
        # the SVD rank of the H^2 residue is 2k+1; other families report None
        if mult not in ((None, 2 * k + 1) if is_h2(family) else (None,)):
            return False
    return True


# -- verify-all ------------------------------------------------------------------


def generate_verify(seed):
    # the suites' grids are fixed, so the seed is not used
    return [{"kind": "suite", "suite": name} for name in VERIFY_SUITES]


def _run_suite(lib, name):
    """The suite's rows as printed by the CLI: (suite, name, measured,
    tolerance, status)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        lib.hs.cli.main(["verify", "--suite", name])
    return [tuple(r) for r in csv.reader(io.StringIO(buf.getvalue()))][1:]


def run_verify_query(lib, q):
    out = _call(_run_suite, lib, q["suite"])
    return [out] if isinstance(out, Raised) else out


def check_verify(orc, q, outs):
    """One verdict per pinned row of the suite: every row it should print
    and did not is wrong, and so is a suite that printed extra rows."""
    pinned = VERIFY_ROWS[q["suite"]]
    if isinstance(outs[0], Raised):
        return ["suite-raised"] * pinned
    verdicts = [OK if row[4] == "pass" else "row-failed" for row in outs]
    if len(verdicts) > pinned:
        return verdicts[:pinned - 1] + ["row-extra"]
    return verdicts + ["row-missing"] * (pinned - len(verdicts))


def headroom(rows):
    """Worst measured / tolerance over a suite's rows.  Rows that pass on a
    lower bound (a spectral gap) count as tolerance / measured; rows that
    pass on equality have no headroom and are skipped."""
    worst = 0.0
    for row in rows:
        if isinstance(row, Raised):
            continue
        measured, tol, passed = float(row[2]), float(row[3]), row[4] == "pass"
        if tol > 0.0 and (measured < tol) == passed:
            worst = max(worst, measured / tol)
        elif passed and measured > tol:
            worst = max(worst, tol / measured)
    return worst


# -- shared ------------------------------------------------------------------------


def _rel(got, want):
    want = complex(want)
    return abs(complex(got) - want) / abs(want) if want != 0 else abs(complex(got))


def _close(want):
    return lambda got: _rel(got, want) <= TOL


def _finite(value):
    if isinstance(value, (list, tuple)):
        return all(_finite(v) for v in value)
    if isinstance(value, (int, float, complex)):
        z = complex(value)
        return math.isfinite(z.real) and math.isfinite(z.imag)
    return True


def verdict(value, expect=None, check=None):
    """OK, or the reason an op failed.

    ``expect`` is None for a valid regular input, the name of the
    ``hyperscatter.errors`` type a pole or exclusion point must raise, or
    "structured" for a non-finite input, which must raise some
    ``hyperscatter.errors`` type.  A builtin exception always fails.
    """
    if isinstance(value, Raised):
        if expect is None or value.module != "hyperscatter.errors":
            return value.name
        return OK if expect in ("structured", value.name) else value.name
    if expect == "structured":
        return "returned"
    if expect is not None:
        return "no-error"
    if not _finite(value):
        return "nonfinite"
    if check is not None and not check(value):
        return "oracle"
    return OK


def digest(outcomes):
    return hashlib.sha256(repr(outcomes).encode()).hexdigest()


def _families_of(queries):
    return sorted({q["family"] for q in queries})


class Workload:
    def __init__(self, generate, run_query, check, elasticity,
                 families=_families_of, repetitions=1):
        self.generate = generate
        self.elasticity = elasticity
        # fewest repetitions of a run: more where short queries make each
        # query's time noisy, fewer where a pass is long
        self.repetitions = repetitions
        self.run_query = run_query
        self.check = check
        self.families = families

    def run_pass(self, lib, queries, clock):
        """One closed-loop pass: clock marks around every query, outputs."""
        marks, outcomes = [clock.mark()], []
        for q in queries:
            outcomes.append(self.run_query(lib, q))
            marks.append(clock.mark())
        return marks, outcomes

    def verdicts(self, orc, queries, outcomes):
        return [v for q, outs in zip(queries, outcomes)
                for v in self.check(orc, q, outs)]


WORKLOADS = {
    "verify-all": Workload(generate_verify, run_verify_query, check_verify,
                           ELASTICITY_ODE, lambda qs: VERIFY_FAMILIES),
    "spectral-sweep": Workload(generate_sweep, run_sweep_query, check_sweep,
                               ELASTICITY_ODE),
    "resonance-scan": Workload(generate_scan, run_scan_query, check_scan,
                               ELASTICITY_CFUNCTION, repetitions=2),
}
