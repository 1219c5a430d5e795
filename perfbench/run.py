"""Benchmark runner for hyperscatter.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all        # every workload, a table

Run it from the root of a source tree; the library is imported from
``src/``.  Workloads: verify-all, spectral-sweep, resonance-scan (see
``perfbench/README.md`` for what each stresses and which layer metric should
move which end-to-end metric).

With ``--trace 0`` the run measures, in fresh child interpreters started one
at a time:

* set-up (import and space construction) several times, reporting the median;
* repetitions of set-up, a cold pass and a warm pass over the seeded inputs,
  the workload's fewest and more while they fit in ``--seconds``,
  reporting medians;
* the first repetition's outputs against the mpmath oracles, after both
  timed passes; later repetitions must reproduce its outputs exactly.

With ``--trace 1`` it makes one untraced and one traced cold pass and
reports the per-layer metrics of the traced one.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer
import workloads as wl
from clock import CalibratedClock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# A run never outlives this, whatever --seconds says.
RUN_DEADLINE_S = 170.0
SETUP_PROBES = 4
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = (("setup_s", "s"), ("cold_s", "s"), ("warm_s", "s"),
              ("query_p50_ms", "ms"), ("query_p90_ms", "ms"),
              ("peak_rss_mb", "MB"), ("pass_ratio", "ratio"))


class BenchError(Exception):
    """The benchmark could not produce a result."""


# -- child side ---------------------------------------------------------------------


class Library:
    """The imported package and the workload's prebuilt spaces."""

    def __init__(self, families):
        sys.path.insert(0, str(SRC))
        import hyperscatter
        import hyperscatter.cli
        import hyperscatter.scattering
        origin = Path(hyperscatter.__file__).resolve()
        if SRC.resolve() not in origin.parents:
            raise BenchError(f"hyperscatter imported from {origin}, not {SRC}")
        self.hs = hyperscatter
        self.spaces = {}
        for name in families:
            space = hyperscatter.space_from_name(name)
            hyperscatter.for_space(space)
            self.spaces[name] = space


def child(args):
    work = wl.WORKLOADS[args.workload]
    queries = work.generate(args.seed)
    clock = CalibratedClock(work.elasticity)
    clock.start()
    begin = clock.mark()
    lib = Library(work.families(queries))
    setup = (begin, clock.mark())
    cold = warm = None
    spans = None
    if args.child == "traced":
        spans = tracer.Tracer()
        spans.install()
    try:
        if args.child != "setup":
            cold = work.run_pass(lib, queries, clock)
    finally:
        if spans is not None:
            spans.uninstall()
    if args.child == "full":
        warm = work.run_pass(lib, queries, clock)
    clock.stop()
    out = {"setup_s": clock.seconds(*setup),
           "setup_wall_s": clock.wall(*setup)}
    if cold is None:
        return out
    passes = [("cold", cold)] + ([("warm", warm)] if warm else [])
    for name, (marks, outcomes) in passes:
        out[f"{name}_ms"] = [1e3 * clock.seconds(a, b)
                             for a, b in zip(marks, marks[1:])]
        out[f"{name}_wall_s"] = clock.wall(marks[0], marks[-1])
        out[f"{name}_digest"] = wl.digest(outcomes)
    out["cold_s"] = sum(out["cold_ms"]) / 1e3
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    cold_out = cold[1]
    if args.check:
        import oracles
        t0 = time.perf_counter()
        out["verdicts"] = work.verdicts(oracles, queries, cold_out)
        out["check_s"] = time.perf_counter() - t0
    if spans is not None:
        out["per_layer"] = layer_metrics(spans, out["cold_wall_s"], queries,
                                         cold_out)
    import numpy
    import scipy
    out["versions"] = {"python": platform.python_version(),
                       "numpy": numpy.__version__, "scipy": scipy.__version__}
    return out


def layer_metrics(tr, wall_s, queries, outcomes):
    m = {}
    m["radial.ode.calls"] = tr.calls_of("radial.ode")
    m["radial.ode.rhs_evals"] = tr.counts.get("radial.ode.rhs_evals", 0)
    m["radial.ode.steps"] = tr.counts.get("radial.ode.steps", 0)
    m["radial.ode.self_s"] = tr.self_of("radial.ode")
    for sub in ("connection", "wronskian"):
        m[f"radial.{sub}.calls"] = tr.calls_of(f"radial.{sub}")
        m[f"radial.{sub}.self_s"] = tr.self_of(f"radial.{sub}")
    builds = tr.calls_of("radial.frobenius")
    m["radial.frobenius.builds"] = builds
    m["radial.frobenius.terms_mean"] = (
        tr.counts.get("radial.frobenius.terms", 0) / builds if builds else 0.0)
    m["radial.frobenius.self_s"] = tr.self_of("radial.frobenius")
    m["radial.series_sum.calls"] = tr.calls_of("radial.series_sum")
    m["radial.series_sum.self_s"] = tr.self_of("radial.series_sum")
    evals = tr.calls_of("radial.eval")
    m["radial.solve_reuse_ratio"] = (
        tr.counts.get("radial.eval.reused", 0) / evals if evals else 0.0)
    sweep = [q for q in queries if "repeat" in q]
    m["sweep.repeat_share"] = (
        sum(q["repeat"] for q in sweep) / len(sweep) if sweep else 0.0)
    m["cfunction.calls"] = tr.entries.get("cfunction", 0)
    m["cfunction.gamma_evals"] = tr.counts.get("cfunction.gamma_evals", 0)
    m["resonances.enumerate.calls"] = tr.calls_of("resonances.enumerate")
    m["resonances.winding.self_s"] = tr.self_of("resonances.winding")
    m["scattering.scalar.calls"] = tr.calls_of("scattering.scalar")
    m["scattering.axis_scan.self_s"] = tr.self_of("scattering.axis_scan")
    m["resolvent.kernel.calls"] = tr.calls_of("resolvent.kernel")
    m["resolvent.apply.self_s"] = tr.self_of("resolvent.apply")
    m["resolvent.quad.calls"] = tr.calls_of("resolvent.quad")
    m["boundary.calls"] = tr.entries.get("boundary", 0)
    m["model_h2.residue_rank.self_s"] = tr.self_of("model_h2.residue_rank")
    rows = {q["suite"]: outs for q, outs in zip(queries, outcomes)
            if q["kind"] == "suite"}
    for suite in wl.VERIFY_SUITES:
        m[f"verify.{suite}.s"] = tr.total_of(f"verify.{suite}")
        m[f"verify.{suite}.headroom"] = wl.headroom(rows.get(suite, ()))
    for layer in tracer.LAYERS:
        m[f"{layer}.self_s"] = tr.layer_self(layer)
    # cli.main and the verify suites enclose whole queries, so their self
    # time would absorb any work no other layer's span covers: leave it out
    covered = sum(m[f"{layer}.self_s"] for layer in tracer.LAYERS
                  if layer not in tracer.CATCH_ALL)
    m["trace.coverage"] = covered / wall_s
    return m


# -- parent side -------------------------------------------------------------------


def spawn(mode, args, deadline, check=False):
    """Run one child interpreter to completion and return its JSON."""
    env = dict(os.environ)
    env.update({k: "1" for k in THREAD_ENV})
    cmd = [sys.executable, str(Path(__file__).resolve()), "--child", mode,
           "--workload", args.workload, "--seed", str(args.seed),
           "--check", "1" if check else "0"]
    budget = deadline - time.monotonic()
    if budget <= 1.0:
        raise BenchError("time budget exhausted")
    try:
        proc = subprocess.run(cmd, env=env, cwd=str(ROOT), capture_output=True,
                              text=True, timeout=budget)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} child exceeded the run deadline")
    if proc.returncode != 0:
        raise BenchError(f"{mode} child failed:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def percentile(values, p):
    """Linear-interpolated percentile (p in 0..100) of a non-empty list."""
    xs = sorted(values)
    pos = (len(xs) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median_per_query(passes):
    return [statistics.median(times) for times in zip(*passes)]


def failure_summary(verdicts):
    by_reason = {}
    for v in verdicts:
        if v != wl.OK:
            by_reason[v] = by_reason.get(v, 0) + 1
    wrong = sum(n for r, n in by_reason.items() if r in wl.WRONG)
    return by_reason, wrong


def measure(args, deadline):
    started = time.monotonic()
    setups = [spawn("setup", args, deadline)["setup_s"]
              for _ in range(SETUP_PROBES)]
    reps = []
    while True:
        t0 = time.monotonic()
        reps.append(spawn("full", args, deadline, check=not reps))
        # the next repetition runs no checks
        rep_s = time.monotonic() - t0 - reps[-1].get("check_s", 0.0)
        if (len(reps) >= wl.WORKLOADS[args.workload].repetitions
                and time.monotonic() - started + rep_s > args.seconds):
            break
    first = reps[0]
    consistent = all(r["cold_digest"] == r["warm_digest"] == first["cold_digest"]
                     for r in reps)
    by_reason, wrong = failure_summary(first["verdicts"])
    attempted, failed = len(first["verdicts"]), sum(by_reason.values())
    cold_ms = median_per_query(r["cold_ms"] for r in reps)
    warm_ms = median_per_query(r["warm_ms"] for r in reps)
    setups += [r["setup_s"] for r in reps]
    metrics = {
        "setup_s": statistics.median(setups),
        "cold_s": sum(cold_ms) / 1e3,
        "warm_s": sum(warm_ms) / 1e3,
        "query_p50_ms": percentile(cold_ms, 50),
        "query_p90_ms": percentile(cold_ms, 90),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
        "pass_ratio": (attempted - failed) / attempted,
    }
    info = {"repetitions": len(reps), "setup_samples": len(setups),
            "query_samples": len(cold_ms), "failed_by_reason": by_reason,
            "failed_ratio": failed / attempted, "versions": first["versions"],
            "outputs_consistent": consistent,
            "wall_s": {k: statistics.median(r[f"{k}_wall_s"] for r in reps)
                       for k in ("setup", "cold", "warm")}}
    result = {"correct": consistent and wrong == 0, "attempted": attempted,
              "failed": failed,
              "metrics": {name: {"value": metrics[name], "unit": unit}
                          for name, unit in END_TO_END}}
    return result, info


def measure_traced(args, deadline):
    plain = spawn("cold", args, deadline)
    traced = spawn("traced", args, deadline, check=True)
    by_reason, wrong = failure_summary(traced["verdicts"])
    attempted, failed = len(traced["verdicts"]), sum(by_reason.values())
    layers = traced["per_layer"]
    layers["trace_overhead_ratio"] = traced["cold_s"] / plain["cold_s"]
    layers["src_lines"] = src_lines()
    layers["failed_ratio"] = failed / attempted
    units = per_layer_units()
    consistent = plain["cold_digest"] == traced["cold_digest"]
    result = {"correct": consistent and wrong == 0, "attempted": attempted,
              "failed": failed,
              "metrics": {name: {"value": layers[name], "unit": units[name]}
                          for name in sorted(units)}}
    info = {"failed_by_reason": by_reason, "versions": traced["versions"],
            "outputs_consistent": consistent,
            "untraced_cold_s": plain["cold_s"], "traced_cold_s": traced["cold_s"]}
    return result, info


def benchmark_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def per_layer_units():
    return {m["name"]: m["unit"] for m in benchmark_spec()["per_layer"]}


def src_lines():
    return sum(p.read_text().count("\n") for p in sorted(SRC.rglob("*.py")))


def git_commit():
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def report(workload, args, result, info):
    print(f"workload {workload}  seed {args.seed}  trace {args.trace}")
    for name, m in result["metrics"].items():
        print(f"  {name:36s} {m['value']:.6g} {m['unit']}")
    print(f"  attempted {result['attempted']}  failed {result['failed']}"
          f"  failed_ratio {result['failed'] / result['attempted']:.6g}"
          f"  correct {result['correct']}")
    print(f"  failed by reason {json.dumps(info['failed_by_reason'])}")
    prov = {"nproc": os.cpu_count(), "commit": git_commit(),
            "seed": args.seed, "seconds": args.seconds, **info}
    print("provenance " + json.dumps(prov, sort_keys=True))


def parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=sorted(wl.WORKLOADS) + ["all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float,
                   default=benchmark_spec()["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--child", choices=("setup", "cold", "full", "traced"),
                   help=argparse.SUPPRESS)
    p.add_argument("--check", type=int, choices=(0, 1), default=0,
                   help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None):
    args = parse(argv)
    if args.child:
        print(json.dumps(child(args)))
        return 0
    if not (SRC / "hyperscatter" / "__init__.py").is_file():
        print(f"error: no library source at {SRC / 'hyperscatter'}",
              file=sys.stderr)
        return 2
    compileall.compile_dir(str(SRC), quiet=1)
    deadline = time.monotonic() + RUN_DEADLINE_S
    names = [args.workload]
    if args.workload == "all":
        names = list(wl.WORKLOADS)
        deadline = time.monotonic() + RUN_DEADLINE_S * len(names)
    results = {}
    try:
        for name in names:
            args.workload = name
            run = measure_traced if args.trace else measure
            result, info = run(args, deadline)
            report(name, args, result, info)
            results[name] = result
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
