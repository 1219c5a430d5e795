"""Measure the elasticities that ``clock.py`` uses.

    python3 perfbench/elasticity.py --seconds 300

Run it from the root of a source tree, on the host the benchmark runs on.
For ``--seconds`` it repeats one round after another: the clock's probe,
a fixed radial ODE solve (``phi_solution`` on oh2, never cached) and a
fixed c-function loop (300 ``czz`` values on chn:3), each timed alone.
Medians over blocks of ``--block`` rounds smooth out single slow calls.
Across the blocks it fits log(work time) against log(probe time) by least
squares.  The slope is the elasticity: how many times as much the work's
log time moves as the probe's.  ``clock.ELASTICITY_ODE`` and
``clock.ELASTICITY_CFUNCTION`` are the two slopes measured when the
benchmark was defined.

A fit only means something if the host changed speed during the run, so
the output also gives the spread of the probe's log time; a spread under
0.05 says the host was steady and the slopes are noise.  Rerun the script
on a commit that moves work between Python and compiled code: if the
slopes move, calibrated seconds misjudge that commit, and its claims must
rest on the raw wall medians.
"""

from __future__ import annotations

import argparse
import math
import statistics
import sys
import time
from pathlib import Path

import clock

SRC = Path(__file__).resolve().parent.parent / "src"


def kernels():
    sys.path.insert(0, str(SRC))
    from hyperscatter import for_space, radial, space_from_name

    oh2 = space_from_name("oh2")
    cf = for_space(space_from_name("chn:3"))

    def ode():
        radial.phi_solution(oh2, 0.7 + 0.3j, 1.5)

    def cfunction():
        for k in range(300):
            cf.czz(complex(0.1, 0.2 + 0.01 * k))

    return {"ode": ode, "cfunction": cfunction}


def timed(fn):
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def measure(seconds, block):
    work = kernels()
    rounds = []
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        row = {"probe": timed(clock.probe)}
        row.update((name, timed(fn)) for name, fn in work.items())
        rounds.append(row)
    blocks = [rounds[i:i + block]
              for i in range(0, len(rounds) - block + 1, block)]
    return [{key: math.log(statistics.median(r[key] for r in b))
             for key in rounds[0]} for b in blocks]


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seconds", type=float, default=300.0)
    p.add_argument("--block", type=int, default=20)
    args = p.parse_args(argv)
    logs = measure(args.seconds, args.block)
    if len(logs) < 3:
        print("error: too few blocks; raise --seconds", file=sys.stderr)
        return 1
    x = [b["probe"] for b in logs]
    print(f"blocks {len(logs)}  probe log-time spread (sd) "
          f"{statistics.pstdev(x):.3f}")
    used = {"ode": clock.ELASTICITY_ODE,
            "cfunction": clock.ELASTICITY_CFUNCTION}
    for name, constant in used.items():
        y = [b[name] for b in logs]
        slope = statistics.linear_regression(x, y).slope
        r = statistics.correlation(x, y)
        print(f"{name:9s} elasticity {slope:.2f}  correlation {r:.2f}  "
              f"clock.py uses {constant:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
