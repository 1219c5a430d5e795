"""The library's import graph: of scipy, only scipy.special."""

import os
import subprocess
import sys
from pathlib import Path

import hyperscatter

# a forward and a backward radial solve, the resolvent's quadrature, the
# axis scan off its default grid and a verify suite through the CLI, then the
# scipy modules the process holds
_SCRIPT = """
import contextlib, io, math, sys
import hyperscatter, hyperscatter.cli, hyperscatter.scattering
from hyperscatter import apply_radial, radial, space_from_name

h2 = space_from_name("h2")
radial.phi_solution(h2, 0.3 + 0.2j, 3.0)(2.0)
radial.q_solution(h2, 0.3 + 0.2j, 0.05)(0.1)
app = apply_radial(h2, 0.9 - 0.2j, lambda s: math.exp(-((s - 0.75) / 0.15) ** 2), (0.3, 1.2))
app.on_grid([0.2, 0.6, 0.9, 2.0])
assert hyperscatter.scattering.find_scalar_poles(h2, step=0.013)
with contextlib.redirect_stdout(io.StringIO()):
    assert hyperscatter.cli.main(["verify", "--suite", "connection"]) == 0
print(" ".join(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""


def test_only_scipy_special_is_imported():
    # scipy.integrate and scipy.optimize (and with them scipy.sparse,
    # scipy.linalg, scipy.fft and scipy.spatial) cost about half of a
    # process's start-up; the library's DOP853 and QUADPACK ports are its
    # own, the axis scan needs no root finder, and nothing imports those
    # modules later either
    src = str(Path(hyperscatter.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    proc = subprocess.run([sys.executable, "-c", _SCRIPT], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    modules = set(proc.stdout.split())
    assert "scipy.special" in modules
    top = {".".join(m.split(".")[:2]) for m in modules}
    assert not top & {"scipy.integrate", "scipy.optimize", "scipy.sparse", "scipy.linalg",
                      "scipy.fft", "scipy.spatial"}, sorted(top)
