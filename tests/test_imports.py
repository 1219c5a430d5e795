"""The library's import graph: of scipy, only scipy.special's ufunc modules,
loaded without scipy.special's package init; and a first pass that imports
nothing set-up did not."""

import os
import subprocess
import sys
from pathlib import Path

import hyperscatter


def _run(script):
    """Run script in a fresh interpreter under -W error, with this checkout's
    hyperscatter first on the path; return its stdout."""
    src = str(Path(hyperscatter.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    proc = subprocess.run([sys.executable, "-W", "error", "-c", script], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


# a forward and a backward radial solve, the resolvent's quadrature, the
# axis scan off its default grid and a verify suite through the CLI, then the
# scipy and numpy modules the process holds
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
print(" ".join(sorted(m for m in sys.modules if m.split(".")[0] in ("scipy", "numpy"))))
"""


def test_only_scipy_special_is_imported():
    # scipy.integrate and scipy.optimize (and with them scipy.sparse,
    # scipy.linalg, scipy.fft and scipy.spatial) cost about half of a
    # process's start-up; the library's ODE steps and QUADPACK port are its
    # own, the axis scan needs no root finder, and nothing imports those
    # modules later either.  Of scipy.special only the ufunc module is
    # loaded: the package init's array-API layer (scipy._lib._array_api,
    # which loads numpy.f2py and numpy.testing) costs several times the rest
    # of the library's import
    modules = set(_run(_SCRIPT).split())
    assert "scipy.special._ufuncs" in modules
    assert not modules & {"scipy.special", "scipy._lib._array_api", "numpy.f2py",
                          "numpy.testing"}, sorted(modules)
    top = {".".join(m.split(".")[:2]) for m in modules}
    assert not top & {"scipy.integrate", "scipy.optimize", "scipy.sparse", "scipy.linalg",
                      "scipy.fft", "scipy.spatial"}, sorted(top)


# c and its derivative (loggamma and psi through cfunction) and Q's
# second-kind series (loggamma and psi through radial), as float hex strings
_VALUES = """
import numpy as np
from hyperscatter import eval_Q, for_space, space_from_name
h3 = space_from_name("h3")
cf = for_space(h3)
vals = [cf.value(0.7), cf.derivative(0.7), *cf.value(np.array([0.7, 1.3 - 0.4j, -2.5]))]
vals.append(eval_Q(space_from_name("h2"), 0.3 + 0.2j, 1.0))
print(" ".join(f"{complex(v).real.hex()},{complex(v).imag.hex()}" for v in vals))
"""

# a finder that refuses scipy.special._ufuncs once, as a scipy whose private
# module moved would: the library must fall back to the public import
_REFUSE_ONCE = """
import sys

class RefuseOnce:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy.special._ufuncs":
            sys.meta_path.remove(self)
            raise ImportError("refused: " + name)
        return None

sys.meta_path.insert(0, RefuseOnce())
"""

_ROUTE = """
import sys
import hyperscatter.cfunction as cfm
sp = sys.modules.get("scipy.special")
print("private" if sp is None else "public" if hasattr(sp, "gamma") else "bare")
"""


def test_private_route_loads_no_package_and_a_later_import_gets_the_same_ufuncs():
    out = _run(_ROUTE + """
import scipy.special
print(hasattr(scipy.special, "gamma"), scipy.special.loggamma is cfm.loggamma,
      scipy.special.psi is cfm.psi)
""").split()
    assert out == ["private", "True", "True", "True"]


def test_public_route_when_the_private_module_is_refused_gives_the_same_bits():
    private = _run(_ROUTE + _VALUES).split()
    public = _run(_REFUSE_ONCE + _ROUTE + _VALUES).split()
    assert private[0] == "private" and public[0] == "public"
    assert public[1:] == private[1:] and len(private) == 7


def test_public_route_when_scipy_special_is_already_loaded():
    out = _run("import scipy.special\n" + _ROUTE + """
print(sys.modules["scipy.special"] is scipy.special, cfm.loggamma is scipy.special.loggamma,
      cfm.psi is scipy.special.psi)
""").split()
    assert out == ["public", "True", "True", "True"]


def test_first_pass_imports_nothing_set_up_did_not():
    # numpy.random (np.random.default_rng) and numpy.ma (np.union1d ->
    # np.unique) load lazily on first use; once scipy.special's init no
    # longer loads them at set-up, a first call would pay for them inside
    # the timed pass.  Every verify suite, the axis scan off its default
    # grid and an H^2 residue rank must find all they import loaded
    out = _run("""
import contextlib, io, sys
import hyperscatter, hyperscatter.cli, hyperscatter.scattering
from hyperscatter import model_h2, space_from_name

before = set(sys.modules)
with contextlib.redirect_stdout(io.StringIO()):
    assert hyperscatter.cli.main(["verify", "--all"]) == 0
assert hyperscatter.scattering.find_scalar_poles(space_from_name("h2"), step=0.013)
model_h2.residue_rank(1)
print(" ".join(sorted(set(sys.modules) - before)))
""")
    assert out.split() == []
