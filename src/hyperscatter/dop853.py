"""Dormand and Prince's explicit Runge-Kutta method of order 8, DOP853.

The method and its coefficients are Hairer's (Hairer, Norsett and Wanner,
Solving Ordinary Differential Equations I, 2nd ed., II.5 for the 12-stage
pair with its 5th- and 3rd-order error estimators, II.6 for the 7th-degree
dense output and its three extra stages).  ``solve_ivp`` is a port of
scipy's ``solve_ivp(method="DOP853", dense_output=True)`` (scipy 1.17.1,
``scipy/integrate/_ivp``) operation for operation: the tableau as scipy
holds it, the initial step (``select_initial_step``), the step-size loop,
DOP853's error norm, ``rk_step``, the dense output polynomial and
``OdeSolution``'s choice of segment at a step end.  So every step, ``nfev``
and dense read equals scipy's bit for bit.  Only the arguments the radial
ODE passes are taken: fun, t_span, y0, rtol and atol.

One thing differs: the dense output keeps only each step's start state.
The interpolant needs the step's twelve stages and three more, and a solve
reads few of its steps, so a step is rerun from its start at its first read
(16 right-hand-side evaluations, not counted in ``nfev``) and its
interpolant kept from then on; an unread step costs nothing.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass

import numpy as np

N_STAGES = 12
N_STAGES_EXTENDED = 16  # the three dense-output stages follow the 13th, f at the step's end
INTERPOLATOR_POWER = 7

_C = np.array([
    0.0, 0.526001519587677318785587544488e-01, 0.789002279381515978178381316732e-01,
    0.118350341907227396726757197510, 0.281649658092772603273242802490,
    0.333333333333333333333333333333, 0.25, 0.307692307692307692307692307692,
    0.651282051282051282051282051282, 0.6, 0.857142857142857142857142857142,
    1.0, 1.0, 0.1, 0.2, 0.777777777777777777777777777778])

# row s of the (strictly lower triangular) A: its nonzero entries by column
_A_ENTRIES = (
    {},
    {0: 5.26001519587677318785587544488e-2},
    {0: 1.97250569845378994544595329183e-2, 1: 5.91751709536136983633785987549e-2},
    {0: 2.95875854768068491816892993775e-2, 2: 8.87627564304205475450678981324e-2},
    {0: 2.41365134159266685502369798665e-1, 2: -8.84549479328286085344864962717e-1,
     3: 9.24834003261792003115737966543e-1},
    {0: 3.7037037037037037037037037037e-2, 3: 1.70828608729473871279604482173e-1,
     4: 1.25467687566822425016691814123e-1},
    {0: 3.7109375e-2, 3: 1.70252211019544039314978060272e-1,
     4: 6.02165389804559606850219397283e-2, 5: -1.7578125e-2},
    {0: 3.70920001185047927108779319836e-2, 3: 1.70383925712239993810214054705e-1,
     4: 1.07262030446373284651809199168e-1, 5: -1.53194377486244017527936158236e-2,
     6: 8.27378916381402288758473766002e-3},
    {0: 6.24110958716075717114429577812e-1, 3: -3.36089262944694129406857109825,
     4: -8.68219346841726006818189891453e-1, 5: 2.75920996994467083049415600797e1,
     6: 2.01540675504778934086186788979e1, 7: -4.34898841810699588477366255144e1},
    {0: 4.77662536438264365890433908527e-1, 3: -2.48811461997166764192642586468,
     4: -5.90290826836842996371446475743e-1, 5: 2.12300514481811942347288949897e1,
     6: 1.52792336328824235832596922938e1, 7: -3.32882109689848629194453265587e1,
     8: -2.03312017085086261358222928593e-2},
    {0: -9.3714243008598732571704021658e-1, 3: 5.18637242884406370830023853209,
     4: 1.09143734899672957818500254654, 5: -8.14978701074692612513997267357,
     6: -1.85200656599969598641566180701e1, 7: 2.27394870993505042818970056734e1,
     8: 2.49360555267965238987089396762, 9: -3.0467644718982195003823669022},
    {0: 2.27331014751653820792359768449, 3: -1.05344954667372501984066689879e1,
     4: -2.00087205822486249909675718444, 5: -1.79589318631187989172765950534e1,
     6: 2.79488845294199600508499808837e1, 7: -2.85899827713502369474065508674,
     8: -8.87285693353062954433549289258, 9: 1.23605671757943030647266201528e1,
     10: 6.43392746015763530355970484046e-1},
    # row 12 is B, the weights of the 8th-order solution
    {0: 5.42937341165687622380535766363e-2, 5: 4.45031289275240888144113950566,
     6: 1.89151789931450038304281599044, 7: -5.8012039600105847814672114227,
     8: 3.1116436695781989440891606237e-1, 9: -1.52160949662516078556178806805e-1,
     10: 2.01365400804030348374776537501e-1, 11: 4.47106157277725905176885569043e-2},
    {0: 5.61675022830479523392909219681e-2, 6: 2.53500210216624811088794765333e-1,
     7: -2.46239037470802489917441475441e-1, 8: -1.24191423263816360469010140626e-1,
     9: 1.5329179827876569731206322685e-1, 10: 8.20105229563468988491666602057e-3,
     11: 7.56789766054569976138603589584e-3, 12: -8.298e-3},
    {0: 3.18346481635021405060768473261e-2, 5: 2.83009096723667755288322961402e-2,
     6: 5.35419883074385676223797384372e-2, 7: -5.49237485713909884646569340306e-2,
     10: -1.08347328697249322858509316994e-4, 11: 3.82571090835658412954920192323e-4,
     12: -3.40465008687404560802977114492e-4, 13: 1.41312443674632500278074618366e-1},
    {0: -4.28896301583791923408573538692e-1, 5: -4.69762141536116384314449447206,
     6: 7.68342119606259904184240953878, 7: 4.06898981839711007970213554331,
     8: 3.56727187455281109270669543021e-1, 12: -1.39902416515901462129418009734e-3,
     13: 2.9475147891527723389556272149, 14: -9.15095847217987001081870187138},
)
_A = np.zeros((N_STAGES_EXTENDED, N_STAGES_EXTENDED))
for _row, _entries in enumerate(_A_ENTRIES):
    _A[_row, list(_entries)] = list(_entries.values())
_B = _A[N_STAGES, :N_STAGES]

# the 3rd- and 5th-order error estimators, over the 12 stages and f at the end
_E3 = np.zeros(N_STAGES + 1)
_E3[:-1] = _B
_E3[0] -= 0.244094488188976377952755905512
_E3[8] -= 0.733846688281611857341361741547
_E3[11] -= 0.220588235294117647058823529412e-1
_E5 = np.zeros(N_STAGES + 1)
_E5[[0, 5, 6, 7, 8, 9, 10, 11]] = [
    0.1312004499419488073250102996e-1, -0.1225156446376204440720569753e+1,
    -0.4957589496572501915214079952, 0.1664377182454986536961530415e+1,
    -0.3503288487499736816886487290, 0.3341791187130174790297318841,
    0.8192320648511571246570742613e-1, -0.2235530786388629525884427845e-1]

# the dense output's last four coefficient rows, over the 16 stages (the
# first three come from the step's ends)
_D = np.zeros((INTERPOLATOR_POWER - 3, N_STAGES_EXTENDED))
_D[:, [0, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15]] = [
    [-0.84289382761090128651353491142e+1, 0.56671495351937776962531783590,
     -0.30689499459498916912797304727e+1, 0.23846676565120698287728149680e+1,
     0.21170345824450282767155149946e+1, -0.87139158377797299206789907490,
     0.22404374302607882758541771650e+1, 0.63157877876946881815570249290,
     -0.88990336451333310820698117400e-1, 0.18148505520854727256656404962e+2,
     -0.91946323924783554000451984436e+1, -0.44360363875948939664310572000e+1],
    [0.10427508642579134603413151009e+2, 0.24228349177525818288430175319e+3,
     0.16520045171727028198505394887e+3, -0.37454675472269020279518312152e+3,
     -0.22113666853125306036270938578e+2, 0.77334326684722638389603898808e+1,
     -0.30674084731089398182061213626e+2, -0.93321305264302278729567221706e+1,
     0.15697238121770843886131091075e+2, -0.31139403219565177677282850411e+2,
     -0.93529243588444783865713862664e+1, 0.35816841486394083752465898540e+2],
    [0.19985053242002433820987653617e+2, -0.38703730874935176555105901742e+3,
     -0.18917813819516756882830838328e+3, 0.52780815920542364900561016686e+3,
     -0.11573902539959630126141871134e+2, 0.68812326946963000169666922661e+1,
     -0.10006050966910838403183860980e+1, 0.77771377980534432092869265740,
     -0.27782057523535084065932004339e+1, -0.60196695231264120758267380846e+2,
     0.84320405506677161018159903784e+2, 0.11992291136182789328035130030e+2],
    [-0.25693933462703749003312586129e+2, -0.15418974869023643374053993627e+3,
     -0.23152937917604549567536039109e+3, 0.35763911791061412378285349910e+3,
     0.93405324183624310003907691704e+2, -0.37458323136451633156875139351e+2,
     0.10409964950896230045147246184e+3, 0.29840293426660503123344363579e+2,
     -0.43533456590011143754432175058e+2, 0.96324553959188282948394950600e+2,
     -0.39177261675615439165231486172e+2, -0.14972683625798562581422125276e+3],
]

SAFETY = 0.9  # steps from the asymptotic error are shortened by this
MIN_FACTOR = 0.2  # a step shrinks at most fivefold, ...
MAX_FACTOR = 10  # ... and grows at most tenfold
_ERROR_EXPONENT = -1 / 8  # -1 / (error estimator order 7 + 1)

TOO_SMALL_STEP = "Required step size is less than spacing between numbers."
_FINISHED = "The solver successfully reached the end of the integration interval."


def _norm(x):
    """RMS norm."""
    return np.linalg.norm(x) / x.size ** 0.5


def _rk_step(fun, t, y, f, h, K):
    """One DOP853 step from (t, y) with f = fun(t, y): the 12 stages into
    K's first rows and f at the end into its last; returns (y_new, f_new)."""
    K[0] = f
    for s, (a, c) in enumerate(zip(_A[1:N_STAGES], _C[1:N_STAGES]), start=1):
        dy = np.dot(K[:s].T, a[:s]) * h
        K[s] = fun(t + c * h, y + dy)
    y_new = y + h * np.dot(K[:-1].T, _B)
    f_new = fun(t + h, y_new)
    K[-1] = f_new
    return y_new, f_new


def _error_norm(K, h, scale):
    """DOP853's error: the 5th-order estimate, corrected by the 3rd, in the
    RMS norm scaled by ``scale``."""
    err5 = np.dot(K.T, _E5) / scale
    err3 = np.dot(K.T, _E3) / scale
    err5_norm_2 = np.linalg.norm(err5)**2
    err3_norm_2 = np.linalg.norm(err3)**2
    if err5_norm_2 == 0 and err3_norm_2 == 0:
        return 0.0
    denom = err5_norm_2 + 0.01 * err3_norm_2
    return np.abs(h) * err5_norm_2 / np.sqrt(denom * len(scale))


def _initial_step(fun, t0, y0, f0, t_bound, direction, rtol, atol):
    """The first step's size (Hairer, Norsett and Wanner, II.4), at most the
    interval's length."""
    interval_length = abs(t_bound - t0)
    scale = atol + np.abs(y0) * rtol
    d0 = _norm(y0 / scale)
    d1 = _norm(f0 / scale)
    if d0 < 1e-5 or d1 < 1e-5:
        h0 = 1e-6
    else:
        h0 = 0.01 * d0 / d1
    h0 = min(h0, interval_length)
    y1 = y0 + h0 * direction * f0
    f1 = fun(t0 + h0 * direction, y1)
    d2 = _norm((f1 - f0) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 8)
    return min(100 * h0, h1, interval_length)


class DenseSolution:
    """The solution between the steps ``ts``: ``sol(t)`` is y(t) from the
    interpolant of the step t lies in (a t on a step end reads the step
    that ends there, as scipy's OdeSolution does, and a t outside reads the
    nearest end step).  A step's interpolant is built from its start
    state at its first read and kept in ``coefficients`` (None until then).
    """

    def __init__(self, fun, ts, ys):
        self._fun = fun
        self.ts, self._ys = ts, ys
        self.coefficients = [None] * (len(ts) - 1)
        self._ascending = ts[-1] >= ts[0]
        self._sorted = ts if self._ascending else ts[::-1]

    def _segment(self, t):
        last = len(self.coefficients) - 1
        if self._ascending:
            return min(max(bisect_left(self._sorted, t) - 1, 0), last)
        return last - min(max(bisect_right(self._sorted, t) - 1, 0), last)

    def _build(self, k):
        """Rerun step k from its start and form its interpolant's rows."""
        fun, t_old, y_old = self._fun, self.ts[k], self._ys[k]
        h = self.ts[k + 1] - t_old
        K = np.empty((N_STAGES_EXTENDED, y_old.size), dtype=y_old.dtype)
        f_old = fun(t_old, y_old)
        y, f = _rk_step(fun, t_old, y_old, f_old, h, K[:N_STAGES + 1])
        for s, (a, c) in enumerate(zip(_A[N_STAGES + 1:], _C[N_STAGES + 1:]),
                                   start=N_STAGES + 1):
            dy = np.dot(K[:s].T, a[:s]) * h
            K[s] = fun(t_old + c * h, y_old + dy)
        F = np.empty((INTERPOLATOR_POWER, y_old.size), dtype=y_old.dtype)
        delta_y = y - y_old
        F[0] = delta_y
        F[1] = h * f_old - delta_y
        F[2] = 2 * delta_y - h * (f + f_old)
        F[3:] = h * np.dot(_D, K)
        self.coefficients[k] = F
        return F

    def __call__(self, t):
        k = self._segment(t)
        F = self.coefficients[k]
        if F is None:
            F = self._build(k)
        t_old, y_old = self.ts[k], self._ys[k]
        x = (t - t_old) / (self.ts[k + 1] - t_old)
        y = np.zeros_like(y_old)
        for i, f in enumerate(reversed(F)):
            y += f
            if i % 2 == 0:
                y *= x
            else:
                y *= 1 - x
        y += y_old
        return y


@dataclass(frozen=True)
class OdeResult:
    """A solve: the step ends ``t``, the right-hand-side evaluations the
    stepping made (``nfev``), the dense output ``sol``, and whether the end
    was reached (else ``message`` says why not)."""

    t: np.ndarray
    nfev: int
    sol: DenseSolution
    success: bool
    message: str


def solve_ivp(fun, t_span, y0, rtol, atol):
    """Integrate the complex system y' = fun(t, y) over t_span = (t0, t1),
    t0 != t1, from y0 by DOP853 at the tolerances rtol and atol.

    Steps as scipy's solve_ivp(method="DOP853", dense_output=True) steps, bit
    for bit, for rtol at least 100 eps (scipy raises a smaller rtol to 100
    eps, with a warning; here it is kept).  A step that would have to shrink below ten spacings of the
    floats at t ends the solve with success False and ``message``
    TOO_SMALL_STEP; so does a nan step size, on which scipy's step loop
    would not end.
    """
    t0, t_bound = map(float, t_span)
    if t0 == t_bound:
        raise ValueError("t_span must have two distinct ends")
    y = np.asarray(y0, dtype=complex)
    if not np.isfinite(y).all():
        raise ValueError("All components of the initial state `y0` must be finite.")
    nfev = 0

    def single(t, y):
        return np.asarray(fun(t, y), dtype=complex)

    def counted(t, y):
        nonlocal nfev
        nfev += 1
        return single(t, y)

    direction = 1.0 if t_bound > t0 else -1.0
    f = counted(t0, y)
    h_abs = _initial_step(counted, t0, y, f, t_bound, direction, rtol, atol)
    K = np.empty((N_STAGES + 1, y.size), dtype=complex)
    t = t0
    ts, ys = [t], [y]
    message = _FINISHED
    while direction * (t - t_bound) < 0:
        min_step = 10 * abs(math.nextafter(t, direction * math.inf) - t)
        if h_abs < min_step:
            h_abs = min_step
        rejected = False
        while h_abs >= min_step:
            h = h_abs * direction
            t_new = t + h
            if direction * (t_new - t_bound) > 0:
                t_new = t_bound
            h = t_new - t
            h_abs = np.abs(h)
            y_new, f_new = _rk_step(counted, t, y, f, h, K)
            scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
            error_norm = _error_norm(K, h, scale)
            if error_norm < 1:
                if error_norm == 0:
                    factor = MAX_FACTOR
                else:
                    factor = min(MAX_FACTOR, SAFETY * error_norm ** _ERROR_EXPONENT)
                if rejected:
                    factor = min(1, factor)
                h_abs *= factor
                break
            h_abs *= max(MIN_FACTOR, SAFETY * error_norm ** _ERROR_EXPONENT)
            rejected = True
        else:
            message = TOO_SMALL_STEP
            break
        t, y, f = t_new, y_new, f_new
        ts.append(t)
        ys.append(y)
    return OdeResult(t=np.array(ts), nfev=nfev, sol=DenseSolution(single, ts, ys),
                     success=message == _FINISHED, message=message)
