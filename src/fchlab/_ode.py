"""Explicit Runge-Kutta DOP853 on plain Python floats, with events and dense output.

A port of scipy.integrate's DOP853 (Hairer, Norsett & Wanner, "Solving
Ordinary Differential Equations I", Sec. II.5 and II.6): the same 12-stage
tableau, the same 7th-order dense interpolant, the same initial-step
selection and step-size control, and terminal events located with Brent's
method on the interpolant.  The micelle shots integrate a 2-component
state, for which numpy's per-call overhead dominated the step cost; here a
state is a list of floats.  Every sum runs left to right, so its rounding
does not depend on the Python version (the built-in sum() compensates
float round-off from Python 3.12 on, and the micelle support radius R0
follows the last bits of each shot).

The twelve stages of a step, the new state and the squared norms of the
two embedded error estimates come from one straight-line function per
state size, generated from the tableau the first time a solver of that
size is made (_step_kernel).  Each sum is written out as
``0.0 + c0*k0_i + c1*k1_i + ...`` with every nonzero coefficient as its
repr literal.  Python evaluates that expression left to right, one
rounded product and one rounded addition at a time, which is exactly
what _dot's reduce(add, map(mul, ...), 0.0) does; a zero coefficient
adds a signed zero to a sum that is never -0.0, so dropping it changes
no bit on finite stages.  A step thus lands on the same floats as the
loop over _dot it replaces while skipping the per-stage list transposes,
the function calls and the error-scaling lists.  The dense interpolant,
used once per shot at an event, keeps _combine.

The tableau below is copied from scipy/integrate/_ivp/dop853_coefficients.py.
The step control follows scipy/integrate/_ivp/rk.py and common.py, and the
event root finder follows scipy/optimize/Zeros/brentq.c.  Those files carry
this notice:

    Copyright (c) 2001-2002 Enthought, Inc. 2003, SciPy Developers.
    All rights reserved.

    Redistribution and use in source and binary forms, with or without
    modification, are permitted provided that the following conditions
    are met:

    1. Redistributions of source code must retain the above copyright
       notice, this list of conditions and the following disclaimer.

    2. Redistributions in binary form must reproduce the above
       copyright notice, this list of conditions and the following
       disclaimer in the documentation and/or other materials provided
       with the distribution.

    3. Neither the name of the copyright holder nor the names of its
       contributors may be used to endorse or promote products derived
       from this software without specific prior written permission.

    THIS SOFTWARE IS PROVIDED BY THE COPYRIGHT HOLDERS AND CONTRIBUTORS
    "AS IS" AND ANY EXPRESS OR IMPLIED WARRANTIES, INCLUDING, BUT NOT
    LIMITED TO, THE IMPLIED WARRANTIES OF MERCHANTABILITY AND FITNESS FOR
    A PARTICULAR PURPOSE ARE DISCLAIMED. IN NO EVENT SHALL THE COPYRIGHT
    OWNER OR CONTRIBUTORS BE LIABLE FOR ANY DIRECT, INDIRECT, INCIDENTAL,
    SPECIAL, EXEMPLARY, OR CONSEQUENTIAL DAMAGES (INCLUDING, BUT NOT
    LIMITED TO, PROCUREMENT OF SUBSTITUTE GOODS OR SERVICES; LOSS OF USE,
    DATA, OR PROFITS; OR BUSINESS INTERRUPTION) HOWEVER CAUSED AND ON ANY
    THEORY OF LIABILITY, WHETHER IN CONTRACT, STRICT LIABILITY, OR TORT
    (INCLUDING NEGLIGENCE OR OTHERWISE) ARISING IN ANY WAY OUT OF THE USE
    OF THIS SOFTWARE, EVEN IF ADVISED OF THE POSSIBILITY OF SUCH DAMAGE.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, reduce
from operator import add, mul

import numpy as np

from ._numerics import sorted_unique

__all__ = ["OdeResult", "DenseSolution", "solve_ivp"]

N_STAGES = 12
N_STAGES_EXTENDED = 16
INTERPOLATOR_POWER = 7

C = np.array([0.0,
              0.526001519587677318785587544488e-01,
              0.789002279381515978178381316732e-01,
              0.118350341907227396726757197510,
              0.281649658092772603273242802490,
              0.333333333333333333333333333333,
              0.25,
              0.307692307692307692307692307692,
              0.651282051282051282051282051282,
              0.6,
              0.857142857142857142857142857142,
              1.0,
              1.0,
              0.1,
              0.2,
              0.777777777777777777777777777778])

A = np.zeros((N_STAGES_EXTENDED, N_STAGES_EXTENDED))
A[1, 0] = 5.26001519587677318785587544488e-2

A[2, 0] = 1.97250569845378994544595329183e-2
A[2, 1] = 5.91751709536136983633785987549e-2

A[3, 0] = 2.95875854768068491816892993775e-2
A[3, 2] = 8.87627564304205475450678981324e-2

A[4, 0] = 2.41365134159266685502369798665e-1
A[4, 2] = -8.84549479328286085344864962717e-1
A[4, 3] = 9.24834003261792003115737966543e-1

A[5, 0] = 3.7037037037037037037037037037e-2
A[5, 3] = 1.70828608729473871279604482173e-1
A[5, 4] = 1.25467687566822425016691814123e-1

A[6, 0] = 3.7109375e-2
A[6, 3] = 1.70252211019544039314978060272e-1
A[6, 4] = 6.02165389804559606850219397283e-2
A[6, 5] = -1.7578125e-2

A[7, 0] = 3.70920001185047927108779319836e-2
A[7, 3] = 1.70383925712239993810214054705e-1
A[7, 4] = 1.07262030446373284651809199168e-1
A[7, 5] = -1.53194377486244017527936158236e-2
A[7, 6] = 8.27378916381402288758473766002e-3

A[8, 0] = 6.24110958716075717114429577812e-1
A[8, 3] = -3.36089262944694129406857109825
A[8, 4] = -8.68219346841726006818189891453e-1
A[8, 5] = 2.75920996994467083049415600797e1
A[8, 6] = 2.01540675504778934086186788979e1
A[8, 7] = -4.34898841810699588477366255144e1

A[9, 0] = 4.77662536438264365890433908527e-1
A[9, 3] = -2.48811461997166764192642586468
A[9, 4] = -5.90290826836842996371446475743e-1
A[9, 5] = 2.12300514481811942347288949897e1
A[9, 6] = 1.52792336328824235832596922938e1
A[9, 7] = -3.32882109689848629194453265587e1
A[9, 8] = -2.03312017085086261358222928593e-2

A[10, 0] = -9.3714243008598732571704021658e-1
A[10, 3] = 5.18637242884406370830023853209
A[10, 4] = 1.09143734899672957818500254654
A[10, 5] = -8.14978701074692612513997267357
A[10, 6] = -1.85200656599969598641566180701e1
A[10, 7] = 2.27394870993505042818970056734e1
A[10, 8] = 2.49360555267965238987089396762
A[10, 9] = -3.0467644718982195003823669022

A[11, 0] = 2.27331014751653820792359768449
A[11, 3] = -1.05344954667372501984066689879e1
A[11, 4] = -2.00087205822486249909675718444
A[11, 5] = -1.79589318631187989172765950534e1
A[11, 6] = 2.79488845294199600508499808837e1
A[11, 7] = -2.85899827713502369474065508674
A[11, 8] = -8.87285693353062954433549289258
A[11, 9] = 1.23605671757943030647266201528e1
A[11, 10] = 6.43392746015763530355970484046e-1

A[12, 0] = 5.42937341165687622380535766363e-2
A[12, 5] = 4.45031289275240888144113950566
A[12, 6] = 1.89151789931450038304281599044
A[12, 7] = -5.8012039600105847814672114227
A[12, 8] = 3.1116436695781989440891606237e-1
A[12, 9] = -1.52160949662516078556178806805e-1
A[12, 10] = 2.01365400804030348374776537501e-1
A[12, 11] = 4.47106157277725905176885569043e-2

A[13, 0] = 5.61675022830479523392909219681e-2
A[13, 6] = 2.53500210216624811088794765333e-1
A[13, 7] = -2.46239037470802489917441475441e-1
A[13, 8] = -1.24191423263816360469010140626e-1
A[13, 9] = 1.5329179827876569731206322685e-1
A[13, 10] = 8.20105229563468988491666602057e-3
A[13, 11] = 7.56789766054569976138603589584e-3
A[13, 12] = -8.298e-3

A[14, 0] = 3.18346481635021405060768473261e-2
A[14, 5] = 2.83009096723667755288322961402e-2
A[14, 6] = 5.35419883074385676223797384372e-2
A[14, 7] = -5.49237485713909884646569340306e-2
A[14, 10] = -1.08347328697249322858509316994e-4
A[14, 11] = 3.82571090835658412954920192323e-4
A[14, 12] = -3.40465008687404560802977114492e-4
A[14, 13] = 1.41312443674632500278074618366e-1

A[15, 0] = -4.28896301583791923408573538692e-1
A[15, 5] = -4.69762141536116384314449447206
A[15, 6] = 7.68342119606259904184240953878
A[15, 7] = 4.06898981839711007970213554331
A[15, 8] = 3.56727187455281109270669543021e-1
A[15, 12] = -1.39902416515901462129418009734e-3
A[15, 13] = 2.9475147891527723389556272149
A[15, 14] = -9.15095847217987001081870187138


B = A[N_STAGES, :N_STAGES]

E3 = np.zeros(N_STAGES + 1)
E3[:-1] = B.copy()
E3[0] -= 0.244094488188976377952755905512
E3[8] -= 0.733846688281611857341361741547
E3[11] -= 0.220588235294117647058823529412e-1

E5 = np.zeros(N_STAGES + 1)
E5[0] = 0.1312004499419488073250102996e-1
E5[5] = -0.1225156446376204440720569753e+1
E5[6] = -0.4957589496572501915214079952
E5[7] = 0.1664377182454986536961530415e+1
E5[8] = -0.3503288487499736816886487290
E5[9] = 0.3341791187130174790297318841
E5[10] = 0.8192320648511571246570742613e-1
E5[11] = -0.2235530786388629525884427845e-1

# First 3 coefficients are computed separately.
D = np.zeros((INTERPOLATOR_POWER - 3, N_STAGES_EXTENDED))
D[0, 0] = -0.84289382761090128651353491142e+1
D[0, 5] = 0.56671495351937776962531783590
D[0, 6] = -0.30689499459498916912797304727e+1
D[0, 7] = 0.23846676565120698287728149680e+1
D[0, 8] = 0.21170345824450282767155149946e+1
D[0, 9] = -0.87139158377797299206789907490
D[0, 10] = 0.22404374302607882758541771650e+1
D[0, 11] = 0.63157877876946881815570249290
D[0, 12] = -0.88990336451333310820698117400e-1
D[0, 13] = 0.18148505520854727256656404962e+2
D[0, 14] = -0.91946323924783554000451984436e+1
D[0, 15] = -0.44360363875948939664310572000e+1

D[1, 0] = 0.10427508642579134603413151009e+2
D[1, 5] = 0.24228349177525818288430175319e+3
D[1, 6] = 0.16520045171727028198505394887e+3
D[1, 7] = -0.37454675472269020279518312152e+3
D[1, 8] = -0.22113666853125306036270938578e+2
D[1, 9] = 0.77334326684722638389603898808e+1
D[1, 10] = -0.30674084731089398182061213626e+2
D[1, 11] = -0.93321305264302278729567221706e+1
D[1, 12] = 0.15697238121770843886131091075e+2
D[1, 13] = -0.31139403219565177677282850411e+2
D[1, 14] = -0.93529243588444783865713862664e+1
D[1, 15] = 0.35816841486394083752465898540e+2

D[2, 0] = 0.19985053242002433820987653617e+2
D[2, 5] = -0.38703730874935176555105901742e+3
D[2, 6] = -0.18917813819516756882830838328e+3
D[2, 7] = 0.52780815920542364900561016686e+3
D[2, 8] = -0.11573902539959630126141871134e+2
D[2, 9] = 0.68812326946963000169666922661e+1
D[2, 10] = -0.10006050966910838403183860980e+1
D[2, 11] = 0.77771377980534432092869265740
D[2, 12] = -0.27782057523535084065932004339e+1
D[2, 13] = -0.60196695231264120758267380846e+2
D[2, 14] = 0.84320405506677161018159903784e+2
D[2, 15] = 0.11992291136182789328035130030e+2

D[3, 0] = -0.25693933462703749003312586129e+2
D[3, 5] = -0.15418974869023643374053993627e+3
D[3, 6] = -0.23152937917604549567536039109e+3
D[3, 7] = 0.35763911791061412378285349910e+3
D[3, 8] = 0.93405324183624310003907691704e+2
D[3, 9] = -0.37458323136451633156875139351e+2
D[3, 10] = 0.10409964950896230045147246184e+3
D[3, 11] = 0.29840293426660503123344363579e+2
D[3, 12] = -0.43533456590011143754432175058e+2
D[3, 13] = 0.96324553959188282948394950600e+2
D[3, 14] = -0.39177261675615439165231486172e+2
D[3, 15] = -0.14972683625798562581422125276e+3

# the tableau as Python floats: stage s combines the first s stage values
_C = C.tolist()
_ROWS = [A[s, :s].tolist() for s in range(N_STAGES_EXTENDED)]
_B = B.tolist()
_E3 = E3.tolist()
_E5 = E5.tolist()
_D = D.tolist()

# step-size control of scipy's RungeKutta solvers
SAFETY = 0.9
MIN_FACTOR = 0.2
MAX_FACTOR = 10.0
# DOP853 controls the error of its embedded 7th-order estimate
_ERROR_EXPONENT = -1.0 / 8.0
_EPS = float(np.finfo(float).eps)
_BRENT_MAXITER = 100

_MESSAGES = {
    -1: "Required step size is less than spacing between numbers.",
    0: "The solver successfully reached the end of the integration interval.",
    1: "A termination event occurred.",
}


def _dot(a, b):
    """sum_j a[j] * b[j], added left to right."""
    return reduce(add, map(mul, a, b), 0.0)


def _combine(coeffs, stages):
    """sum_j coeffs[j] * stages[j][i] for each component i."""
    return [_dot(coeffs, comp) for comp in zip(*stages)]


def _sum_source(coeffs, comp):
    """``0.0 + c0*k0_<comp> + ...`` over the nonzero c_j: _dot(coeffs, ...) written out."""
    return " + ".join(["0.0"] + [f"{c!r}*k{j}_{comp}" for j, c in enumerate(coeffs) if c != 0.0])


def _kernel_source(dim):
    """Source of one DOP853 step for a state of `dim` floats.

    kernel(fun, t, y, k0, h, rtol, atol), with k0 = fun(t, y), returns
    (y_new, f_new, stages, err5_sq, err3_sq): the state at t + h, fun
    there, the 13 stage values (k0 first, f_new last), and the squared
    norms of the 5th- and 3rd-order error estimates, each component scaled
    by atol + max(|y|, |y_new|)*rtol, formed as sqrt(_dot(e, e))**2.
    """
    comps = range(dim)

    def unpack(name):
        return f"    [{', '.join(f'{name}_{i}' for i in comps)}] = {name}"

    lines = ["def kernel(fun, t, y, k0, h, rtol, atol):", unpack("y"), unpack("k0")]
    for s in range(1, N_STAGES):
        y_s = ", ".join(f"y_{i} + ({_sum_source(_ROWS[s], i)}) * h" for i in comps)
        lines += [f"    k{s} = fun(t + {_C[s]!r} * h, [{y_s}])", unpack(f"k{s}")]
    lines += [f"    n_{i} = y_{i} + h * ({_sum_source(_B, i)})" for i in comps]
    y_new = ", ".join(f"n_{i}" for i in comps)
    lines += [f"    y_new = [{y_new}]", f"    k{N_STAGES} = list(fun(t + h, y_new))", unpack(f"k{N_STAGES}")]
    lines += [f"    s_{i} = atol + max(abs(y_{i}), abs(n_{i})) * rtol" for i in comps]
    for order, coeffs in ((5, _E5), (3, _E3)):
        lines += [f"    e{order}_{i} = ({_sum_source(coeffs, i)}) / s_{i}" for i in comps]
        squares = " + ".join(f"e{order}_{i} * e{order}_{i}" for i in comps)
        lines.append(f"    sq{order} = sqrt(0.0 + {squares}) ** 2")
    stages = ", ".join(f"k{s}" for s in range(N_STAGES + 1))
    lines.append(f"    return y_new, k{N_STAGES}, [{stages}], sq5, sq3")
    return "\n".join(lines) + "\n"


@lru_cache(maxsize=4)
def _step_kernel(dim):
    """The compiled step of _kernel_source(dim), built on first use."""
    namespace = {"sqrt": math.sqrt}
    exec(compile(_kernel_source(dim), f"<dop853 step, dim {dim}>", "exec"), namespace)
    return namespace["kernel"]


def _rms(values):
    return math.sqrt(_dot(values, values)) / math.sqrt(len(values))


def _initial_step(fun, t0, y0, f0, t_bound, rtol, atol):
    """Hairer-Norsett-Wanner's starting step, as scipy's select_initial_step."""
    interval_length = abs(t_bound - t0)
    scale = [atol + abs(y) * rtol for y in y0]
    d0 = _rms([y / s for y, s in zip(y0, scale)])
    d1 = _rms([f / s for f, s in zip(f0, scale)])
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, interval_length)
    f1 = fun(t0 + h0, [y + h0 * f for y, f in zip(y0, f0)])
    d2 = _rms([(b - a) / s for a, b, s in zip(f0, f1, scale)]) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1.0 / 8.0)
    return min(100.0 * h0, h1, interval_length)


class _Interpolant:
    """DOP853's 7th-order dense output on one accepted step [t_old, t_old + h]."""

    __slots__ = ("t_old", "h", "y_old", "rows")

    def __init__(self, t_old, h, y_old, rows):
        self.t_old = t_old
        self.h = h
        self.y_old = y_old
        # rows[k][i]: coefficient k of component i, innermost first
        self.rows = rows

    def __call__(self, t):
        """State at t: a list of floats, or of arrays for an array t."""
        x = (t - self.t_old) / self.h
        y = [0.0] * len(self.y_old)
        for k, row in enumerate(self.rows):
            w = x if k % 2 == 0 else 1.0 - x
            y = [(v + f) * w for v, f in zip(y, row)]
        return [v + y0 for v, y0 in zip(y, self.y_old)]


class DenseSolution:
    """Piecewise dense output over the accepted steps, evaluated at an array of t.

    A point on a step boundary takes the earlier step, as scipy's
    OdeSolution does.
    """

    def __init__(self, ts, interpolants):
        self.ts = np.asarray(ts, dtype=float)
        self.interpolants = interpolants

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        seg = np.clip(np.searchsorted(self.ts, t, side="left") - 1, 0, len(self.interpolants) - 1)
        out = np.empty((len(self.interpolants[0].y_old),) + t.shape)
        for k in sorted_unique(seg):
            on_step = seg == k
            out[:, on_step] = self.interpolants[k](t[on_step])
        return out


@dataclass
class OdeResult:
    status: int
    message: str
    t: np.ndarray
    t_events: list
    y_events: list
    sol: DenseSolution | None
    nfev: int


def _brentq(f, xa, xb):
    """Root of f on [xa, xb] by Brent's method, as scipy's brentq with xtol = rtol = 4 eps."""
    xtol = rtol = 4.0 * _EPS
    xpre, xcur = xa, xb
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = f(xpre), f(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(_BRENT_MAXITER):
        if fpre != 0.0 and fcur != 0.0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = 0.5 * (xtol + rtol * abs(xcur))
        sbis = 0.5 * (xblk - xcur)
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # secant
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # inverse quadratic interpolation
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2.0 * abs(stry) < min(abs(spre), 3.0 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0.0 else -delta)
        fcur = f(xcur)
    return xcur


class _Dop853:
    """One DOP853 integration from t0 towards t_bound (t_bound > t0)."""

    def __init__(self, fun, t0, y0, t_bound, rtol, atol):
        self.fun = fun
        self.t = t0
        self.y = y0
        self.t_bound = t_bound
        self.rtol = rtol
        self.atol = atol
        self.f = list(fun(t0, y0))
        self.kernel = _step_kernel(len(y0))
        self.h_abs = _initial_step(fun, t0, y0, self.f, t_bound, rtol, atol)
        # right-hand-side calls: the start, the initial-step probe, then
        # 12 per step attempt and 3 per interpolant
        self.nfev = 2
        self.t_old = None
        self.y_old = None
        self.f_old = None
        # stage values of the last accepted step
        self.stages = None

    def step(self):
        """Advance one accepted step; False when the step size underflows."""
        t, y = self.t, self.y
        min_step = 10.0 * abs(math.nextafter(t, math.inf) - t)
        h_abs = max(self.h_abs, min_step)
        rejected = False
        while True:
            if h_abs < min_step:
                return False
            t_new = t + h_abs
            if t_new > self.t_bound:
                t_new = self.t_bound
            h = t_new - t
            h_abs = abs(h)
            y_new, f_new, stages, err5_sq, err3_sq = self.kernel(self.fun, t, y, self.f, h, self.rtol, self.atol)
            self.nfev += N_STAGES
            if err5_sq == 0.0 and err3_sq == 0.0:
                error_norm = 0.0
            else:
                error_norm = h_abs * err5_sq / math.sqrt((err5_sq + 0.01 * err3_sq) * len(y))
            if error_norm < 1.0:
                if error_norm == 0.0:
                    factor = MAX_FACTOR
                else:
                    factor = min(MAX_FACTOR, SAFETY * error_norm**_ERROR_EXPONENT)
                if rejected:
                    factor = min(1.0, factor)
                h_abs *= factor
                break
            h_abs *= max(MIN_FACTOR, SAFETY * error_norm**_ERROR_EXPONENT)
            rejected = True
        self.t_old, self.y_old, self.f_old = t, y, self.f
        self.t, self.y, self.f = t_new, y_new, f_new
        self.h_abs = h_abs
        self.stages = stages
        return True

    def interpolant(self):
        """Dense output on the last accepted step (three extra stages)."""
        h = self.t - self.t_old
        stages = self.stages
        for s in range(N_STAGES + 1, N_STAGES_EXTENDED):
            y_s = [a + d * h for a, d in zip(self.y_old, _combine(_ROWS[s], stages))]
            stages.append(self.fun(self.t_old + _C[s] * h, y_s))
        self.nfev += N_STAGES_EXTENDED - N_STAGES - 1
        delta_y = [b - a for a, b in zip(self.y_old, self.y)]
        rows = [
            delta_y,
            [h * f0 - d for f0, d in zip(self.f_old, delta_y)],
            [2.0 * d - h * (f1 + f0) for d, f1, f0 in zip(delta_y, self.f, self.f_old)],
        ]
        rows += [[h * v for v in _combine(coeffs, stages)] for coeffs in _D]
        # evaluated innermost (highest) coefficient first
        return _Interpolant(self.t_old, h, self.y_old, rows[::-1])


def solve_ivp(fun, t_span, y0, *, rtol, atol, events=(), dense_output=False):
    """Integrate y' = fun(t, y) forward over t_span with DOP853.

    A subset of scipy.integrate.solve_ivp(method="DOP853"): fun(t, y) takes
    and returns a sequence of floats.  Every event g(t, y) is terminal:
    the integration stops at the earliest zero of any event, located on
    the step's 7th-order interpolant, and records it alone.  An event's
    ``direction`` counts only rising zeros when positive and falling ones
    when negative.  status is 1 after an event, 0 at the end of t_span and
    -1 when the step size underflows.
    """
    t0, tf = map(float, t_span)
    if not tf > t0:
        raise ValueError("t_span must run forward")
    if not all(getattr(ev, "terminal", True) for ev in events):
        raise ValueError("only terminal events are supported")
    y0 = [float(v) for v in y0]
    solver = _Dop853(fun, t0, y0, tf, float(rtol), float(atol))
    direction = [float(getattr(ev, "direction", 0.0)) for ev in events]
    indices = range(len(events))
    t_events = [[] for _ in events]
    y_events = [[] for _ in events]
    g = [ev(t0, y0) for ev in events]
    ts = [t0]
    interpolants = []

    status = None
    while status is None:
        if not solver.step():
            status = -1
            break
        if solver.t >= tf:
            status = 0
        t_old, t = solver.t_old, solver.t
        sol = solver.interpolant() if dense_output else None
        if dense_output:
            interpolants.append(sol)
        g_new = [ev(t, solver.y) for ev in events]
        active = [
            i
            for i in indices
            if (direction[i] >= 0 and g[i] <= 0 <= g_new[i]) or (direction[i] <= 0 and g[i] >= 0 >= g_new[i])
        ]
        if active:
            if sol is None:
                sol = solver.interpolant()
            t, i = min((_brentq(lambda r, ev=events[i]: ev(r, sol(r)), t_old, t), i) for i in active)
            t_events[i].append(t)
            y_events[i].append(np.array(sol(t)))
            status = 1
        g = g_new
        ts.append(t)

    return OdeResult(
        status=status,
        message=_MESSAGES[status],
        t=np.array(ts),
        t_events=[np.array(te) for te in t_events],
        y_events=[np.array(ye).reshape(len(ye), len(y0)) for ye in y_events],
        sol=DenseSolution(ts, interpolants) if dense_output else None,
        nfev=solver.nfev,
    )
