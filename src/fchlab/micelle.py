"""Radial codimension-n micelle profiles by shooting.

The profile U(R) solves U'' + (n-1)/R * U' = W'(U) with U'(0) = 0 and a
compact support [0, R0]: U and U' vanish together at R0 (grazing landing).
The amplitude U(0) is found by bisection on the dichotomy between
trajectories that cross U = 0 with speed (amplitude on the high side) and
trajectories that turn around at some U > 0 (amplitude on the low side);
the two behaviors are detected as integrator events and the labels are
assigned from the observed classes, since the shooting map need not be
monotone for this well.

At n = 1 the friction term vanishes identically and the equation reduces
to the bilayer pulse; the profile is taken from the bilayer first-integral
construction, whose grazing landing is exact.

The two outputs differ in conditioning.  sigma_n, an integral over the
whole profile, is well conditioned: swapping scipy's DOP853 for the
in-package port moved it by under 1e-12 relative.  R0 is the landing
radius of the last bisection shot, and near the graze the landing radius
is steep in the amplitude, so round-off decides it: R0 is fixed only to
about the reach of _GRAZE_TOL (the same swap moved it 8.2552 -> 8.2401 at
n = 2 and 9.5980 -> 9.6095 at n = 3).  Grids and center placement scale
with R0.
"""

from __future__ import annotations

import io
import json
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from ._numerics import ClampedSpline, simpson
from ._ode import solve_ivp
from .bilayer import peak_amplitude, solve_profile
from .errors import InfeasibleModelError, NumericsError
from .potential import MEMO_SIZE, WellParams, dwell_scalar, eval_dwell, eval_well

__all__ = [
    "MicelleProfile",
    "shoot_micelle",
    "virial_defect",
]

# samples of a returned profile on [0, R0]
_N_SAMPLES = 2049
# radius of the regularized start state
_R_INIT = 1e-6
# bisection stops once the landing defect max(|U|, |U'|) is this small
_GRAZE_TOL = 1e-9
# DOP853 tolerances of every shot.  _GRAZE_TOL sits at the integrator's
# noise floor: on the default well the best bisection defect was 1.6e-9
# (n = 2) and 2.4e-9 (n = 3) at rtol 1e-12 / atol 1e-14, and 7.7e-10 and
# 4.4e-10 here.
_RTOL = 1e-13
_ATOL = 1e-15


@dataclass(frozen=True, eq=False)
class MicelleProfile:
    """Sampled radial compacton with its surface tension.

    du_samples holds the integrator's derivative values, so quadratures of
    (U')^2 R^(n-1) do not rely on numerical differentiation of u_samples.
    """

    params: WellParams
    dim_n: int
    amplitude: float
    r0_support: float
    r_samples: np.ndarray
    u_samples: np.ndarray
    du_samples: np.ndarray
    sigma_n: float
    grazing_defect: float
    _interp: ClampedSpline = field(repr=False, compare=False)

    def evaluate(self, radius):
        radius = np.asarray(radius, dtype=float)
        inside = radius < self.r0_support
        out = np.where(inside, self._interp(np.clip(radius, 0.0, self.r0_support)), 0.0)
        return out if out.ndim else float(out)

    def header_json(self) -> str:
        head = {
            "kind": "micelle",
            "params": json.loads(self.params.to_json()),
            "dim_n": self.dim_n,
            "amplitude": self.amplitude,
            "R0": self.r0_support,
            "sigma_n": self.sigma_n,
            "virial_defect": virial_defect(self),
        }
        return json.dumps(head, sort_keys=True)

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write(self.header_json() + "\n")
        buf.write("R,u\n")
        for r, u in zip(self.r_samples, self.u_samples):
            buf.write(f"{r:.17g},{u:.17g}\n")
        return buf.getvalue()


def _rhs(params, n):
    nm1 = n - 1.0

    def fun(radius, y):
        u, du = y
        return (du, dwell_scalar(u, params) - nm1 * du / radius)

    return fun


def _taylor_start(a, params, n):
    dw = dwell_scalar(a, params)
    return [a + dw * _R_INIT**2 / (2.0 * n), dw * _R_INIT / n]


def _classify(a, params, n, r_max, cap_hi, dense=False):
    """Integrate one shot; label it and report the landing defect."""

    def ev_cross(radius, y):
        return y[0]

    ev_cross.terminal = True
    ev_cross.direction = -1.0

    def ev_stall(radius, y):
        return y[1]

    ev_stall.terminal = True
    ev_stall.direction = 1.0

    def ev_runaway(radius, y):
        return y[0] - cap_hi

    ev_runaway.terminal = True
    ev_runaway.direction = 1.0

    sol = solve_ivp(
        _rhs(params, n),
        (_R_INIT, r_max),
        _taylor_start(a, params, n),
        rtol=_RTOL,
        atol=_ATOL,
        events=(ev_cross, ev_stall, ev_runaway),
        dense_output=dense,
    )
    if sol.status == -1:
        raise NumericsError(f"radial integration failed at amplitude {a}: {sol.message}")
    if sol.status == 0:
        raise NumericsError(f"no landing event before R = {r_max} at amplitude {a}")
    if len(sol.t_events[2]):
        label = "runaway"
        y_land = sol.y_events[2][0]
        r_land = sol.t_events[2][0]
    elif len(sol.t_events[0]):
        label = "cross"
        y_land = sol.y_events[0][0]
        r_land = sol.t_events[0][0]
    else:
        label = "stall"
        y_land = sol.y_events[1][0]
        r_land = sol.t_events[1][0]
    defect = max(abs(y_land[0]), abs(y_land[1]))
    return label, defect, float(r_land), sol


def _find_bracket(params, n, r_max, lo, hi, cap_hi):
    """Scan seed amplitudes left to right for the first adjacent (stall, cross) pair.

    Returns (stall amplitude, cross amplitude) as soon as the pair is
    labelled; seeds beyond it are never shot.  Each amplitude is shot once:
    every 4th of the 65 seeds is one of the 17, bit for bit, and keeps its
    label.
    """
    labels = {}
    for n_seed in (17, 65):
        seeds = np.linspace(lo, hi, n_seed)
        prev = None
        for i, a in enumerate(seeds):
            if a not in labels:
                labels[a] = _classify(a, params, n, r_max, cap_hi)[0]
            label = labels[a]
            if {prev, label} == {"stall", "cross"}:
                if prev == "stall":
                    return seeds[i - 1], seeds[i]
                return seeds[i], seeds[i - 1]
            prev = label
    raise InfeasibleModelError(
        f"no stall/cross bracket for dimension n={n} in amplitude range "
        f"({lo:.6g}, {hi:.6g}); no micelle profile found"
    )


@lru_cache(maxsize=MEMO_SIZE)
def shoot_micelle(dim_n: int, params: WellParams) -> MicelleProfile:
    """Solve the radial profile in dimension dim_n.

    The integration starts from the regularized state
    U(r) = a + W'(a) r^2 / (2n) at r = _R_INIT (1e-6), which removes the
    (n-1)/R singularity with an O(_R_INIT^4) error.  Seed amplitudes span
    (u_max + 1e-4, 2*u_plus] with u_max the bilayer peak; bisection stops
    once the landing defect max(|U|, |U'|) drops below _GRAZE_TOL (1e-9).
    The profile is sampled at _N_SAMPLES (2049) radii on [0, R0].  Results
    are memoised per (dim_n, params).
    """
    if not 1 <= dim_n <= 4:
        raise ValueError("dim_n must be between 1 and 4")
    params.check_dimension(dim_n)

    if dim_n == 1:
        return _bilayer_as_micelle(params)

    u_max = peak_amplitude(params)
    # u_max < u_plus, so the cap always lies above the peak
    cap = 2.0 * params.u_plus
    cap_hi = cap + 0.5 * params.u_plus
    r_max = 400.0 * max(1.0, params.u_plus)

    a_stall, a_cross = _find_bracket(params, dim_n, r_max, u_max + 1e-4, cap, cap_hi)

    best = None
    lo, hi = a_stall, a_cross
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        label, defect, r_land, _ = _classify(mid, params, dim_n, r_max, cap_hi)
        if best is None or defect < best[1]:
            best = (mid, defect, r_land)
        if defect <= _GRAZE_TOL:
            break
        if label == "stall":
            lo = mid
        elif label == "cross":
            hi = mid
        else:
            raise NumericsError("runaway trajectory inside the stall/cross bracket")

    if best is None or best[1] > _GRAZE_TOL:
        achieved = best[1] if best else np.inf
        raise NumericsError(
            f"bisection stalled at grazing defect {achieved:.3e} > {_GRAZE_TOL:.1e}"
        )

    a_star, defect, r_land = best
    _, _, _, sol = _classify(a_star, params, dim_n, r_max, cap_hi, dense=True)

    r0 = r_land
    r_samples = np.linspace(0.0, r0, _N_SAMPLES)
    inner = r_samples < _R_INIT
    uu = np.empty(_N_SAMPLES)
    du = np.empty(_N_SAMPLES)
    dw0 = eval_dwell(a_star, params)
    uu[inner] = a_star + dw0 * r_samples[inner] ** 2 / (2.0 * dim_n)
    du[inner] = dw0 * r_samples[inner] / dim_n
    vals = sol.sol(np.clip(r_samples[~inner], _R_INIT, sol.t[-1]))
    uu[~inner] = vals[0]
    du[~inner] = vals[1]
    uu[-1] = max(uu[-1], 0.0)

    sigma = _sigma_quadrature(r_samples, du, dim_n)
    sigma_coarse = _sigma_quadrature(r_samples[::2], du[::2], dim_n)
    if abs(sigma - sigma_coarse) > 1e-6 * abs(sigma):
        raise NumericsError(
            f"surface tension not converged under step halving: {sigma} vs {sigma_coarse}"
        )

    return MicelleProfile(
        params=params,
        dim_n=dim_n,
        amplitude=float(a_star),
        r0_support=float(r0),
        r_samples=r_samples,
        u_samples=uu,
        du_samples=du,
        sigma_n=float(sigma),
        grazing_defect=float(defect),
        _interp=ClampedSpline(r_samples, uu, 0.0, float(du[-1])),
    )


def _sigma_quadrature(r, du, n):
    return float(simpson(du * du * r ** (n - 1.0), x=r))


def _bilayer_as_micelle(params):
    """n = 1: the half-pulse of the bilayer compacton, landing exactly."""
    prof = solve_profile(params)
    r0 = prof.half_width_L
    r_samples = np.linspace(0.0, r0, _N_SAMPLES)
    uu = prof.evaluate(r_samples)
    w = eval_well(uu, params)
    du = -np.sqrt(np.maximum(2.0 * w, 0.0))
    du[0] = 0.0
    sigma = _sigma_quadrature(r_samples, du, 1)
    return MicelleProfile(
        params=params,
        dim_n=1,
        amplitude=prof.u_max,
        r0_support=float(r0),
        r_samples=r_samples,
        u_samples=uu,
        du_samples=du,
        sigma_n=float(sigma),
        grazing_defect=0.0,
        _interp=ClampedSpline(r_samples, uu, 0.0, 0.0),
    )


def virial_defect(profile: MicelleProfile) -> float:
    """Relative defect of the radial identity relating the well integral to sigma.

    W is the well the profile was solved for, profile.params.  Both sides
    are recomputed from the stored samples, so a profile that is not
    actually a solution produces a defect of the size of its violation:
    |integral W(U) R^(n-1) dR - (2-n)/(2n) sigma| / sigma.
    """
    n = profile.dim_n
    r = profile.r_samples
    w_int = float(simpson(eval_well(profile.u_samples, profile.params) * r ** (n - 1.0), x=r))
    sigma = _sigma_quadrature(r, profile.du_samples, n)
    target = (2.0 - n) / (2.0 * n) * sigma
    return abs(w_int - target) / abs(sigma)

