"""Non-smooth double-well potential and audits of its growth behavior.

The well is smooth for u > 0 away from the origin but only C^(1+alpha) at
u = 0 (W ~ u^r with 3/2 < r < 2), which is what makes compactly supported
profiles possible downstream.  The closed-form branch

    W(u) = |u|^r * ((u - u_plus)^2 + tau*(u - (1+r)/r * u_plus))

is active on [-1, 2*u_plus]; outside a compact set the well continues as
C5*|u|^p.  A C^2 piecewise-quintic cutoff chi blends the two branches.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import InfeasibleWellError

# entries each memoised solver keeps: one per distinct well and option set
MEMO_SIZE = 32

# the default audit grid: core samples, and log-spaced tail samples out to |u| = _AUDIT_FAR
_AUDIT_CORE = 2001
_AUDIT_TAIL = 200
_AUDIT_FAR = 1e3

__all__ = [
    "WellParams",
    "GrowthConstants",
    "GrowthViolation",
    "default_params",
    "default_c5",
    "eval_well",
    "eval_dwell",
    "eval_well_and_dwell",
    "eval_cutoff",
    "quadratic_factor",
    "quadratic_factor_coeffs",
    "audit_growth",
]


def _smoothstep(t):
    """Quintic step: 0 -> 1 on [0, 1] with vanishing first two derivatives."""
    t = np.clip(t, 0.0, 1.0)
    return t * t * t * (10.0 + t * (-15.0 + 6.0 * t))


def _smoothstep_prime(t):
    tc = np.clip(t, 0.0, 1.0)
    return 30.0 * tc * tc * (1.0 - tc) ** 2 * ((t >= 0.0) & (t <= 1.0))


@dataclass(frozen=True)
class WellParams:
    """Parameters of the double well.

    r : local exponent at u = 0, must satisfy 3/2 < r < 2
    u_plus : location of the right well minimum, > 0
    tau : depth parameter of the right well, > 0
    p : far-field growth exponent, >= 2
    c5 : far-field coefficient (>= 0; 0 only makes sense for audits)

    A nan or infinite value is refused by its name ("tau must be finite"),
    as the CLI refuses it, before any other check reads it.

    The cutoff is pinned to the knots (-2, -1, 2*u_plus, 2*u_plus + 1) with
    quintic C^2 joins; the knots are serialized explicitly so two
    implementations produce bit-comparable well tables.
    """

    r: float
    u_plus: float
    tau: float
    p: float
    c5: float

    def __post_init__(self):
        for name in ("r", "u_plus", "tau", "p", "c5"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if not 1.5 < self.r < 2.0:
            raise ValueError(f"exponent r must lie in (3/2, 2), got {self.r}")
        if self.u_plus <= 0.0:
            raise ValueError("u_plus must be positive")
        if self.tau <= 0.0:
            raise ValueError("tau must be positive")
        if self.p < 2.0:
            raise ValueError("growth exponent p must be >= 2")
        if self.c5 < 0.0:
            raise ValueError("far-field coefficient c5 must be nonnegative")

    @property
    def cutoff_knots(self):
        """(outer_left, inner_left, inner_right, outer_right) of chi."""
        return (-2.0, -1.0, 2.0 * self.u_plus, 2.0 * self.u_plus + 1.0)

    @cached_property
    def _scalar_constants(self):
        """Cutoff knots, r, p, c5 and the bracket's (b, c): what dwell_scalar reads per call."""
        return (*self.cutoff_knots, self.r, self.p, self.c5, *quadratic_factor_coeffs(self))

    @property
    def cutoff_degree(self):
        return 5

    def check_dimension(self, n: int):
        """Enforce the p upper bound tied to the ambient dimension n."""
        if n >= 3:
            p_max = (2.0 * n - 2.0) / (n - 2.0)
            if not self.p < p_max:
                raise InfeasibleWellError(
                    f"growth exponent p={self.p} violates p < {p_max} "
                    f"required in dimension n={n}"
                )

    def to_json(self) -> str:
        d = {
            "r": self.r,
            "u_plus": self.u_plus,
            "tau": self.tau,
            "p": self.p,
            "c5": self.c5,
            "cutoff": {"knots": list(self.cutoff_knots), "degree": self.cutoff_degree},
        }
        return json.dumps(d, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "WellParams":
        d = json.loads(text)
        return cls(r=d["r"], u_plus=d["u_plus"], tau=d["tau"], p=d["p"], c5=d["c5"])


def eval_cutoff(u, params: WellParams):
    """C^2 bump chi(u): 1 on [-1, 2*u_plus], 0 outside [-2, 2*u_plus + 1]."""
    a, b, c, d = params.cutoff_knots
    u = np.asarray(u, dtype=float)
    out = np.ones_like(u)
    out = np.where(u < b, _smoothstep((u - a) / (b - a)), out)
    out = np.where(u > c, 1.0 - _smoothstep((u - c) / (d - c)), out)
    return out


def _eval_cutoff_prime(u, params: WellParams):
    a, b, c, d = params.cutoff_knots
    u = np.asarray(u, dtype=float)
    out = np.zeros_like(u)
    left = u < b
    right = u > c
    out = np.where(left, _smoothstep_prime((u - a) / (b - a)) / (b - a), out)
    out = np.where(right, -_smoothstep_prime((u - c) / (d - c)) / (d - c), out)
    return out


def quadratic_factor_coeffs(params: WellParams):
    """Coefficients (b, c) of the monic quadratic multiplying |u|^r.

    (u - u_plus)^2 + tau*(u - (1+r)/r * u_plus) = u^2 + b*u + c.
    """
    b = params.tau - 2.0 * params.u_plus
    c = params.u_plus**2 - params.tau * (1.0 + params.r) / params.r * params.u_plus
    return b, c


def quadratic_factor(u, params: WellParams):
    """The bracket (u - u_plus)^2 + tau*(u - (1+r)/r * u_plus)."""
    b, c = quadratic_factor_coeffs(params)
    u = np.asarray(u, dtype=float)
    return (u + b) * u + c


def _quadratic_factor_prime(u, params: WellParams):
    b, _ = quadratic_factor_coeffs(params)
    return 2.0 * np.asarray(u, dtype=float) + b


def _as_input(u):
    arr = np.asarray(u, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError("well evaluation requires finite input")
    return arr


def _core(arr, params: WellParams):
    """(W, W') of the closed-form branch |u|^r * bracket; |u|^r is formed once."""
    absu = np.abs(arr)
    quad = quadratic_factor(arr, params)
    pow_r = absu**params.r
    # d/du |u|^r = r|u|^(r-1) sgn(u); exponent r-1 > 0 so the limit at 0 is 0
    core_p = params.r * absu ** (params.r - 1.0) * np.sign(arr) * quad + pow_r * _quadratic_factor_prime(arr, params)
    return pow_r * quad, core_p


def _blended(arr, params: WellParams):
    """(W, W') blended through the cutoff: exact wherever chi = 1 or chi = 0."""
    chi = eval_cutoff(arr, params)
    chi_p = _eval_cutoff_prime(arr, params)
    absu = np.abs(arr)
    sgn = np.sign(arr)
    core, core_p = _core(arr, params)
    far = params.c5 * absu**params.p
    far_p = params.c5 * params.p * absu ** (params.p - 1.0) * sgn
    well = chi * core + (1.0 - chi) * far
    dwell = chi_p * (core - far) + chi * core_p + (1.0 - chi) * far_p
    return well, dwell


def eval_well_and_dwell(u, params: WellParams):
    """W(u) and W'(u) from one pass over the samples.

    When every sample lies in the core [-1, 2*u_plus], where chi = 1 and
    chi' = 0, only the closed-form branch is evaluated; the result is
    bit-identical to the blended form there.  Otherwise the blended form
    is used.  Scalars give a pair of floats.
    """
    arr = _as_input(u)
    _, lo, hi, _ = params.cutoff_knots
    if arr.size and lo <= arr.min() and arr.max() <= hi:
        well, dwell = _core(arr, params)
    else:
        well, dwell = _blended(arr, params)
    if np.ndim(u) == 0:
        return float(well), float(dwell)
    return well, dwell


def eval_well(u, params: WellParams):
    """Energy density W(u).

    Exact closed form where chi = 1 or chi = 0; quintic blend between.
    Accepts scalars or arrays; W(0) = 0 exactly.
    """
    return eval_well_and_dwell(u, params)[0]


def eval_dwell(u, params: WellParams):
    """Derivative W'(u); W'(0) = 0 and W' ~ r*u^(r-1)*(bracket at 0) near 0+."""
    return eval_well_and_dwell(u, params)[1]


def dwell_scalar(u: float, params: WellParams) -> float:
    """Scalar fast path for W'(u), for ODE right-hand sides.

    Pure-python arithmetic mirroring eval_dwell; kept consistent with it by
    a dedicated agreement test.
    """
    a, b, c, d, r, p, c5, bq, cq = params._scalar_constants
    absu = abs(u)
    sgn = 1.0 if u > 0.0 else (-1.0 if u < 0.0 else 0.0)
    quad = (u + bq) * u + cq
    quad_p = 2.0 * u + bq
    core_p = r * absu ** (r - 1.0) * sgn * quad + absu**r * quad_p if u != 0.0 else 0.0
    if b <= u <= c:
        return core_p
    if u < a or u > d:
        return c5 * p * absu ** (p - 1.0) * sgn
    if u < b:
        t = (u - a) / (b - a)
        chi = t * t * t * (10.0 + t * (-15.0 + 6.0 * t))
        chi_p = 30.0 * t * t * (1.0 - t) ** 2 / (b - a)
    else:
        t = (u - c) / (d - c)
        chi = 1.0 - t * t * t * (10.0 + t * (-15.0 + 6.0 * t))
        chi_p = -30.0 * t * t * (1.0 - t) ** 2 / (d - c)
    core = absu**r * quad
    far = c5 * absu**p
    far_p = c5 * p * absu ** (p - 1.0) * sgn
    return chi_p * (core - far) + chi * core_p + (1.0 - chi) * far_p


def smallest_positive_bracket_root(params: WellParams) -> float:
    """Smallest positive root of the quadratic bracket, in (0, u_plus).

    This is the peak amplitude of the bilayer profile: W returns to zero
    there with W' < 0.  Raises InfeasibleWellError when tau is too large
    for a root to exist in (0, u_plus); the critical value is
    tau = r*u_plus/(1+r), where the root collides with 0.
    """
    b, c = quadratic_factor_coeffs(params)
    disc = b * b - 4.0 * c
    if disc <= 0.0:
        raise InfeasibleWellError("quadratic bracket has no real roots")
    root = 0.5 * (-b - np.sqrt(disc))
    if not 0.0 < root < params.u_plus:
        raise InfeasibleWellError(
            f"no bracket root in (0, u_plus): tau={params.tau} exceeds the "
            f"critical value {params.r * params.u_plus / (1.0 + params.r):.6g}"
        )
    return float(root)


@lru_cache(maxsize=MEMO_SIZE)
def default_c5(r=1.75, u_plus=1.0, tau=0.25, p=3.0):
    """Smallest power of 2 making W' zero-free outside [0, u_plus].

    Verified on a grid over [-1000, 1000]: W' must be strictly negative
    left of 0 and strictly positive right of u_plus (a small collar around
    the exact zeros at 0 and u_plus is excluded).  A bracket without a
    root in (0, u_plus) is refused first, by that reason: it leaves W < 0
    on both sides of 0, so 0 is not a well and no c5 mends it.
    """
    smallest_positive_bracket_root(WellParams(r=r, u_plus=u_plus, tau=tau, p=p, c5=0.0))
    lo = np.geomspace(1e-4, 1000.0, 4001)
    delta = 1e-3 * u_plus
    left = -lo[::-1]
    right = u_plus + delta + lo
    for k in range(-3, 12):
        c5 = 2.0**k
        trial = WellParams(r=r, u_plus=u_plus, tau=tau, p=p, c5=c5)
        if np.all(eval_dwell(left, trial) < 0.0) and np.all(eval_dwell(right, trial) > 0.0):
            return c5
    raise InfeasibleWellError("no power-of-two c5 up to 2^11 removes spurious critical points")


def default_params(r=1.75, u_plus=1.0, tau=0.25, p=3.0) -> WellParams:
    """Default parameter set used by examples and tests; c5 is audited."""
    return WellParams(r=r, u_plus=u_plus, tau=tau, p=p, c5=default_c5(r, u_plus, tau, p))


@dataclass(frozen=True)
class GrowthConstants:
    """Certified constants for the three growth inequalities on a grid.

    c1|u|^p + c2 <= W(u) <= c1|u|^p + c3
    |W'(u)| <= c1*p*|u|^(p-1) + c3p
    c1*p*|u|^p + c4 <= W'(u)*u
    """

    c1: float
    c2: float
    c3: float
    c3p: float
    c4: float

    def __post_init__(self):
        if self.c1 <= 0.0:
            raise ValueError("leading growth coefficient c1 must be positive")


@dataclass(frozen=True)
class GrowthViolation:
    """Report of grid points where no positive leading coefficient works."""

    message: str
    violating_u: tuple


def _fit_offsets(p, c1, u, w, dw):
    absu = np.abs(u)
    lead = c1 * absu**p
    lead_p = c1 * p * absu ** (p - 1.0)
    c2 = float(np.min(w - lead))
    c3 = float(np.max(w - lead))
    c3p = float(np.max(np.abs(dw) - lead_p))
    c4 = float(np.min(dw * u - c1 * p * absu**p))
    return c2, c3, c3p, c4


def _check_constants(p, gc: GrowthConstants, u, w, dw, tol=1e-9):
    absu = np.abs(u)
    lead = gc.c1 * absu**p
    lead_p = gc.c1 * p * absu ** (p - 1.0)
    scale = 1.0 + np.abs(w) + lead
    bad = (
        (lead + gc.c2 - w > tol * scale)
        | (w - lead - gc.c3 > tol * scale)
        | (np.abs(dw) - lead_p - gc.c3p > tol * scale)
        | (lead * p + gc.c4 - dw * u > tol * scale)
    )
    return u[bad]


def audit_growth(params: WellParams, grid):
    """Fit growth constants on a sample grid, or report where they fail.

    Constants are fitted on the core region |u| <= max(10*u_plus, outer
    cutoff knot) and then validated on the whole grid, so far-field samples
    where W departs from C1|u|^p behavior produce a violation report
    (e.g. c5 = 0 makes the lower bound fail at large |u|).  Among feasible
    leading coefficients the one minimizing |c2|+|c3|+|c3p|+|c4| wins.
    """
    u = np.unique(np.asarray(grid, dtype=float))
    if u.size == 0:
        raise ValueError("audit grid is empty")
    p = params.p
    w, dw = eval_well_and_dwell(u, params)
    core_edge = max(10.0 * params.u_plus, params.cutoff_knots[3], -params.cutoff_knots[0])
    core = np.abs(u) <= core_edge
    if not core.any():
        core[:] = True
    core_u, core_w, core_dw = u[core], w[core], dw[core]

    if params.c5 > 0.0:
        candidates = params.c5 * np.array([0.25, 0.5, 0.9, 1.0, 1.1, 2.0, 4.0])
    else:
        candidates = np.geomspace(1e-3, 1e3, 13)

    best = None
    best_obj = np.inf
    worst_violations = None
    for c1 in candidates:
        c2, c3, c3p, c4 = _fit_offsets(p, c1, core_u, core_w, core_dw)
        gc = GrowthConstants(c1=float(c1), c2=c2, c3=c3, c3p=c3p, c4=c4)
        bad = _check_constants(p, gc, u, w, dw)
        if bad.size == 0:
            obj = abs(c2) + abs(c3) + abs(c3p) + abs(c4)
            if obj < best_obj:
                best_obj = obj
                best = gc
        elif worst_violations is None or bad.size < len(worst_violations):
            worst_violations = tuple(float(x) for x in bad[:32])

    if best is not None:
        return best
    return GrowthViolation(
        message="no positive leading coefficient certifies the growth "
        "inequalities on this grid (far-field branch too weak?)",
        violating_u=worst_violations or (),
    )


def default_audit_grid(params: WellParams):
    """Core samples on [-10*u_plus, 10*u_plus] plus log-spaced far-field tails."""
    span = 10.0 * params.u_plus
    core = np.linspace(-span, span, _AUDIT_CORE)
    tail = np.geomspace(span, _AUDIT_FAR, _AUDIT_TAIL)
    return np.unique(np.concatenate([core, tail, -tail]))
