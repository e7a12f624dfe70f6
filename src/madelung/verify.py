"""Independent verification of the governing equations.

Back-substitution residuals for the reduced shape-function equations
(with analytic Bessel derivatives), finite-difference residuals for the
lab-frame fluid equations and for the Schrodinger equation, the phase
gradient consistency report, a direct-differentiation cross check of the
quantum potential, and an adaptive Runge-Kutta oracle for the decoupled
density equation.

Relative residuals are always measured against the largest individual
term of the equation at each point, never against their (possibly
cancelling) sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import specfun
from .core import (
    _FOUR_BESSELS,
    _QUARTER_PAIR,
    PhysicalParams,
    SolutionConstants,
    _mass_scale,
    _simplified_shape_density_arr,
    _z_arg,
)
from .errors import DomainError, SingularityError, StepTooLarge, StiffnessError, ZeroCrossing
from .series import SampleSeries
from .specfun import DEFAULT_ACCURACY, EvalAccuracy

__all__ = [
    "GridSpec",
    "ResidualReport",
    "OdeState",
    "EQUATION_IDS",
    "residual_ode5",
    "residual_ode_system4",
    "residual_pde_lab",
    "residual_schrodinger",
    "residual_phase_gradient",
    "ode5_oracle_march",
    "quantum_potential_direct",
]

EQUATION_IDS = (
    "ode5",
    "ode_system4",
    "continuity",
    "euler_x",
    "euler_y",
    "schrodinger",
    "phase_gradient",
)

_SHAPE_AMPLITUDE = math.pi * math.pi / 64.0

# splitting s = x + y into the two lab coordinates; any split works since
# the fields depend on x and y only through their sum
_X_FRACTION = 0.375


@dataclass(frozen=True)
class GridSpec:
    """A one-dimensional evaluation grid."""

    start: float
    stop: float
    count: int
    spacing: str = "uniform"

    def __post_init__(self):
        if not self.start < self.stop:
            raise DomainError("grid start must be below stop")
        if self.count < 2:
            raise DomainError("grid needs at least two points")
        if self.spacing not in ("uniform", "log"):
            raise DomainError("spacing must be 'uniform' or 'log'")
        if self.spacing == "log" and not self.start > 0:
            raise DomainError("log spacing needs start > 0")

    def points(self) -> np.ndarray:
        if self.spacing == "log":
            return np.geomspace(self.start, self.stop, self.count)
        return np.linspace(self.start, self.stop, self.count)


@dataclass(frozen=True)
class ResidualReport:
    """Per-point and aggregate residuals of one verified equation."""

    equation_id: str
    points: SampleSeries
    max_abs: float
    max_rel: float
    excluded_points: int = 0
    extras: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.equation_id not in EQUATION_IDS:
            raise DomainError(f"unknown equation id {self.equation_id!r}")
        if not self.max_abs >= 0:
            raise DomainError("max_abs must be nonnegative")
        if self.excluded_points >= len(self.points):
            raise DomainError("all points excluded")


@dataclass(frozen=True)
class OdeState:
    """State (f, f') carried by the density-equation march."""

    f: float
    f_prime: float

    def __post_init__(self):
        if not (math.isfinite(self.f) and math.isfinite(self.f_prime)):
            raise DomainError("state must be finite")


# ---------------------------------------------------------------------------
# analytic shape-function derivatives


def _cylinder_derivs(z, consts, acc, upto):
    """w = c2 Y_{1/4} - c1 J_{1/4} and d/dz derivatives through order `upto`,
    each obtained from the order-shift recurrences."""
    vals = specfun._jy(z, [(kind, 0.25, k) for k in range(upto + 1)
                           for kind in ("J", "Y")], acc)
    return [consts.c2 * yk - consts.c1 * jk for jk, yk in zip(vals[::2], vals[1::2])]


def shape_derivatives(eta, params, consts, acc=DEFAULT_ACCURACY, upto=2):
    """f and its eta-derivatives through order `upto` (2 or 3).

    Chain rule through z = k eta^2 applied to f = (pi^2/64) eta w(z)^2.
    """
    eta = np.asarray(eta, dtype=float)
    z = _z_arg(eta, params)
    kconst = params.m / (4.0 * params.hbar * math.sqrt(params.dimension))
    ws = _cylinder_derivs(z, consts, acc, upto)
    a = _SHAPE_AMPLITUDE
    w, w1 = ws[0], ws[1]
    f = a * eta * w * w
    f1 = a * (w * w + 4.0 * z * w * w1)
    result = [f, f1]
    if upto >= 2:
        w2 = ws[2]
        b = 3.0 * w * w1 + 2.0 * z * (w1 * w1 + w * w2)
        f2 = 4.0 * a * kconst * eta * b
        result.append(f2)
    if upto >= 3:
        w3 = ws[3]
        bprime = 5.0 * w1 * w1 + 5.0 * w * w2 + 2.0 * z * (3.0 * w1 * w2 + w * w3)
        f3 = 4.0 * a * kconst * (b + 2.0 * z * bprime)
        result.append(f3)
    return result


def _zero_distance(eta, params, consts, acc):
    """Newton estimate of the eta-distance to the nearest density zero,
    plus the local half-oscillation width pi/(dz/deta)."""
    eta = np.asarray(eta, dtype=float)
    z = _z_arg(eta, params)
    j, y, j1, y1 = specfun._jy(z, _QUARTER_PAIR + (("J", 0.25, 1), ("Y", 0.25, 1)), acc)
    w = consts.c2 * y - consts.c1 * j
    w1 = j1 * (-consts.c1) + y1 * consts.c2
    dz_deta = 2.0 * z / eta
    dist = np.abs(w / (w1 * dz_deta + 1e-300))
    return dist, np.pi / dz_deta


# ---------------------------------------------------------------------------
# shape-equation residuals


def residual_ode5(grid: GridSpec, params: PhysicalParams, consts: SolutionConstants,
                  acc: EvalAccuracy = DEFAULT_ACCURACY) -> ResidualReport:
    """Back-substitution residual of 2 f'' f - (f')^2 + m^2 eta^2 f^2/(d hbar^2).

    The derivatives come from the Bessel order-shift recurrences, so the
    residual genuinely tests the closed form against the equation instead
    of reproducing it algebraically.
    """
    etas = grid.points()
    if np.any(etas <= 0):
        raise DomainError("ode5 grid must lie in (0, inf)")
    f, f1, f2 = shape_derivatives(etas, params, consts, acc, upto=2)
    t_curv = 2.0 * f2 * f
    t_grad = f1 * f1
    t_mass = params.m**2 * etas**2 * f * f / (params.dimension * params.hbar**2)
    res = t_curv - t_grad + t_mass
    scale = np.maximum(np.abs(t_curv), np.maximum(t_grad, np.abs(t_mass)))
    rel = np.abs(res) / np.maximum(scale, 1e-300)
    pts = SampleSeries.from_columns(
        [("eta", etas), ("residual", res), ("rel", rel), ("scale", scale)])
    return ResidualReport("ode5", pts, float(np.max(np.abs(res))), float(np.max(rel)))


def residual_ode_system4(grid: GridSpec, params: PhysicalParams,
                         consts: SolutionConstants,
                         acc: EvalAccuracy = DEFAULT_ACCURACY,
                         exclusion_radius: float = 1e-6) -> ResidualReport:
    """Residuals of the coupled shape-function system under the symmetric split.

    With g = h = (eta - c0)/4 the continuity equation cancels identically
    for c0 = 0; the two momentum equations share one right-hand side that
    divides by f and f^3, so points within `exclusion_radius` of a density
    zero are excluded and counted.
    """
    etas = grid.points()
    if np.any(etas <= 0):
        raise DomainError("grid must lie in (0, inf)")
    f, f1, f2, f3 = shape_derivatives(etas, params, consts, acc, upto=3)
    gh_sum = (etas - consts.c0) / 2.0
    g = (etas - consts.c0) / 4.0
    gp = 0.25

    cont = -0.5 * f - 0.5 * f1 * etas + f1 * gh_sum + f * 0.5
    cont_scale = np.maximum.reduce(
        [np.abs(0.5 * f), np.abs(0.5 * f1 * etas), np.abs(f1 * gh_sum), np.abs(f * 0.5)])
    cont_rel = np.abs(cont) / np.maximum(cont_scale, 1e-300)

    pref = params.hbar**2 / (2.0 * params.m**2)
    r1 = pref * f1**3 / (2.0 * f**3)
    r2 = -pref * f1 * f2 / (f * f)
    r3 = pref * f3 / (2.0 * f)
    lhs1 = -0.5 * g
    lhs2 = -0.5 * gp * etas
    lhs3 = gh_sum * gp
    mom_g = lhs1 + lhs2 + lhs3 - (r1 + r2 + r3)
    mom_h = mom_g.copy()  # h-equation is the same expression under the split
    mom_scale = np.maximum.reduce(
        [np.abs(lhs1), np.abs(lhs2), np.abs(lhs3), np.abs(r1), np.abs(r2), np.abs(r3)])
    mom_rel = np.abs(mom_g) / np.maximum(mom_scale, 1e-300)

    dist, _ = _zero_distance(etas, params, consts, acc)
    excluded = dist < exclusion_radius
    mom_rel_m = np.where(excluded, np.nan, mom_rel)
    mom_g = np.where(excluded, np.nan, mom_g)
    mom_h = np.where(excluded, np.nan, mom_h)

    pts = SampleSeries.from_columns([
        ("eta", etas),
        ("continuity", cont), ("continuity_rel", cont_rel),
        ("momentum_g", mom_g), ("momentum_g_rel", mom_rel_m),
        ("momentum_h", mom_h), ("momentum_h_rel", mom_rel_m),
    ])
    good = ~excluded
    max_abs = float(max(np.max(np.abs(cont)), np.nanmax(np.abs(mom_g[good])) if good.any() else 0.0))
    max_rel = float(max(np.max(cont_rel), np.nanmax(mom_rel_m[good]) if good.any() else 0.0))
    extras = {
        "continuity_max_abs": float(np.max(np.abs(cont))),
        "continuity_max_rel": float(np.max(cont_rel)),
        "momentum_max_rel": float(np.nanmax(mom_rel_m[good])) if good.any() else 0.0,
    }
    return ResidualReport("ode_system4", pts, max_abs, max_rel,
                          int(np.count_nonzero(excluded)), extras)


# ---------------------------------------------------------------------------
# lab-frame finite-difference residuals


def _lab_fields(params, consts, acc):
    rt = np.sqrt
    c0 = consts.c0

    def rho(x, y, t):
        eta = (x + y) / rt(t)
        return _simplified_shape_density_arr(eta, params, consts, acc) / rt(t)

    def u(x, y, t):
        return (x + y - c0 * rt(t)) / (4.0 * t)

    return rho, u


def _mesh(space_grid, time_grid):
    s = space_grid.points()
    t = time_grid.points()
    ss, tt = np.meshgrid(s, t, indexing="ij")
    ss = ss.ravel()
    tt = tt.ravel()
    return ss * _X_FRACTION, ss * (1.0 - _X_FRACTION), tt


def _lab_exclusion(x, y, t, params, consts, acc, factor=1e-2):
    eta = (x + y) / np.sqrt(t)
    dist, arch = _zero_distance(eta, params, consts, acc)
    return dist < factor * arch


def _continuity_euler_max(space_grid, time_grid, params, consts, acc, h, hq):
    x, y, t = _mesh(space_grid, time_grid)
    if np.any(x + y - 2 * (h + hq) <= 0) or np.any(t - h <= 0):
        raise DomainError("finite-difference stencil leaves the domain")
    rho, u = _lab_fields(params, consts, acc)

    def d_x(f):
        return (f(x + h, y, t) - f(x - h, y, t)) / (2 * h)

    def d_y(f):
        return (f(x, y + h, t) - f(x, y - h, t)) / (2 * h)

    def d_t(f):
        return (f(x, y, t + h) - f(x, y, t - h)) / (2 * h)

    rho_t = d_t(rho)
    flux_x = d_x(lambda *a: rho(*a) * u(*a))
    flux_y = d_y(lambda *a: rho(*a) * u(*a))
    cont = rho_t + flux_x + flux_y
    cont_scale = np.maximum.reduce([np.abs(rho_t), np.abs(flux_x), np.abs(flux_y)])

    # quantum term by nested differences of sqrt(rho); the inner Laplacian
    # uses the wider step hq to keep its rounding noise below the budget
    def sq(xx, yy, tt_):
        return np.sqrt(rho(xx, yy, tt_))

    def g_of(xx):
        ctr = sq(xx, y, t)
        lap = ((sq(xx + hq, y, t) - 2 * ctr + sq(xx - hq, y, t))
               + (sq(xx, y + hq, t) - 2 * ctr + sq(xx, y - hq, t))) / (hq * hq)
        return lap / ctr

    qpref = params.hbar**2 / (2.0 * params.m**2)
    q_x = qpref * (g_of(x + h) - g_of(x - h)) / (2 * h)

    u_t = d_t(u)
    adv_x = u(x, y, t) * d_x(u)
    adv_y = u(x, y, t) * d_y(u)
    euler = u_t + adv_x + adv_y - q_x
    euler_scale = np.maximum.reduce(
        [np.abs(u_t), np.abs(adv_x), np.abs(adv_y), np.abs(q_x)])

    excluded = _lab_exclusion(x, y, t, params, consts, acc)
    return (x, y, t, cont, cont_scale, euler, euler_scale, excluded)


def _masked_report(equation_id, coords, res, scale, excluded, extras=None):
    x, y, t = coords
    rel = np.abs(res) / np.maximum(scale, 1e-300)
    res_m = np.where(excluded, np.nan, res)
    rel_m = np.where(excluded, np.nan, rel)
    pts = SampleSeries.from_columns(
        [("x", x), ("y", y), ("t", t), ("residual", res_m), ("rel", rel_m)])
    good = ~excluded
    max_abs = float(np.nanmax(np.abs(res_m[good]))) if good.any() else 0.0
    max_rel = float(np.nanmax(rel_m[good])) if good.any() else 0.0
    return ResidualReport(equation_id, pts, max_abs, max_rel,
                          int(np.count_nonzero(excluded)), extras or {})


def residual_pde_lab(space_grid: GridSpec, time_grid: GridSpec,
                     params: PhysicalParams, consts: SolutionConstants,
                     fd_step: float = 1e-4,
                     acc: EvalAccuracy = DEFAULT_ACCURACY,
                     richardson: bool = True):
    """Finite-difference residuals of the lab-frame fluid equations.

    Returns (continuity, euler_x, euler_y) reports over the space grid in
    s = x + y crossed with the time grid.  The x and y Euler components
    are evaluated independently but coincide because every field depends
    on x and y only through their sum.

    Raises StepTooLarge when halving fd_step changes a residual maximum
    by more than a factor of 10 (truncation-dominated step).
    """
    hq = max(fd_step, 1e-3)
    x, y, t, cont, cs, euler, es, excl = _continuity_euler_max(
        space_grid, time_grid, params, consts, acc, fd_step, hq)
    extras = {}
    if richardson:
        _, _, _, cont2, _, euler2, _, excl2 = _continuity_euler_max(
            space_grid, time_grid, params, consts, acc, fd_step / 2.0, hq)
        both = ~(excl | excl2)
        for name, a, b in (("continuity", cont, cont2), ("euler", euler, euler2)):
            ma = float(np.max(np.abs(a[both]))) if both.any() else 0.0
            mb = float(np.max(np.abs(b[both]))) if both.any() else 0.0
            ratio = ma / mb if mb > 0 else 1.0
            extras[f"richardson_ratio_{name}"] = ratio
            if ratio > 10.0:
                raise StepTooLarge(
                    f"{name} residual drops {ratio:.1f}x on halving fd_step; "
                    "step too large for the local solution scale")
    cont_rep = _masked_report("continuity", (x, y, t), cont, cs, excl, dict(extras))
    ex_rep = _masked_report("euler_x", (x, y, t), euler, es, excl, dict(extras))
    ey_rep = _masked_report("euler_y", (x, y, t), euler.copy(), es, excl, dict(extras))
    return cont_rep, ex_rep, ey_rep


def _psi_arr(x, y, t, params, consts, acc, use_eq8):
    s = x + y
    eta = s / np.sqrt(t)
    ph = params.m * s * s / (4.0 * params.hbar * t)
    if use_eq8:
        z = _z_arg(eta, params)
        j, yv, jm, ym = specfun._jy(z, _FOUR_BESSELS, acc)
        cross = jm * yv - j * ym
        num = math.sqrt(2.0) * t**0.25 * (-consts.c1 * j + consts.c2 * yv)
        modulus = num / (s**1.5 * _mass_scale(params) * cross)
    else:
        modulus = np.sqrt(_simplified_shape_density_arr(eta, params, consts, acc)
                          / np.sqrt(t))
    return modulus * np.exp(1j * ph)


def _schrodinger_residual_arrays(space_grid, time_grid, params, consts, acc,
                                 h, psi):
    x, y, t = _mesh(space_grid, time_grid)
    if np.any(x + y - 2 * h <= 0) or np.any(t - h <= 0):
        raise DomainError("finite-difference stencil leaves the domain")
    ctr = psi(x, y, t)
    lap = ((psi(x + h, y, t) - 2 * ctr + psi(x - h, y, t))
           + (psi(x, y + h, t) - 2 * ctr + psi(x, y - h, t))) / (h * h)
    psi_t = (psi(x, y, t + h) - psi(x, y, t - h)) / (2 * h)
    coeff = 2.0 * params.m / params.hbar
    res = lap - 1j * coeff * psi_t
    scale = np.abs(lap) + coeff * np.abs(psi_t)
    excluded = _lab_exclusion(x, y, t, params, consts, acc)
    return x, y, t, res, scale, excluded


def residual_schrodinger(space_grid: GridSpec, time_grid: GridSpec,
                         params: PhysicalParams, consts: SolutionConstants,
                         fd_step: float = 1e-4,
                         acc: EvalAccuracy = DEFAULT_ACCURACY,
                         use_eq8: bool = False,
                         richardson: bool = True,
                         *, psi=None) -> ResidualReport:
    """Finite-difference residual of the free Schrodinger equation.

    Evaluates laplacian(psi) - i (2m/hbar) d(psi)/dt for the canonical
    wave function (or the literally transcribed one when use_eq8 is set)
    and scales per point by |laplacian| + (2m/hbar)|d psi/dt|.

    This is the printed, time-reversed form of the equation (the standard
    one is i hbar psi_t = -(hbar^2/2m) laplacian(psi)), so it is solved by
    the complex conjugates of the standard free solutions, e^{-i...}
    rather than e^{+i...}.

    psi, when given, replaces the paper's wave function by a vectorized
    callable (x, y, t) -> complex array, e.g. an exact solution serving as
    a positive control; the exclusion mask stays the one of params and
    consts.  It cannot be combined with use_eq8.

    Richardson ratio: on the 21x7 acceptance grid an exact solution gives
    4 (second-order truncation) at fd_step 1e-3, but at fd_step <~ 1e-4
    the second differences are dominated by rounding, and the ratio then
    measures rounding, not truncation.
    """
    if psi is None:
        def psi(xx, yy, tt_):
            return _psi_arr(xx, yy, tt_, params, consts, acc, use_eq8)
        wavefunction = "eq8" if use_eq8 else "canonical"
    elif use_eq8:
        raise DomainError("psi and use_eq8 are mutually exclusive")
    else:
        wavefunction = "custom"
    x, y, t, res, scale, excl = _schrodinger_residual_arrays(
        space_grid, time_grid, params, consts, acc, fd_step, psi)
    extras = {"wavefunction": wavefunction}
    if richardson:
        _, _, _, res2, _, excl2 = _schrodinger_residual_arrays(
            space_grid, time_grid, params, consts, acc, fd_step / 2.0, psi)
        both = ~(excl | excl2)
        ma = float(np.max(np.abs(res[both]))) if both.any() else 0.0
        mb = float(np.max(np.abs(res2[both]))) if both.any() else 0.0
        ratio = ma / mb if mb > 0 else 1.0
        extras["richardson_ratio"] = ratio
        if ratio > 10.0:
            raise StepTooLarge("schrodinger residual changes more than 10x on halving")
    rel = np.abs(res) / np.maximum(scale, 1e-300)
    res_m = np.where(excl, np.nan, np.abs(res))
    rel_m = np.where(excl, np.nan, rel)
    pts = SampleSeries.from_columns(
        [("x", x), ("y", y), ("t", t), ("residual_abs", res_m), ("rel", rel_m)])
    good = ~excl
    max_abs = float(np.nanmax(res_m[good])) if good.any() else 0.0
    max_rel = float(np.nanmax(rel_m[good])) if good.any() else 0.0
    return ResidualReport("schrodinger", pts, max_abs, max_rel,
                          int(np.count_nonzero(excl)), extras)


def residual_phase_gradient(space_grid: GridSpec, time_grid: GridSpec,
                            params: PhysicalParams,
                            consts: SolutionConstants) -> ResidualReport:
    """Report of (u, v) - (hbar/m) grad S with the printed phase.

    The comparison is a deliverable, not a pass/fail check: the closed
    forms give (hbar/m) dS/dx = (x+y)/(2t) against u = (x+y)/(4t), a
    systematic factor of two that is reported in the extras.
    """
    x, y, t = _mesh(space_grid, time_grid)
    _, u = _lab_fields(params, consts, DEFAULT_ACCURACY)
    uval = u(x, y, t)
    grad_term = (x + y) / (2.0 * t)  # (hbar/m) dS/dx = (hbar/m) dS/dy
    res = uval - grad_term
    rel = np.abs(res) / np.maximum(np.abs(grad_term), 1e-300)
    pts = SampleSeries.from_columns(
        [("x", x), ("y", y), ("t", t),
         ("residual_x", res), ("residual_y", res), ("rel", rel)])
    ratio = grad_term / uval
    extras = {
        "gradient_over_velocity_mean": float(np.mean(ratio)),
        "gradient_over_velocity_spread": float(np.max(ratio) - np.min(ratio)),
    }
    return ResidualReport("phase_gradient", pts, float(np.max(np.abs(res))),
                          float(np.max(rel)), 0, extras)


# ---------------------------------------------------------------------------
# adaptive Runge-Kutta oracle

# Dormand-Prince 5(4) tableau
_DP_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_DP_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_DP_B5 = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0)
_DP_B4 = (5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200,
          187 / 2100, 1 / 40)
_DP_ERR = tuple(b5 - b4 for b5, b4 in zip(_DP_B5, _DP_B4))

_STEP_FLOOR = 1e-14
_ZERO_FLOOR = 1e-12


def ode5_oracle_march(eta0: float, eta1: float, params: PhysicalParams,
                      consts: SolutionConstants, tol: float = 1e-10,
                      acc: EvalAccuracy = DEFAULT_ACCURACY) -> SampleSeries:
    """Integrate f'' = ((f')^2 - m^2 eta^2 f^2/(d hbar^2)) / (2 f) numerically.

    Starts from closed-form initial data at eta0 and marches to eta1 with
    an embedded Dormand-Prince 5(4) pair under PI step-size control.
    Returns the accepted (eta, f, f') samples.  Raises ZeroCrossing (with
    the partial trajectory attached) when f drops below 1e-12, and
    StiffnessError if the step size underflows.
    """
    if not (eta0 > 0 and eta1 > eta0):
        raise DomainError("need 0 < eta0 < eta1")
    f0, f1 = (float(v[0]) for v in shape_derivatives(
        np.array([eta0]), params, consts, acc, upto=1))
    if f0 <= 1e-10:
        raise DomainError("eta0 is too close to a density zero")
    state0 = OdeState(f0, f1)

    msq = params.m**2 / (params.dimension * params.hbar**2)

    def rhs(eta, state):
        f, fp = state
        return np.array([fp, (fp * fp - msq * eta * eta * f * f) / (2.0 * f)])

    eta = eta0
    y = np.array([state0.f, state0.f_prime])
    rows = [(eta, y[0], y[1])]
    h = min(1e-3, (eta1 - eta0) / 10.0)
    err_prev = 1.0
    k1 = rhs(eta, y)
    while eta < eta1:
        h = min(h, eta1 - eta)
        if h < _STEP_FLOOR * max(1.0, abs(eta)):
            raise StiffnessError(f"step underflow at eta = {eta!r}")
        ks = [k1]
        failed = False
        for i in range(1, 7):
            yi = y + h * sum(a * k for a, k in zip(_DP_A[i], ks))
            if yi[0] <= 0.0:  # stage left the positive-density region
                failed = True
                break
            ks.append(rhs(eta + _DP_C[i] * h, yi))
        if failed:
            h *= 0.5
            continue
        y_new = y + h * sum(b * k for b, k in zip(_DP_B5, ks))
        err_vec = h * sum(e * k for e, k in zip(_DP_ERR, ks))
        sc = 1e-14 + tol * np.maximum(np.abs(y), np.abs(y_new))
        err = float(np.sqrt(np.mean((err_vec / sc) ** 2)))
        if not math.isfinite(err):
            h *= 0.5
            continue
        if err <= 1.0:
            eta += h
            y = y_new
            k1 = ks[6]  # FSAL
            rows.append((eta, y[0], y[1]))
            if y[0] < _ZERO_FLOOR:
                series = SampleSeries.from_columns(
                    [("eta", [r[0] for r in rows]),
                     ("f", [r[1] for r in rows]),
                     ("f_prime", [r[2] for r in rows])])
                raise ZeroCrossing(f"f crossed zero near eta = {eta!r}", series)
            fac = 0.9 * err ** -0.14 * err_prev ** 0.08 if err > 0 else 5.0
            err_prev = max(err, 1e-10)
            h *= min(5.0, max(0.2, fac))
        else:
            h *= max(0.2, 0.9 * err ** -0.2)
    return SampleSeries.from_columns(
        [("eta", [r[0] for r in rows]),
         ("f", [r[1] for r in rows]),
         ("f_prime", [r[2] for r in rows])])


# ---------------------------------------------------------------------------
# quantum potential by direct differentiation


def quantum_potential_direct(eta: float, params: PhysicalParams,
                             consts: SolutionConstants,
                             fd_step: float = 1e-4,
                             acc: EvalAccuracy = DEFAULT_ACCURACY) -> float:
    """(hbar^2/2m^2) d/deta [ (sqrt f)'' / sqrt f ] by nested differences.

    The inner second derivative of sqrt(f) uses step 3*fd_step; the outer
    derivative uses a 100x wider step, which is loss-free because the
    bracketed quantity is exactly quadratic in eta for the closed-form f.
    Compare with quantum_potential_eq9 to quantify how far the printed
    closed form is from this reduction.
    """
    h2 = 3.0 * fd_step
    h1 = 100.0 * fd_step
    dist, _ = _zero_distance(np.array([eta]), params, consts, acc)
    guard = max(10.0 * fd_step, 2.0 * (h1 + 2 * h2))
    if float(dist[0]) < guard:
        raise SingularityError(
            f"eta = {eta!r} is within {guard} of a density zero")
    pts = np.array([eta - h1 - h2, eta - h1, eta - h1 + h2,
                    eta + h1 - h2, eta + h1, eta + h1 + h2])
    if np.any(pts <= 0):
        raise DomainError("stencil leaves eta > 0")
    root_f = np.sqrt(_simplified_shape_density_arr(pts, params, consts, acc))
    w_minus = (root_f[0] - 2 * root_f[1] + root_f[2]) / (h2 * h2) / root_f[1]
    w_plus = (root_f[3] - 2 * root_f[4] + root_f[5]) / (h2 * h2) / root_f[4]
    return params.hbar**2 / (2.0 * params.m**2) * (w_plus - w_minus) / (2 * h1)
