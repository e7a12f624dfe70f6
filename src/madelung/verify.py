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
from functools import partial

import numpy as np

from .core import (
    _SHAPE_AMPLITUDE,
    _SPLIT_SLOPE,
    GridSpec,
    PhysicalParams,
    SolutionConstants,
    _check_eta,
    _k_const,
    _lab_arrays,
    _q_prefactor,
    _simplified_shape_density_arr,
    _w_bundle,
    _z_arg,
    _zero_distance,
    shape_velocity_split,
    shape_velocity_sum,
)
from .errors import DomainError, StepTooLarge, StiffnessError, ZeroCrossing, require_finite
from .series import SampleSeries

__all__ = [
    "GridSpec",
    "ResidualReport",
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

# splitting s = x + y into the two lab coordinates; any split works since
# the fields depend on x and y only through their sum
_X_FRACTION = 0.375
# ode_system4 excludes points within this eta-distance of a density zero, and
# the lab residuals within this fraction of the local half-oscillation width
_ODE_EXCLUSION = 1e-6
_LAB_EXCLUSION = 1e-2


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


# ---------------------------------------------------------------------------
# analytic shape-function derivatives


def shape_derivatives(eta, params, consts, upto=2):
    """f and its eta-derivatives through order `upto` (1, 2 or 3).

    Chain rule through z = k eta^2 applied to f = (pi^2/64) eta w(z)^2.
    """
    eta = np.asarray(eta, dtype=float)
    z = _z_arg(eta, params)
    kconst = _k_const(params)
    ws = _w_bundle(z, consts, upto)
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


# ---------------------------------------------------------------------------
# shape-equation residuals


def residual_ode5(grid: GridSpec, params: PhysicalParams,
                  consts: SolutionConstants) -> ResidualReport:
    """Back-substitution residual of 2 f'' f - (f')^2 + m^2 eta^2 f^2/(d hbar^2).

    The derivatives come from the Bessel order-shift recurrences, so the
    residual genuinely tests the closed form against the equation instead
    of reproducing it algebraically.
    """
    etas = grid.points()
    if np.any(etas <= 0):
        raise DomainError("ode5 grid must lie in (0, inf)")
    f, f1, f2 = shape_derivatives(etas, params, consts, upto=2)
    t_curv = 2.0 * f2 * f
    t_grad = f1 * f1
    t_mass = (np.float64(params.m) ** 2 * etas**2 * f * f
              / (params.dimension * np.float64(params.hbar) ** 2))
    res = t_curv - t_grad + t_mass
    require_finite("ode5 residual", res, eta=etas)
    scale = np.maximum(np.abs(t_curv), np.maximum(t_grad, np.abs(t_mass)))
    rel = np.abs(res) / np.maximum(scale, 1e-300)
    pts = SampleSeries.from_columns(
        [("eta", etas), ("residual", res), ("rel", rel), ("scale", scale)])
    return ResidualReport("ode5", pts, float(np.max(np.abs(res))), float(np.max(rel)))


def residual_ode_system4(grid: GridSpec, params: PhysicalParams,
                         consts: SolutionConstants) -> ResidualReport:
    """Residuals of the coupled shape-function system under the symmetric split.

    With g = h = (eta - c0)/4 the continuity equation cancels identically
    for c0 = 0; the two momentum equations share one right-hand side that
    divides by f and f^3, so points within _ODE_EXCLUSION of a density
    zero are excluded and counted.
    """
    etas = grid.points()
    if np.any(etas <= 0):
        raise DomainError("grid must lie in (0, inf)")
    f, f1, f2, f3 = shape_derivatives(etas, params, consts, upto=3)
    gh_sum = shape_velocity_sum(etas, consts)
    g, _ = shape_velocity_split(etas, consts)
    gp = _SPLIT_SLOPE

    cont = -0.5 * f - 0.5 * f1 * etas + f1 * gh_sum + f * 0.5
    cont_scale = np.maximum.reduce(
        [np.abs(0.5 * f), np.abs(0.5 * f1 * etas), np.abs(f1 * gh_sum), np.abs(f * 0.5)])
    cont_rel = np.abs(cont) / np.maximum(cont_scale, 1e-300)

    pref = _q_prefactor(params)
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

    dist, _ = _zero_distance(etas, params, consts)
    excluded = dist < _ODE_EXCLUSION
    require_finite("ode_system4 residual", [cont, np.where(excluded, 0.0, mom_g)], eta=etas)
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
    extras = {
        "continuity_max_abs": float(np.max(np.abs(cont))),
        "continuity_max_rel": float(np.max(cont_rel)),
        "momentum_max_rel": float(np.nanmax(mom_rel_m[good])) if good.any() else 0.0,
    }
    mom_max_abs = float(np.nanmax(np.abs(mom_g[good]))) if good.any() else 0.0
    max_abs = max(extras["continuity_max_abs"], mom_max_abs)
    max_rel = max(extras["continuity_max_rel"], extras["momentum_max_rel"])
    return ResidualReport("ode_system4", pts, max_abs, max_rel,
                          int(np.count_nonzero(excluded)), extras)


# ---------------------------------------------------------------------------
# lab-frame finite-difference residuals


def _lab_fields(names, x, y, t, params, consts):
    # core's lab fields, with the simplified density shape for rho
    return _lab_arrays(names, x, y, t, params, consts, _simplified_shape_density_arr)


def _mesh(space_grid, time_grid):
    s = space_grid.points()
    t = time_grid.points()
    ss, tt = np.meshgrid(s, t, indexing="ij")
    ss = ss.ravel()
    tt = tt.ravel()
    return ss * _X_FRACTION, ss * (1.0 - _X_FRACTION), tt


def _stencil_mesh(space_grid, time_grid, ds, dt):
    # the mesh, refused where a stencil reaching ds along each of x and y,
    # or dt back in t, would leave the domain
    x, y, t = _mesh(space_grid, time_grid)
    if np.any(x + y - 2 * ds <= 0) or np.any(t - dt <= 0):
        raise DomainError("finite-difference stencil leaves the domain")
    return x, y, t


def _lab_exclusion(x, y, t, params, consts):
    eta = (x + y) / np.sqrt(t)
    dist, arch = _zero_distance(eta, params, consts)
    return dist < _LAB_EXCLUSION * arch


def _continuity_euler(x, y, t, params, consts, h, hq):
    # rho and u on all 17 stencil sets from one _lab_fields call (each value
    # depends on its own point alone): central differences along t, x and y,
    # the 5-point Laplacians of sqrt(rho) at x + h and x - h, whose wider
    # step hq keeps their rounding noise below the budget, and the centre
    sets = [(x, y, t + h), (x, y, t - h), (x + h, y, t), (x - h, y, t),
            (x, y + h, t), (x, y - h, t)]
    for xx in (x + h, x - h):
        sets += [(xx, y, t), (xx + hq, y, t), (xx - hq, y, t), (xx, y + hq, t),
                 (xx, y - hq, t)]
    rho, u = _lab_fields(("rho", "u"), *map(np.stack, zip(*sets, (x, y, t))),
                         params, consts)
    # central differences between the sets i and i + 1
    flux = rho * u
    rho_t, flux_x, flux_y = ((a[i] - a[i + 1]) / (2 * h)
                             for a, i in ((rho, 0), (flux, 2), (flux, 4)))
    u_t, u_x, u_y = ((u[i] - u[i + 1]) / (2 * h) for i in (0, 2, 4))
    cont = rho_t + flux_x + flux_y
    cont_scale = np.maximum.reduce([np.abs(rho_t), np.abs(flux_x), np.abs(flux_y)])

    # quantum term: lap(sqrt rho)/sqrt rho on sets 6-10 and 11-15, differenced
    sq = np.sqrt(rho)
    g = [((sq[i + 1] - 2 * sq[i] + sq[i + 2]) + (sq[i + 3] - 2 * sq[i] + sq[i + 4]))
         / (hq * hq) / sq[i] for i in (6, 11)]
    q_x = _q_prefactor(params) * (g[0] - g[1]) / (2 * h)

    adv_x = u[16] * u_x
    adv_y = u[16] * u_y
    euler = u_t + adv_x + adv_y - q_x
    euler_scale = np.maximum.reduce(
        [np.abs(u_t), np.abs(adv_x), np.abs(adv_y), np.abs(q_x)])
    return cont, cont_scale, euler, euler_scale


def _masked_report(equation_id, coords, res, scale, excluded, extras=None,
                   res_name="residual"):
    x, y, t = coords
    require_finite(f"{equation_id} residual", np.where(excluded, 0.0, res), x=x, y=y, t=t)
    rel = np.abs(res) / np.maximum(scale, 1e-300)
    res_m = np.where(excluded, np.nan, res)
    rel_m = np.where(excluded, np.nan, rel)
    pts = SampleSeries.from_columns(
        [("x", x), ("y", y), ("t", t), (res_name, res_m), ("rel", rel_m)])
    good = ~excluded
    max_abs = float(np.nanmax(np.abs(res_m[good]))) if good.any() else 0.0
    max_rel = float(np.nanmax(rel_m[good])) if good.any() else 0.0
    return ResidualReport(equation_id, pts, max_abs, max_rel,
                          int(np.count_nonzero(excluded)), extras or {})


def _richardson_ratio(a, b, kept):
    # max |a| over max |b| on the kept points; 1 if b vanishes
    ma = float(np.max(np.abs(a[kept]))) if kept.any() else 0.0
    mb = float(np.max(np.abs(b[kept]))) if kept.any() else 0.0
    return ma / mb if mb > 0 else 1.0


def residual_pde_lab(space_grid: GridSpec, time_grid: GridSpec,
                     params: PhysicalParams, consts: SolutionConstants,
                     fd_step: float = 1e-4):
    """Finite-difference residuals of the lab-frame fluid equations.

    Returns (continuity, euler_x, euler_y) reports over the space grid in
    s = x + y crossed with the time grid.  Every field depends on x and y
    only through their sum, so the two Euler components are equal: euler_y
    is a copy of the one Euler residual that euler_x reports, not a second
    evaluation.

    Raises StepTooLarge when halving fd_step changes a residual maximum
    by more than a factor of 10 (truncation-dominated step).
    """
    hq = max(fd_step, 1e-3)
    x, y, t = _stencil_mesh(space_grid, time_grid, fd_step + hq, fd_step)
    cont, cs, euler, es = _continuity_euler(x, y, t, params, consts, fd_step, hq)
    excl = _lab_exclusion(x, y, t, params, consts)
    cont2, _, euler2, _ = _continuity_euler(x, y, t, params, consts, fd_step / 2.0, hq)
    extras = {}
    for name, a, b in (("continuity", cont, cont2), ("euler", euler, euler2)):
        ratio = _richardson_ratio(a, b, ~excl)
        extras[f"richardson_ratio_{name}"] = ratio
        if ratio > 10.0:
            raise StepTooLarge(
                f"{name} residual drops {ratio:.1f}x on halving fd_step; "
                "step too large for the local solution scale")
    cont_rep = _masked_report("continuity", (x, y, t), cont, cs, excl, dict(extras))
    ex_rep = _masked_report("euler_x", (x, y, t), euler, es, excl, dict(extras))
    ey_rep = _masked_report("euler_y", (x, y, t), euler.copy(), es, excl, dict(extras))
    return cont_rep, ex_rep, ey_rep


def _psi_canonical(x, y, t, params, consts):
    re, im = _lab_fields(("psi_re", "psi_im"), x, y, t, params, consts)
    return re + 1j * im


def _schrodinger_residual(x, y, t, params, h, psi):
    # one psi call on the 7 stencil sets, stacked as rows in this order, so
    # a non-finite psi is named at the first point a call per set would name
    sets = [(x, y, t), (x + h, y, t), (x - h, y, t), (x, y + h, t), (x, y - h, t),
            (x, y, t + h), (x, y, t - h)]
    ctr, xp, xm, yp, ym, tp, tm = psi(*map(np.stack, zip(*sets)))
    lap = ((xp - 2 * ctr + xm) + (yp - 2 * ctr + ym)) / (h * h)
    psi_t = (tp - tm) / (2 * h)
    coeff = 2.0 * params.m / params.hbar
    res = lap - 1j * coeff * psi_t
    scale = np.abs(lap) + coeff * np.abs(psi_t)
    return res, scale


def residual_schrodinger(space_grid: GridSpec, time_grid: GridSpec,
                         params: PhysicalParams, consts: SolutionConstants,
                         fd_step: float = 1e-4,
                         *, psi=None) -> ResidualReport:
    """Finite-difference residual of the free Schrodinger equation.

    Evaluates laplacian(psi) - i (2m/hbar) d(psi)/dt for the canonical
    wave function and scales per point by |laplacian| + (2m/hbar)|d psi/dt|.

    This is the printed, time-reversed form of the equation (the standard
    one is i hbar psi_t = -(hbar^2/2m) laplacian(psi)), so it is solved by
    the complex conjugates of the standard free solutions, e^{-i...}
    rather than e^{+i...}.

    psi, when given, replaces the paper's wave function by a vectorized
    callable (x, y, t) -> complex array, e.g. an exact solution serving as
    a positive control; the exclusion mask stays the one of params and
    consts.  The literally transcribed eq. 8 wave function is one such psi:
    (x, y, t) -> core._psi_eq8(x, y, t, params, consts).  Each difference
    step calls psi once, on its whole stencil: (7, n) arrays whose rows are
    the centre and the points shifted by +-fd_step along x, y and t.  psi
    must therefore be pointwise, each value a function of its own (x, y, t)
    alone, and return an array of the arguments' shape.

    Richardson ratio: on the 21x7 acceptance grid an exact solution gives
    4 (second-order truncation) at fd_step 1e-3, but at fd_step <~ 1e-4
    the second differences are dominated by rounding, and the ratio then
    measures rounding, not truncation.
    """
    wavefunction = "canonical" if psi is None else "custom"
    psi = psi or partial(_psi_canonical, params=params, consts=consts)
    x, y, t = _stencil_mesh(space_grid, time_grid, fd_step, fd_step)
    res, scale = _schrodinger_residual(x, y, t, params, fd_step, psi)
    excl = _lab_exclusion(x, y, t, params, consts)
    res2, _ = _schrodinger_residual(x, y, t, params, fd_step / 2.0, psi)
    ratio = _richardson_ratio(res, res2, ~excl)
    if ratio > 10.0:
        raise StepTooLarge("schrodinger residual changes more than 10x on halving")
    return _masked_report("schrodinger", (x, y, t), np.abs(res), scale, excl,
                          {"wavefunction": wavefunction, "richardson_ratio": ratio},
                          "residual_abs")


def residual_phase_gradient(space_grid: GridSpec, time_grid: GridSpec,
                            params: PhysicalParams,
                            consts: SolutionConstants) -> ResidualReport:
    """Report of (u, v) - (hbar/m) grad S with the printed phase.

    The comparison is a deliverable, not a pass/fail check: the closed
    forms give (hbar/m) dS/dx = (x+y)/(2t) against u = (x+y)/(4t), a
    systematic factor of two that is reported in the extras.  u is core's
    lab velocity, so a space grid with some x + y <= 0 raises DomainError.
    """
    x, y, t = _mesh(space_grid, time_grid)
    [uval] = _lab_fields(("u",), x, y, t, params, consts)
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
                      consts: SolutionConstants, tol: float = 1e-10) -> SampleSeries:
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
        np.array([eta0]), params, consts, upto=1))
    if f0 <= 1e-10:
        raise DomainError("eta0 is too close to a density zero")
    if not (math.isfinite(f0) and math.isfinite(f1)):
        raise DomainError("state must be finite")

    msq = params.m**2 / (params.dimension * params.hbar**2)

    def rhs(eta, state):
        f, fp = state
        return np.array([fp, (fp * fp - msq * eta * eta * f * f) / (2.0 * f)])

    def samples():
        return SampleSeries.from_columns(
            [(name, [r[i] for r in rows]) for i, name in enumerate(("eta", "f", "f_prime"))])

    eta = eta0
    y = np.array([f0, f1])
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
                raise ZeroCrossing(f"f crossed zero near eta = {eta!r}", samples())
            fac = 0.9 * err ** -0.14 * err_prev ** 0.08 if err > 0 else 5.0
            err_prev = max(err, 1e-10)
            h *= min(5.0, max(0.2, fac))
        else:
            h *= max(0.2, 0.9 * err ** -0.2)
    return samples()


# ---------------------------------------------------------------------------
# quantum potential by direct differentiation


def quantum_potential_direct(eta, params: PhysicalParams, consts: SolutionConstants,
                             fd_step: float = 1e-4):
    """(hbar^2/2m^2) d/deta [ (sqrt f)'' / sqrt f ] by nested differences.

    The inner second derivative of sqrt(f) uses step 3*fd_step; the outer
    derivative uses a 100x wider step, which is loss-free because the
    bracketed quantity is exactly quadratic in eta for the closed-form f.
    Compare with quantum_potential_eq9_masked to quantify how far the printed
    closed form is from this reduction.

    Takes positive eta values and returns (q, excluded), shaped like
    np.atleast_1d(eta), as quantum_potential_eq9_masked does.  A point is
    excluded, and its q is NaN, if it lies within max(10 fd_step,
    2 (h1 + 2 h2)) of a density zero or its stencil leaves eta > 0.  Only
    the kept points are evaluated.
    """
    eta = np.atleast_1d(_check_eta(eta))
    h2 = 3.0 * fd_step
    h1 = 100.0 * fd_step
    dist, _ = _zero_distance(eta, params, consts)
    guard = max(10.0 * fd_step, 2.0 * (h1 + 2 * h2))
    pts = np.stack([eta - h1 - h2, eta - h1, eta - h1 + h2,
                    eta + h1 - h2, eta + h1, eta + h1 + h2])
    excluded = (dist < guard) | np.any(pts <= 0, axis=0)
    q = np.full(eta.shape, np.nan)
    kept = ~excluded
    if kept.any():
        root_f = np.sqrt(_simplified_shape_density_arr(pts[:, kept], params, consts))
        w_minus = (root_f[0] - 2 * root_f[1] + root_f[2]) / (h2 * h2) / root_f[1]
        w_plus = (root_f[3] - 2 * root_f[4] + root_f[5]) / (h2 * h2) / root_f[4]
        q[kept] = _q_prefactor(params) * (w_plus - w_minus) / (2 * h1)
    return q, excluded
