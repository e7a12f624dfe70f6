"""Independent verification of the governing equations.

Back-substitution residuals for the reduced shape-function equations
(with analytic Bessel derivatives), finite-difference residuals for the
lab-frame fluid equations and for the Schrodinger equation, the phase
gradient consistency report, and a direct-differentiation cross check of
the quantum potential.

Relative residuals are measured at each point against the magnitudes of
the equation's terms, never against their (possibly cancelling) sum: the
shape equations and the lab fluid equations against their largest term,
the Schrodinger equation against |laplacian psi| + (2m/hbar)|psi_t|, the
sum of its two terms' magnitudes, and the phase-gradient report against
|(hbar/m) grad S|.
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
    _lab_arrays,
    _newton_distance,
    _simplified_shape_density_arr,
    _w_bundle,
    _z_arg,
    _zero_distance,
    shape_velocity_split,
    shape_velocity_sum,
)
from .errors import DomainError, StepTooLarge, require_finite
from .series import SampleSeries

__all__ = [
    "GridSpec",
    "ResidualReport",
    "THRESHOLDS",
    "residual_ode5",
    "residual_ode_system4",
    "residual_ode5_and_system4",
    "residual_pde_lab",
    "residual_schrodinger",
    "residual_phase_gradient",
    "quantum_potential_direct",
]

# the largest max_rel each equation passes with; None marks a comparative
# report, which never gates the exit status
THRESHOLDS = {
    "ode5": 1e-8,
    "ode_system4": 1e-6,
    "continuity": 1e-5,
    "euler_x": 1e-4,
    "euler_y": 1e-4,
    "schrodinger": 1e-4,
    "phase_gradient": None,
}

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
        if self.equation_id not in THRESHOLDS:
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
    return _shape_bundle(np.asarray(eta, dtype=float), params, consts, upto)[2]


def _shape_bundle(eta, params, consts, upto):
    # (z, [w, w', ...], [f, f', ...]) through order `upto` from one _w_bundle
    # call: the f derivatives of shape_derivatives and the w and w' they
    # are built from, which also give the zero distance
    z = _z_arg(eta, params)
    kconst = params.k
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
    return z, ws, result


# ---------------------------------------------------------------------------
# shape-equation residuals


def _ode_bundle(grid, params, consts, upto, name):
    # (etas, z, ws, fs) of the grid points, which must be positive
    etas = grid.points()
    if np.any(etas <= 0):
        raise DomainError(f"{name} must lie in (0, inf)")
    return (etas, *_shape_bundle(etas, params, consts, upto))


def residual_ode5(grid: GridSpec, params: PhysicalParams,
                  consts: SolutionConstants) -> ResidualReport:
    """Back-substitution residual of 2 f'' f - (f')^2 + m^2 eta^2 f^2/(d hbar^2).

    The derivatives come from the Bessel order-shift recurrences, so the
    residual genuinely tests the closed form against the equation instead
    of reproducing it algebraically.
    """
    etas, _, _, fs = _ode_bundle(grid, params, consts, 2, "ode5 grid")
    return _ode5_report(etas, fs, params)


def residual_ode_system4(grid: GridSpec, params: PhysicalParams,
                         consts: SolutionConstants) -> ResidualReport:
    """Residuals of the coupled shape-function system under the symmetric split.

    With g = h = (eta - c0)/4 the continuity equation cancels identically
    for c0 = 0; the two momentum equations share one right-hand side that
    divides by f and f^3, so points within _ODE_EXCLUSION of a density
    zero are excluded and counted.
    """
    return _ode_system4_report(*_ode_bundle(grid, params, consts, 3, "grid"),
                               params, consts)


def residual_ode5_and_system4(grid: GridSpec, params: PhysicalParams,
                              consts: SolutionConstants) -> tuple:
    """(residual_ode5, residual_ode_system4) on one grid, from one evaluation.

    One derivative bundle through the third derivative serves both reports
    and the zero distance of ode_system4's exclusion.  Every value depends
    only on its own eta and order, so the reports equal those of the two
    functions bit for bit.
    """
    etas, z, ws, fs = _ode_bundle(grid, params, consts, 3, "ode5 grid")
    return (_ode5_report(etas, fs, params),
            _ode_system4_report(etas, z, ws, fs, params, consts))


def _ode5_report(etas, fs, params):
    f, f1, f2 = fs[:3]
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


def _ode_system4_report(etas, z, ws, fs, params, consts):
    f, f1, f2, f3 = fs
    gh_sum = shape_velocity_sum(etas, consts)
    g, _ = shape_velocity_split(etas, consts)
    gp = _SPLIT_SLOPE

    cont = -0.5 * f - 0.5 * f1 * etas + f1 * gh_sum + f * 0.5
    cont_scale = np.maximum.reduce(
        [np.abs(0.5 * f), np.abs(0.5 * f1 * etas), np.abs(f1 * gh_sum), np.abs(f * 0.5)])
    cont_rel = np.abs(cont) / np.maximum(cont_scale, 1e-300)

    pref = params.q_prefactor
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

    dist, _ = _newton_distance(etas, z, ws[0], ws[1])
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


def _check_fd_step(fd_step):
    if not (math.isfinite(fd_step) and fd_step > 0.0):
        raise DomainError(f"fd_step must be finite and positive, got {fd_step!r}")


def _check_moves(fd_step, offset, *centres):
    # an offset that rounds away at some centre would difference a value with itself
    if any(np.any((c + offset == c) | (c - offset == c)) for c in centres):
        raise DomainError(f"fd_step {fd_step!r} is below the float spacing of the mesh")


def _stencil_mesh(space_grid, time_grid, ds, fd_step):
    # the mesh, refused where a stencil reaching ds along x and y or fd_step
    # back in t leaves the domain, or where the Richardson offset fd_step/2 rounds away
    _check_fd_step(fd_step)
    x, y, t = _mesh(space_grid, time_grid)
    if np.any(x + y - 2 * ds <= 0) or np.any(t - fd_step <= 0):
        raise DomainError("finite-difference stencil leaves the domain")
    _check_moves(fd_step, fd_step / 2.0, x, y, t)
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
    q_x = params.q_prefactor * (g[0] - g[1]) / (2 * h)

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

    Raises DomainError unless fd_step is finite, positive and moves every
    mesh coordinate by fd_step/2, and StepTooLarge when halving fd_step
    changes a residual maximum by more than 10x (truncation-dominated step).
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
    must be pointwise, each value a function of its own (x, y, t) alone,
    and return an array of the arguments' shape.  fd_step must be finite,
    positive and move every mesh coordinate by fd_step/2 (else DomainError).

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
# quantum potential by direct differentiation


def quantum_potential_direct(eta, params: PhysicalParams, consts: SolutionConstants,
                             fd_step: float = 1e-4):
    """(hbar^2/2m^2) d/deta [ (sqrt f)'' / sqrt f ] by nested differences.

    The inner second derivative of sqrt(f) uses step 3*fd_step; the outer
    derivative uses a 100x wider step, which is loss-free because the
    bracketed quantity is exactly quadratic in eta for the closed-form f.
    Compare with quantum_potential_eq9_masked to quantify how far the printed
    closed form is from this reduction.

    Takes positive eta values and a finite positive fd_step that moves every
    kept stencil point (DomainError otherwise) and returns (q, excluded),
    shaped like np.atleast_1d(eta), as quantum_potential_eq9_masked does.
    A point is excluded, and its q is NaN, if it lies within max(10 fd_step,
    2 (h1 + 2 h2)) of a density zero or its stencil leaves eta > 0.  Only
    the kept points are evaluated.
    """
    _check_fd_step(fd_step)
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
        _check_moves(fd_step, h2, pts[1, kept], pts[4, kept])
        root_f = np.sqrt(_simplified_shape_density_arr(pts[:, kept], params, consts))
        w_minus = (root_f[0] - 2 * root_f[1] + root_f[2]) / (h2 * h2) / root_f[1]
        w_plus = (root_f[3] - 2 * root_f[4] + root_f[5]) / (h2 * h2) / root_f[4]
        q[kept] = params.q_prefactor * (w_plus - w_minus) / (2 * h1)
    return q, excluded
