"""Zeros of the density, pole matching, and integrability analysis.

Root finding works in the Bessel argument z = m eta^2 / (4 hbar sqrt(d)).
With J_{1/4} = M cos theta and Y_{1/4} = M sin theta (DLMF 10.18), the
numerator factor w = c2 Y_{1/4} - c1 J_{1/4} is R M sin(theta - phi), so
its zeros are the z with theta(z) = phi + n pi: the phase at the range
ends gives every n in between, and one vectorized Newton on theta, with
the exact 1/theta' = pi z M^2/2, finds them all in about five evaluator
requests.  The potential's bracket denominator D = c1 J_{1/4} - c2 Y_{1/4}
is -w, so pole matching checks each zero by another method: safeguarded
Newton on w, with the analytic derivative w' = c2 Y_{-3/4} - c1 J_{-3/4}
- w/(4z) of core's w bundle (the same w' as the quantum potential's),
refines a sign-change bracket around it.  The quadrature for the running
integral of the density shape function uses the same variable: with
f = (pi^2/64) eta w(z)^2,

    int_0^H f deta = pi^2/(128 k) int_0^{k H^2} w(z)^2 dz,    k = m/(4 hbar sqrt(d)),

and w(z)^2 is integrated on fixed panels: z = u^2 on [0, 1], then steps
of pi/2 in z, half the period of w^2 ~ sin^2, up to z = 800, beyond which
the tail is done in closed form.  Partial integrals are reported together
with two competing tail fits (a + b ln H versus a - c/H); the verdict is
reported, never asserted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import specfun
from .core import (
    GridSpec,
    PhysicalParams,
    SolutionConstants,
    _lab_arrays,
    _simplified_shape_density_arr,
    _w_bundle,
    quantum_potential_eq9_masked,
)
from .errors import DomainError, RangeTooNarrow, ToleranceNotMet, UnmatchedRoot, require_finite
from .series import SampleSeries

__all__ = [
    "RootSet",
    "QuadratureResult",
    "TailModel",
    "find_zeros",
    "match_poles",
    "integrate_density",
    "figure_series",
]

# beyond this z the oscillatory integral is done in closed form (smooth
# modulus part analytically, oscillation by parts down to a bounded
# remainder); below it, on the panels of _panel_edges
_TAIL_START = 800.0
# a quadrature panel is not resolved below this fraction of its own value,
# where its two-level difference measures rounding: the Bessel kernels'
# rounding reaches ~4e-14 of w^2 below the series switch (z = 8), and on
# the acceptance sets a floor of 1e-13 still let panels bisect to the
# 40-level cap; the checkpoint err carries a 1e-13 rounding term of its own
_ROUNDING_FLOOR = 1e-12


@dataclass(frozen=True)
class RootSet:
    """Located density zeros and (optionally) matched quantum-potential poles.

    roots: ordered (eta_star, width) pairs; width bounds the root's error
        in eta by its last Newton step.
    matched_poles: (eta_star, q_pole_eta, separation) triples.
    """

    roots: tuple
    matched_poles: tuple = ()

    def __post_init__(self):
        etas = [r[0] for r in self.roots]
        if any(b <= a for a, b in zip(etas, etas[1:])):
            raise DomainError("roots must be strictly increasing")
        if any(r[1] > 1e-10 for r in self.roots):
            raise DomainError("root width above 1e-10 after refinement")
        object.__setattr__(self, "roots", tuple(tuple(r) for r in self.roots))
        object.__setattr__(self, "matched_poles",
                           tuple(tuple(p) for p in self.matched_poles))

    def etas(self) -> np.ndarray:
        return np.array([r[0] for r in self.roots])


@dataclass(frozen=True)
class TailModel:
    """Competing large-H fits of the running integral F(H)."""

    kind: str  # 'logarithmic' | 'convergent' | 'undetermined'
    log_offset: float
    log_coefficient: float
    log_rms: float
    conv_limit: float
    conv_rate: float
    conv_rms: float


@dataclass(frozen=True)
class QuadratureResult:
    """Partial integrals F(H) with error estimates and the tail verdict."""

    partial_integrals: tuple  # (H, F, est_error) ordered by H
    tail_model: TailModel
    verdict_note: str

    def __post_init__(self):
        hs = [p[0] for p in self.partial_integrals]
        if any(b <= a for a, b in zip(hs, hs[1:])):
            raise DomainError("partial integrals must be ordered by H")
        if any(p[2] < 0 for p in self.partial_integrals):
            raise DomainError("est_error must be nonnegative")


def _c_fn(consts):
    # w(z) for the quadrature
    def fn(z):
        return _w_bundle(np.asarray(z, dtype=float), consts)[0]
    return fn


def _newton_fn(consts):
    # (w, w') for the Newton refinement of the poles
    return lambda z: _w_bundle(z, consts, upto=1)


# ---------------------------------------------------------------------------
# zeros and poles


def _refine_brackets(fn, lo, hi, sign_lo, z, width_tol, first=None):
    """Safeguarded Newton refinement of sign-change brackets (vectorized).

    fn(z) returns the function and its derivative; sign_lo is the sign of
    the function at each lo, and z each bracket's starting point.  first,
    when given, is fn(z) at the starting points, already evaluated, and
    serves the first step in place of an fn call.  Each
    step evaluates the open brackets at their current points only and
    keeps the side that holds the sign change.  The next point is the
    Newton point when it lies in the bracket, else the midpoint; a Newton
    point within half the tolerance of an end moves to half the tolerance
    inside it, just past the predicted root, so that one more evaluation
    closes the bracket.  A bracket is closed at a width of
    max(width_tol, 2 ulp(hi)): above z = 4096 the float spacing alone
    exceeds 1e-12.
    """
    lo = np.array(lo, dtype=float)
    hi = np.array(hi, dtype=float)
    z = np.array(z, dtype=float)
    for _ in range(80):
        tol = np.maximum(width_tol, 2.0 * np.spacing(hi))
        idx = np.flatnonzero(hi - lo > tol)
        if len(idx) == 0:
            break
        zi, a, b, half = z[idx], lo[idx], hi[idx], 0.5 * tol[idx]
        f, fprime = fn(zi) if first is None else (v[idx] for v in first)
        first = None
        take_hi = sign_lo[idx] * f <= 0.0
        b = np.where(take_hi, zi, b)
        a = np.where(take_hi, a, zi)
        with np.errstate(divide="ignore", invalid="ignore"):
            newton = zi - f / fprime
        # a non-finite Newton point fails both comparisons
        inside = (newton >= a) & (newton <= b)
        z[idx] = np.where(inside, np.clip(newton, a + half, b - half), 0.5 * (a + b))
        lo[idx], hi[idx] = a, b
    return lo, hi


def _bessel_phase(z):
    """(a, T, 1/theta') of the Bessel phase theta of order 1/4 at z (DLMF 10.18).

    theta = a + pi T with a = atan2(Y_{1/4}, J_{1/4}) and T the even integer
    that puts theta within pi/8 below z - 3 pi/8, where it lies for every
    z > 0; 1/theta' = pi z (J^2 + Y^2)/2 exactly, from the Wronskian.
    """
    j, y = specfun._jy(z, [("J", 0.25, 0), ("Y", 0.25, 0)])
    a = np.arctan2(y, j)
    t = 2.0 * np.round((z - 0.375 * math.pi - a) / (2.0 * math.pi))
    return a, t, 0.5 * math.pi * z * (j * j + y * y)


# the most roots one find_zeros call returns (~660 bytes each at its peak)
_MAX_ROOT_COUNT = 10_000_000


def find_zeros(range_eta, params: PhysicalParams, consts: SolutionConstants,
               max_roots: int = 10) -> RootSet:
    """Locate zeros of the density shape function on an eta range.

    w = c2 Y_{1/4}(z) - c1 J_{1/4}(z) = R M sin(theta - phi) with
    phi = atan2(c1, c2), so its zeros are the z with theta(z) = phi + n pi,
    and theta at the range ends gives their n.  Newton on theta, started at
    z = phi + n pi + 3 pi/8 (left of the root, as theta <= z - 3 pi/8),
    climbs monotonically, theta being increasing and concave, until its
    step is at most 1e-12 in z (or two float spacings, where wider); the
    width is that step in eta.  max_roots = 0 sets no cap (51 roots on eta
    0.1-30 at m = 1, c1 = c2 = 1).  Raises RangeTooNarrow when roots were
    requested but none lies in the range, and DomainError when more than
    _MAX_ROOT_COUNT would be returned.
    """
    lo, hi = float(range_eta[0]), float(range_eta[1])
    if not (0.0 < lo < hi):
        raise DomainError("range must satisfy 0 < lo < hi")
    if max_roots < 0:
        raise DomainError("max_roots must be nonnegative")
    k = params.k
    # z = 0 is a branch point: an underflowing lower end is the smallest normal
    z_lo, z_hi = max(k * lo * lo, np.finfo(float).tiny), k * hi * hi
    if not np.spacing(z_hi) <= math.pi / 4.0:
        raise DomainError(f"z = {z_hi:.6g} is too large to scan: float cannot resolve "
                          "zeros pi apart there")
    phi = math.atan2(consts.c1, consts.c2)
    a, t, _ = _bessel_phase(np.array([z_lo, z_hi]))
    below, last = (np.floor((a - phi) / math.pi) + t).tolist()
    count = int((min(last, below + max_roots) if max_roots else last) - below)
    if count <= 0:
        if max_roots > 0:
            raise RangeTooNarrow(f"no density zero inside eta range ({lo}, {hi})")
        return RootSet(())
    if count > _MAX_ROOT_COUNT:
        raise DomainError(f"eta range ({lo}, {hi}) holds {count} density zeros, more than "
                          f"{_MAX_ROOT_COUNT} in one run; cap them with --max-roots")
    n = below + 1.0 + np.arange(count)
    z = np.maximum(phi + n * math.pi + 0.375 * math.pi, z_lo)
    # keep the eta-width at or below 1e-10 even for small k
    wtol = min(1e-12, 1e-10 * 2.0 * math.sqrt(k * float(z[0])))
    step, idx = np.zeros(count), np.arange(count)
    for _ in range(80):
        zi = z[idx]
        a, t, inv_slope = _bessel_phase(zi)
        # theta - (phi + n pi) with t - n formed first: no large multiple of pi
        s = -((a - phi) + math.pi * (t - n[idx])) * inv_slope
        z[idx], step[idx] = zi + s, s
        idx = idx[np.abs(s) > np.maximum(wtol, 2.0 * np.spacing(z[idx]))]
        if len(idx) == 0:
            break
    widths = np.abs(step) / (2.0 * np.sqrt(k * z))
    return RootSet(tuple(zip(np.sqrt(z / k).tolist(), widths.tolist())))


def match_poles(roots: RootSet, params: PhysicalParams,
                consts: SolutionConstants) -> RootSet:
    """Pair each density zero with the nearest quantum-potential pole.

    The printed bracket denominator D = c1 J_{1/4} - c2 Y_{1/4} of the
    quantum potential is -w, so its zeros are the density zeros.  Each
    zero is checked, not assumed: D, and so w, must change sign across
    z_star -+ 0.25, and safeguarded Newton, started at z_star and kept
    inside that bracket, locates the pole.  One evaluator request gives w
    at both bracket ends and the first Newton step's w and w' at z_star.
    Raises UnmatchedRoot when a bracket holds no sign change or a
    separation exceeds 1e-6.
    """
    if not roots.roots:
        raise DomainError("root set is empty")
    k = params.k
    eta_star = roots.etas()
    z_star = k * eta_star * eta_star
    delta = 0.25
    # z = 0 is a branch point of J_{1/4}: a first zero below z = delta keeps
    # its bracket's lower end at z_star / 2
    lo = np.maximum(z_star - delta, 0.5 * z_star)
    hi = z_star + delta
    newton = _newton_fn(consts)
    w, w1 = newton(np.concatenate([lo, hi, z_star]))
    w_lo, w_hi, w_star = np.split(w, 3)
    bad = w_lo * w_hi > 0
    if np.any(bad):
        raise UnmatchedRoot(
            f"no pole bracket near eta = {float(eta_star[bad][0])!r}")
    wtol = min(1e-12, 1e-10 * 2.0 * math.sqrt(k * float(z_star[0])))
    z_a, z_b = _refine_brackets(newton, lo, hi, np.sign(w_lo), z_star, wtol,
                                (w_star, np.split(w1, 3)[2]))
    eta_pole = np.sqrt(0.5 * (z_a + z_b) / k)
    sep = np.abs(eta_pole - eta_star)
    if np.any(sep > 1e-6):
        worst = float(np.max(sep))
        raise UnmatchedRoot(f"pole separation {worst:.3e} exceeds 1e-6")
    matched = tuple(zip(eta_star.tolist(), eta_pole.tolist(), sep.tolist()))
    return RootSet(roots.roots, matched)


# ---------------------------------------------------------------------------
# quadrature


# 10-point Gauss-Legendre rule on [-1, 1], bit-equal to
# np.polynomial.legendre.leggauss(10); literal values spare integrate the
# numpy.polynomial import
_GAUSS_NODES = np.array([
    -0.9739065285171717, -0.8650633666889845, -0.6794095682990244, -0.4333953941292472,
    -0.14887433898163122, 0.14887433898163122, 0.4333953941292472, 0.6794095682990244,
    0.8650633666889845, 0.9739065285171717])
_GAUSS_WEIGHTS = np.array([
    0.06667134430868814, 0.1494513491505804, 0.219086362515982, 0.2692667193099965,
    0.2955242247147528, 0.2955242247147528, 0.2692667193099965, 0.219086362515982,
    0.1494513491505804, 0.06667134430868814])


def _two_level(fn, a, b):
    """One- and two-panel Gauss estimates; returns (better, err_est)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    mid = 0.5 * (a + b)
    # the coarse panels and both half panels: one fn call on all their nodes
    lo, hi = np.stack([a, a, mid]), np.stack([b, mid, b])
    h = 0.5 * (hi - lo)
    c = 0.5 * (lo + hi)
    pts = c[..., None] + h[..., None] * _GAUSS_NODES
    vals = fn(pts.ravel()).reshape(pts.shape)
    # each level's sum is a (panels, 10) @ (10,) product, as with a call per
    # level: matmul is not row-invariant (a row of a larger block can sum in
    # another order and round differently), so only the pointwise fn is
    # batched, never the reduction
    coarse, left, right = ((v @ _GAUSS_WEIGHTS) * hv for v, hv in zip(vals, h))
    fine = left + right
    return fine, np.abs(fine - coarse)


def _adaptive_panel(fn, a, b, tol, fine, err, depth=0):
    """(value, err) of the panel [a, b], whose two-level estimate is (fine,
    err), bisected until err <= tol, each half to half the tolerance."""
    # a non-finite panel stays so when halved: it is returned for the
    # caller to report as non-finite F
    if err <= tol or not math.isfinite(fine):
        return fine, err
    if depth >= 40:
        raise ToleranceNotMet(f"panel [{a}, {b}] not resolved to {tol}")
    mid = 0.5 * (a + b)
    total = total_err = 0.0
    for lo, hi in ((a, mid), (mid, b)):
        v, e = (float(x[0]) for x in _two_level(fn, np.array([lo]), np.array([hi])))
        v, e = _adaptive_panel(fn, lo, hi, tol / 2, v, e, depth + 1)
        total += v
        total_err += e
    return total, total_err


def _integrate_edges(fn, edges, tol):
    """Adaptive two-level Gauss over consecutive panels; vectorized first pass."""
    fine, err = _two_level(fn, edges[:-1], edges[1:])
    total = 0.0
    err_total = 0.0
    for a, b, v, e in zip(edges[:-1].tolist(), edges[1:].tolist(),
                          fine.tolist(), err.tolist()):
        # bisection cannot resolve a panel below the rounding of its value:
        # a tolerance under that floor is raised to it, and so is the err
        floor = _ROUNDING_FLOOR * abs(v)
        v, e = _adaptive_panel(fn, a, b, max(tol, floor), v, e)
        if tol < floor:
            e = max(e, floor)
        total += v
        err_total += e
    return total, err_total


# Laurent-series helpers: a series sum_p coeff[p] z^{-p} is stored as a
# coefficient array indexed by p, truncated at power 8.
_LAURENT_CAP = 9


def _laurent_mul(a, b):
    out = np.zeros(_LAURENT_CAP)
    for p, ca in enumerate(a):
        if ca == 0.0:
            continue
        top = min(_LAURENT_CAP - p, len(b))
        out[p:p + top] += ca * b[:top]
    return out


def _laurent_diff(a):
    out = np.zeros(_LAURENT_CAP)
    for p, ca in enumerate(a):
        if p + 1 < _LAURENT_CAP:
            out[p + 1] = -p * ca
    return out


def _laurent_eval(a, z):
    acc_val = 0.0
    for p in range(len(a) - 1, -1, -1):
        acc_val = acc_val / z + a[p]
    return acc_val


def _modulus_series():
    # S(z) = (pi z/2) M^2(z) for order 1/4, where M^2 = J^2 + Y^2
    mu = 4.0 * 0.25**2
    s_ser = np.zeros(_LAURENT_CAP)
    s_ser[0] = 1.0
    s_ser[2] = (mu - 1.0) / 8.0
    s_ser[4] = 3.0 * (mu - 1.0) * (mu - 9.0) / 128.0
    s_ser[6] = 5.0 * (mu - 1.0) * (mu - 9.0) * (mu - 25.0) / 1024.0
    return s_ser


def _tail_ends(zs, consts):
    """Boundary terms of _tail_segment's by-parts integral at each z of zs.

    Returns a dict from each z to its term.  One evaluator request serves
    every z (above the default switchover, one Hankel pass): every Bessel
    value depends on its own z alone, so the terms equal those of
    one-point calls bit for bit.
    """
    s_ser = _modulus_series()
    # oscillatory part by parts: U = M^2/phi' = S^2/(pi z), 1/phi' = S/2
    half_s = 0.5 * s_ser
    u_ser = np.zeros(_LAURENT_CAP)
    u_ser[1:] = _laurent_mul(s_ser, s_ser)[:-1] / math.pi  # S^2/(pi z)
    w_ser = _laurent_mul(_laurent_diff(u_ser), half_s)
    v_ser = _laurent_mul(_laurent_diff(w_ser), half_s)

    c1, c2 = np.float64(consts.c1), np.float64(consts.c2)
    two_psi_cos = (c2**2 - c1**2) / (c1**2 + c2**2)
    two_psi_sin = 2.0 * c1 * c2 / (c1**2 + c2**2)

    j, y = specfun._jy(zs, [("J", 0.25, 0), ("Y", 0.25, 0)])
    m2 = j * j + y * y
    cos2t = (j * j - y * y) / m2
    sin2t = 2.0 * j * y / m2
    cosphi = cos2t * two_psi_cos + sin2t * two_psi_sin
    sinphi = sin2t * two_psi_cos - cos2t * two_psi_sin
    terms = ((_laurent_eval(u_ser, zs) - _laurent_eval(v_ser, zs)) * sinphi
             + _laurent_eval(w_ser, zs) * cosphi)
    return dict(zip(zs.tolist(), terms.tolist()))


def _tail_segment(a, b, ends, consts):
    """Closed-form integral of w(z)^2 over the asymptotic region [a, b].

    w(z)^2 = (c1^2+c2^2) M^2 sin^2(theta - psi) with the modulus-squared
    expansion M^2 = (2/pi z) S(z) and the exact phase derivative
    theta' = 2/(pi z M^2).  The smooth half integrates analytically; the
    cos(2 theta - 2 psi) half is integrated by parts twice, leaving the
    boundary terms ends[a] and ends[b] (from _tail_ends) plus a remainder
    bounded by 1/(2 pi a^3).
    """
    s_ser = _modulus_series()
    amp = 0.5 * (np.float64(consts.c1) ** 2 + np.float64(consts.c2) ** 2)

    # smooth part: int (2/pi z) S dz
    smooth = (2.0 / math.pi) * math.log(b / a)
    for p in range(2, _LAURENT_CAP, 2):
        if s_ser[p]:
            smooth -= (2.0 / math.pi) * s_ser[p] / p * (b**-p - a**-p)

    i_osc = ends[b] - ends[a]
    total = amp * (smooth - i_osc)
    err = amp / (2.0 * math.pi * np.float64(a) ** 3) + 1e-14 * abs(total)
    return total, err


def _panel_edges(z_hi):
    """The inner quadrature panel edges below z_hi: z = 1, then steps of pi/2.

    pi/2 is half the period of w^2 ~ sin^2, so a 10-point Gauss panel
    holds at most about half an arch wherever the edges fall.
    """
    return np.arange(1.0, z_hi, 0.5 * math.pi)


def _segment_integral(z_a, z_b, panel_edges, ends, consts, tol):
    """Integral of w(z)^2 over [z_a, z_b] split at _TAIL_START."""
    total = 0.0
    err = 0.0
    lo_end = min(z_b, _TAIL_START)
    w = _c_fn(consts)
    if z_a < lo_end:
        inner = panel_edges[(panel_edges > z_a) & (panel_edges < lo_end)]
        if z_a == 0.0:
            # substitute z = u^2 on the leading panel: the integrand
            # w(z)^2 ~ z^{-1/2} endpoint behavior becomes smooth
            first = float(inner[0]) if len(inner) else lo_end
            fn_u = lambda u: w(u * u) ** 2 * 2.0 * u
            v, e = _integrate_edges(fn_u, np.array([0.0, math.sqrt(first)]), tol)
            total += v
            err += e
            inner = inner[inner > first]
            z_a = first
        if z_a < lo_end:
            edges = np.concatenate([[z_a], inner, [lo_end]])
            v, e = _integrate_edges(lambda z: w(z) ** 2, edges, tol)
            total += v
            err += e
    if z_b > _TAIL_START:
        v, e = _tail_segment(max(z_a, _TAIL_START), z_b, ends, consts)
        total += v
        err += e
    return total, err


def _fit_tail(hs, fs):
    hs = np.asarray(hs)
    fs = np.asarray(fs)
    if len(hs) < 3:
        nan = float("nan")
        return TailModel("undetermined", nan, nan, nan, nan, nan, nan)
    x = np.log(hs)
    b_log, a_log = np.polyfit(x, fs, 1)
    log_rms = float(np.sqrt(np.mean((a_log + b_log * x - fs) ** 2)))
    design = np.column_stack([np.ones_like(hs), -1.0 / hs])
    (a_conv, c_conv), *_ = np.linalg.lstsq(design, fs, rcond=None)
    conv_rms = float(np.sqrt(np.mean((design @ [a_conv, c_conv] - fs) ** 2)))
    kind = "logarithmic" if log_rms <= conv_rms else "convergent"
    return TailModel(kind, float(a_log), float(b_log), log_rms,
                     float(a_conv), float(c_conv), conv_rms)


def integrate_density(upper_limits, params: PhysicalParams,
                      consts: SolutionConstants, tol: float = 1e-9) -> QuadratureResult:
    """Running integral F(H) of the density shape function over (0, H].

    Below z = _TAIL_START, Gauss panels lie on the fixed grid of
    _panel_edges, split at the checkpoints; beyond it the integral is in
    closed form.  F is evaluated at every requested limit plus internal
    checkpoints in the last decade of H, which feed the two tail fits.
    """
    limits = [float(h) for h in upper_limits]
    if not limits or not all(0.0 < h < math.inf for h in limits):
        raise DomainError("upper limits must be finite and positive")
    if any(b <= a for a, b in zip(limits, limits[1:])):
        raise DomainError("upper limits must be strictly increasing")
    hmax = limits[-1]
    fit_hs = np.geomspace(hmax / 10.0, hmax, 8)
    checkpoints = sorted(set(limits) | set(fit_hs.tolist()))

    k = params.k
    z_cps = [k * h * h for h in checkpoints]
    for h, z in zip(checkpoints, z_cps):
        if not 0.0 < z < math.inf:
            raise DomainError(f"z = m H^2/(4 hbar sqrt(d)) leaves the float range at H = {h!r}")
    pref = math.pi**2 / (128.0 * k)
    panel_edges = _panel_edges(min(z_cps[-1], _TAIL_START))
    # every tail segment starts at _TAIL_START or at the checkpoint before it
    tail_z = [z for z in z_cps if z > _TAIL_START]
    ends = _tail_ends(np.array([_TAIL_START] + tail_z), consts) if tail_z else {}

    running = 0.0
    err_running = 0.0
    at_checkpoints = []
    prev = 0.0
    for z_cp in z_cps:
        v, e = _segment_integral(prev, z_cp, panel_edges, ends, consts, tol)
        running += v
        err_running += e
        at_checkpoints.append((running, err_running))
        prev = z_cp

    f_by_h = {}
    for h, (g, e) in zip(checkpoints, at_checkpoints):
        err = pref * e + 1e-13 * (1.0 + abs(pref * g))
        f_by_h[h] = (pref * g, err)

    partial = tuple((h, f_by_h[h][0], f_by_h[h][1]) for h in limits)
    fit_points = [(h, f_by_h[h][0]) for h in checkpoints if h >= hmax / 10.0 - 1e-12]
    tail = _fit_tail([p[0] for p in fit_points], [p[1] for p in fit_points])
    if tail.kind == "logarithmic":
        note = (f"a + b ln H fits best (rms {tail.log_rms:.3e} vs {tail.conv_rms:.3e} "
                f"for a - c/H): F grows like {tail.log_coefficient:.9g} ln H with no "
                "finite limit in sight; the data do not support a finite integral")
    elif tail.kind == "convergent":
        note = (f"a - c/H fits best (rms {tail.conv_rms:.3e} vs {tail.log_rms:.3e} "
                f"for a + b ln H): F approaches {tail.conv_limit:.9f}; the data "
                "support a finite integral")
    else:
        note = "not enough checkpoints to discriminate the tail models"
    return QuadratureResult(partial, tail, note)


# ---------------------------------------------------------------------------
# figure data


_FIG1_MASSES = (1.0, 0.5)


def figure_series(figure_id: str, params: PhysicalParams,
                  consts: SolutionConstants, grid: GridSpec | None = None,
                  time_grid: GridSpec | None = None) -> SampleSeries:
    """Plot-ready data series for the three standard figures.

    fig1: density shape for the two reference masses (1 and 0.5).
    fig2: real part of the canonical wave function on an (x, t) raster at y = 0.
    fig3: density shape and quantum-potential shape on a common eta grid;
          points inside the pole exclusion radius carry NaN.
    """
    if figure_id == "fig1":
        g = grid or GridSpec(0.05, 12.0, 600)
        etas = g.points()
        cols = [("eta", etas)]
        for mass in _FIG1_MASSES:
            p = replace(params, m=mass)
            label = "f_m" + ("1" if mass == 1.0 else "0p5")
            f = _simplified_shape_density_arr(etas, p, consts)
            require_finite(label, f, eta=etas)
            cols.append((label, f))
        return SampleSeries.from_columns(cols)
    if figure_id == "fig2":
        gx = grid or GridSpec(0.1, 6.0, 160)
        gt = time_grid or GridSpec(0.25, 4.0, 7, "log")
        xs = gx.points()
        ts = gt.points()
        re_psi = _lab_arrays(("psi_re",), xs, 0.0, ts[:, None], params, consts,
                             _simplified_shape_density_arr)[0]
        return SampleSeries.from_columns(
            [("x", np.tile(xs, len(ts))),
             ("t", np.repeat(ts, len(xs))),
             ("re_psi", re_psi.ravel())])
    if figure_id == "fig3":
        g = grid or GridSpec(0.05, 12.0, 600)
        etas = g.points()
        f = _simplified_shape_density_arr(etas, params, consts)
        q, excluded = quantum_potential_eq9_masked(etas, params, consts)
        require_finite("f", f, eta=etas)
        require_finite("Q", np.where(excluded, 0.0, q), eta=etas)
        return SampleSeries.from_columns([("eta", etas), ("f", f), ("Q", q)])
    raise DomainError(f"unknown figure id {figure_id!r}")
