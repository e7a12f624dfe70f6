"""Zeros of the density, pole matching, and integrability analysis.

Root finding works in the Bessel argument z = m eta^2 / (4 hbar sqrt(d)),
where the zeros of the numerator factor c2 Y_{1/4} - c1 J_{1/4} are
asymptotically pi-spaced, and maps the results back to eta.  The
quadrature for the running integral of the density shape function uses
the same variable: with f = (pi^2/64) eta w(z)^2,

    int_0^H f deta = pi^2/(128 k) int_0^{k H^2} w(z)^2 dz,    k = m/(4 hbar sqrt(d)),

so panels align naturally with the oscillation arches.  Partial
integrals are reported together with two competing tail fits
(a + b ln H versus a - c/H); the verdict is reported, never asserted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import specfun
from .core import (
    _QUARTER_PAIR,
    PhysicalParams,
    SolutionConstants,
    _numerator_factor,
    _simplified_shape_density_arr,
    quantum_potential_eq9_masked,
)
from .errors import DomainError, RangeTooNarrow, ToleranceNotMet, UnmatchedRoot
from .series import SampleSeries
from .specfun import DEFAULT_ACCURACY, EvalAccuracy
from .verify import GridSpec

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
# remainder); below it, panels follow the refined zero list
_TAIL_START = 800.0


@dataclass(frozen=True)
class RootSet:
    """Located density zeros and (optionally) matched quantum-potential poles.

    roots: ordered (eta_star, bracket_width) pairs.
    matched_poles: (eta_star, q_pole_eta, separation) triples.
    """

    roots: tuple
    matched_poles: tuple = ()

    def __post_init__(self):
        etas = [r[0] for r in self.roots]
        if any(b <= a for a, b in zip(etas, etas[1:])):
            raise DomainError("roots must be strictly increasing")
        if any(r[1] > 1e-10 for r in self.roots):
            raise DomainError("bracket width above 1e-10 after refinement")
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


def _k_const(params: PhysicalParams) -> float:
    return params.m / (4.0 * params.hbar * math.sqrt(params.dimension))


def _c_fn(consts, acc):
    def fn(z):
        return _numerator_factor(np.asarray(z, dtype=float), consts, acc)
    return fn


def _d_fn(consts, acc):
    # bracket denominator of the printed quantum potential
    def fn(z):
        z = np.asarray(z, dtype=float)
        j, y = specfun._jy(z, _QUARTER_PAIR, acc)
        return consts.c1 * j - consts.c2 * y
    return fn


# ---------------------------------------------------------------------------
# bracketing and refinement


def _scan_mesh(z_lo: float, z_hi: float) -> np.ndarray:
    # fine geometric mesh below z = 1 (at most one or two zeros live there),
    # then pi/4 steps: zeros are simple and asymptotically pi-spaced
    parts = []
    lo = max(z_lo, 1e-8)
    if lo < 1.0:
        parts.append(np.geomspace(lo, min(1.0, z_hi), 48))
    start = max(lo, 1.0)
    if start < z_hi:
        parts.append(np.arange(start, z_hi, math.pi / 4.0))
    parts.append(np.array([z_hi]))
    mesh = np.concatenate(parts)
    return np.unique(mesh)


def _refine_brackets(fn, lo, hi, width_tol):
    """Hybrid secant/bisection refinement of sign-change brackets (vectorized).

    Every third step forces a midpoint split, so the bracket width shrinks
    geometrically even when the secant proposals stall.
    """
    lo = np.array(lo, dtype=float)
    hi = np.array(hi, dtype=float)
    flo = fn(lo)
    fhi = fn(hi)
    for it in range(80):
        width = hi - lo
        if np.all(width <= width_tol):
            break
        if it % 3 == 2:
            cand = 0.5 * (lo + hi)
        else:
            denom = fhi - flo
            with np.errstate(divide="ignore", invalid="ignore"):
                cand = (lo * fhi - hi * flo) / denom
            bad = ~np.isfinite(cand) | (cand <= lo + 0.01 * width) | (cand >= hi - 0.01 * width)
            cand = np.where(bad, 0.5 * (lo + hi), cand)
        fc = fn(cand)
        take_hi = flo * fc <= 0.0
        hi = np.where(take_hi, cand, hi)
        fhi = np.where(take_hi, fc, fhi)
        lo = np.where(take_hi, lo, cand)
        flo = np.where(take_hi, flo, fc)
    return lo, hi


def _bracket_zeros(fn, z_lo, z_hi, max_brackets=None):
    """Sign-change brackets of fn between adjacent scan-mesh points.

    With max_brackets, the mesh is scanned in consecutive windows that share
    their boundary point, and the scan stops once that many are found.
    """
    mesh = _scan_mesh(z_lo, z_hi)
    last = len(mesh) - 1
    los, his = [mesh[:0]], [mesh[:0]]
    found = start = 0
    while start < last and (max_brackets is None or found < max_brackets):
        stop = last
        if max_brackets is not None:
            # four mesh steps per pi-spaced zero, plus 16 zeros to spare
            stop = min(last, start + 4 * (max_brackets - found) + 64)
        window = mesh[start:stop + 1]
        vals = fn(window)
        sign = np.sign(vals)
        change = sign[:-1] * sign[1:] < 0
        hit = vals[:-1] == 0.0
        idx = np.where(change | hit)[0]
        los.append(window[idx])
        his.append(window[idx + 1])
        found += len(idx)
        start = stop
    return np.concatenate(los)[:max_brackets], np.concatenate(his)[:max_brackets]


def find_zeros(range_eta, params: PhysicalParams, consts: SolutionConstants,
               max_roots: int = 10,
               acc: EvalAccuracy = DEFAULT_ACCURACY) -> RootSet:
    """Locate zeros of the density shape function on an eta range.

    Scans sign changes of c2 Y_{1/4}(z) - c1 J_{1/4}(z) on a z mesh,
    refines each bracket to a z-width of at most 1e-12 and converts the
    roots back to eta.  Raises RangeTooNarrow when roots were requested
    but no sign change lies in the range.
    """
    lo, hi = float(range_eta[0]), float(range_eta[1])
    if not (0.0 < lo < hi):
        raise DomainError("range must satisfy 0 < lo < hi")
    if max_roots < 0:
        raise DomainError("max_roots must be nonnegative")
    k = _k_const(params)
    fn = _c_fn(consts, acc)
    b_lo, b_hi = _bracket_zeros(fn, k * lo * lo, k * hi * hi, max_roots or None)
    if len(b_lo) == 0:
        if max_roots > 0:
            raise RangeTooNarrow(f"no density zero inside eta range ({lo}, {hi})")
        return RootSet(())
    # keep the eta-width at or below 1e-10 even for small k
    wtol = min(1e-12, 1e-10 * 2.0 * math.sqrt(k * float(b_lo[0])))
    z_a, z_b = _refine_brackets(fn, b_lo, b_hi, wtol)
    z_star = 0.5 * (z_a + z_b)
    eta_star = np.sqrt(z_star / k)
    widths = (z_b - z_a) / (2.0 * np.sqrt(k * z_star))
    return RootSet(tuple(zip(eta_star.tolist(), widths.tolist())))


def match_poles(roots: RootSet, params: PhysicalParams,
                consts: SolutionConstants,
                acc: EvalAccuracy = DEFAULT_ACCURACY) -> RootSet:
    """Pair each density zero with the nearest quantum-potential pole.

    The pole locus is found by an independent bracketed search on the
    printed bracket denominator c1 J_{1/4} - c2 Y_{1/4}; the printed sign
    convention is not trusted.  Raises UnmatchedRoot when a separation
    exceeds 1e-6.
    """
    if not roots.roots:
        raise DomainError("root set is empty")
    k = _k_const(params)
    fn = _d_fn(consts, acc)
    eta_star = roots.etas()
    z_star = k * eta_star * eta_star
    delta = 0.25
    # z = 0 is a branch point of J_{1/4}: a first zero below z = delta keeps
    # its bracket's lower end at z_star / 2
    lo = np.maximum(z_star - delta, 0.5 * z_star)
    hi = z_star + delta
    flo = fn(lo)
    fhi = fn(hi)
    bad = flo * fhi > 0
    if np.any(bad):
        raise UnmatchedRoot(
            f"no pole bracket near eta = {float(eta_star[bad][0])!r}")
    wtol = min(1e-12, 1e-10 * 2.0 * math.sqrt(k * float(z_star[0])))
    z_a, z_b = _refine_brackets(fn, lo, hi, wtol)
    eta_pole = np.sqrt(0.5 * (z_a + z_b) / k)
    sep = np.abs(eta_pole - eta_star)
    if np.any(sep > 1e-6):
        worst = float(np.max(sep))
        raise UnmatchedRoot(f"pole separation {worst:.3e} exceeds 1e-6")
    matched = tuple(zip(eta_star.tolist(), eta_pole.tolist(), sep.tolist()))
    return RootSet(roots.roots, matched)


# ---------------------------------------------------------------------------
# quadrature


def _leggauss(n):
    return np.polynomial.legendre.leggauss(n)


def _c_squared(z, consts, acc):
    w = _numerator_factor(np.asarray(z, dtype=float), consts, acc)
    return w * w


def _two_level(fn, a, b, nodes, weights):
    """One- and two-panel Gauss estimates; returns (better, err_est)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)

    def gl(aa, bb):
        h = 0.5 * (bb - aa)
        c = 0.5 * (aa + bb)
        pts = c[:, None] + h[:, None] * nodes[None, :]
        vals = fn(pts.ravel()).reshape(pts.shape)
        return (vals @ weights) * h

    coarse = gl(a, b)
    fine = gl(a, mid) + gl(mid, b)
    return fine, np.abs(fine - coarse)


def _adaptive_panel(fn, a, b, tol, nodes, weights, depth=0):
    fine, err = _two_level(fn, np.array([a]), np.array([b]), nodes, weights)
    if float(err[0]) <= tol:
        return float(fine[0]), float(err[0])
    if depth >= 40:
        raise ToleranceNotMet(f"panel [{a}, {b}] not resolved to {tol}")
    mid = 0.5 * (a + b)
    v1, e1 = _adaptive_panel(fn, a, mid, tol / 2, nodes, weights, depth + 1)
    v2, e2 = _adaptive_panel(fn, mid, b, tol / 2, nodes, weights, depth + 1)
    return v1 + v2, e1 + e2


def _integrate_edges(fn, edges, tol, nodes, weights):
    """Adaptive two-level Gauss over consecutive panels; vectorized first pass."""
    a = edges[:-1]
    b = edges[1:]
    fine, err = _two_level(fn, a, b, nodes, weights)
    total = 0.0
    err_total = 0.0
    for i in range(len(a)):
        if err[i] <= tol:
            total += float(fine[i])
            err_total += float(err[i])
        else:
            v, e = _adaptive_panel(fn, float(a[i]), float(b[i]), tol, nodes, weights)
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


def _tail_segment(a, b, consts, acc):
    """Closed-form integral of w(z)^2 over the asymptotic region [a, b].

    w(z)^2 = (c1^2+c2^2) M^2 sin^2(theta - psi) with the modulus-squared
    expansion M^2 = (2/pi z) S(z) and the exact phase derivative
    theta' = 2/(pi z M^2).  The smooth half integrates analytically; the
    cos(2 theta - 2 psi) half is integrated by parts twice, leaving
    boundary terms plus a remainder bounded by 1/(2 pi a^3).
    """
    mu = 4.0 * 0.25**2
    s_ser = np.zeros(_LAURENT_CAP)
    s_ser[0] = 1.0
    s_ser[2] = (mu - 1.0) / 8.0
    s_ser[4] = 3.0 * (mu - 1.0) * (mu - 9.0) / 128.0
    s_ser[6] = 5.0 * (mu - 1.0) * (mu - 9.0) * (mu - 25.0) / 1024.0

    amp = 0.5 * (consts.c1**2 + consts.c2**2)

    # smooth part: int (2/pi z) S dz
    smooth = (2.0 / math.pi) * math.log(b / a)
    for p in range(2, _LAURENT_CAP, 2):
        if s_ser[p]:
            smooth -= (2.0 / math.pi) * s_ser[p] / p * (b**-p - a**-p)

    # oscillatory part by parts: U = M^2/phi' = S^2/(pi z), 1/phi' = S/2
    half_s = 0.5 * s_ser
    u_ser = np.zeros(_LAURENT_CAP)
    u_ser[1:] = _laurent_mul(s_ser, s_ser)[:-1] / math.pi  # S^2/(pi z)
    w_ser = _laurent_mul(_laurent_diff(u_ser), half_s)
    v_ser = _laurent_mul(_laurent_diff(w_ser), half_s)

    two_psi_cos = (consts.c2**2 - consts.c1**2) / (consts.c1**2 + consts.c2**2)
    two_psi_sin = 2.0 * consts.c1 * consts.c2 / (consts.c1**2 + consts.c2**2)

    def boundary(z):
        j, y = (float(v[0]) for v in specfun._jy_asymptotic(
            0.25, np.array([z]), acc))
        m2 = j * j + y * y
        cos2t = (j * j - y * y) / m2
        sin2t = 2.0 * j * y / m2
        cosphi = cos2t * two_psi_cos + sin2t * two_psi_sin
        sinphi = sin2t * two_psi_cos - cos2t * two_psi_sin
        return ((_laurent_eval(u_ser, z) - _laurent_eval(v_ser, z)) * sinphi
                + _laurent_eval(w_ser, z) * cosphi)

    i_osc = boundary(b) - boundary(a)
    total = amp * (smooth - i_osc)
    err = amp / (2.0 * math.pi * a**3) + 1e-14 * abs(total)
    return total, err


def _segment_integral(z_a, z_b, zero_edges, consts, acc, tol, nodes, weights):
    """Integral of w(z)^2 over [z_a, z_b] split at _TAIL_START."""
    total = 0.0
    err = 0.0
    lo_end = min(z_b, _TAIL_START)
    if z_a < lo_end:
        inner = zero_edges[(zero_edges > z_a) & (zero_edges < lo_end)]
        if z_a == 0.0:
            # substitute z = u^2 on the leading panel: the integrand
            # w(z)^2 ~ z^{-1/2} endpoint behavior becomes smooth
            first = float(inner[0]) if len(inner) else lo_end
            fn_u = lambda u: _c_squared(u * u, consts, acc) * 2.0 * u
            v, e = _integrate_edges(
                fn_u, np.array([0.0, math.sqrt(first)]), tol, nodes, weights)
            total += v
            err += e
            inner = inner[inner > first]
            z_a = first
        if z_a < lo_end:
            edges = np.concatenate([[z_a], inner, [lo_end]])
            fn = lambda z: _c_squared(z, consts, acc)
            v, e = _integrate_edges(fn, edges, tol, nodes, weights)
            total += v
            err += e
    if z_b > _TAIL_START:
        v, e = _tail_segment(max(z_a, _TAIL_START), z_b, consts, acc)
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
                      consts: SolutionConstants, tol: float = 1e-9,
                      acc: EvalAccuracy = DEFAULT_ACCURACY) -> QuadratureResult:
    """Running integral F(H) of the density shape function over (0, H].

    Panels follow the zero list of the oscillating factor up to the
    asymptotic region and near-arch uniform panels beyond it.  F is
    evaluated at every requested limit plus internal checkpoints in the
    last decade of H, which feed the two tail fits.
    """
    limits = [float(h) for h in upper_limits]
    if not limits or any(h <= 0 for h in limits):
        raise DomainError("upper limits must be positive")
    if any(b <= a for a, b in zip(limits, limits[1:])):
        raise DomainError("upper limits must be strictly increasing")
    hmax = limits[-1]
    fit_hs = np.geomspace(hmax / 10.0, hmax, 8)
    checkpoints = sorted(set(limits) | set(fit_hs.tolist()))

    k = _k_const(params)
    pref = math.pi**2 / (128.0 * k)
    z_cps = [k * h * h for h in checkpoints]
    fn = _c_fn(consts, acc)
    b_lo, b_hi = _bracket_zeros(fn, 1e-8, min(z_cps[-1], _TAIL_START))
    if len(b_lo):
        z_a, z_b = _refine_brackets(fn, b_lo, b_hi, 1e-10)
        zero_edges = 0.5 * (z_a + z_b)
    else:
        zero_edges = np.empty(0)
    nodes, weights = _leggauss(10)

    running = 0.0
    err_running = 0.0
    at_checkpoints = []
    prev = 0.0
    for z_cp in z_cps:
        v, e = _segment_integral(prev, z_cp, zero_edges, consts, acc,
                                 tol, nodes, weights)
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
                f"for a - c/H): F grows like {tail.log_coefficient:.6f} ln H with no "
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
                  time_grid: GridSpec | None = None,
                  acc: EvalAccuracy = DEFAULT_ACCURACY) -> SampleSeries:
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
            p = PhysicalParams(m=mass, hbar=params.hbar, dimension=params.dimension)
            label = "f_m" + ("1" if mass == 1.0 else "0p5")
            cols.append((label, _simplified_shape_density_arr(etas, p, consts, acc)))
        return SampleSeries.from_columns(cols)
    if figure_id == "fig2":
        gx = grid or GridSpec(0.1, 6.0, 160)
        gt = time_grid or GridSpec(0.25, 4.0, 7, "log")
        xs = gx.points()
        ts = gt.points()
        rows_x = []
        rows_t = []
        rows_re = []
        for t in ts:
            eta = xs / math.sqrt(t)
            rho = _simplified_shape_density_arr(eta, params, consts, acc) / math.sqrt(t)
            ph = params.m * xs * xs / (4.0 * params.hbar * t)
            rows_x.append(xs)
            rows_t.append(np.full_like(xs, t))
            rows_re.append(np.sqrt(rho) * np.cos(ph))
        return SampleSeries.from_columns(
            [("x", np.concatenate(rows_x)),
             ("t", np.concatenate(rows_t)),
             ("re_psi", np.concatenate(rows_re))])
    if figure_id == "fig3":
        g = grid or GridSpec(0.05, 12.0, 600)
        etas = g.points()
        f = _simplified_shape_density_arr(etas, params, consts, acc)
        q, _ = quantum_potential_eq9_masked(etas, params, consts, acc=acc)
        return SampleSeries.from_columns([("eta", etas), ("f", f), ("Q", q)])
    raise DomainError(f"unknown figure id {figure_id!r}")
