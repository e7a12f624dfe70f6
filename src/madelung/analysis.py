"""Zeros of the density, pole matching, and integrability analysis.

Root finding works in the Bessel argument z = m eta^2 / (4 hbar sqrt(d)),
where the zeros of the numerator factor w = c2 Y_{1/4} - c1 J_{1/4} are
asymptotically pi-spaced, and maps the results back to eta.  Sign-change
brackets from a scan are refined together by safeguarded Newton with the
analytic derivative w' = c2 Y_{-3/4} - c1 J_{-3/4} - w/(4z) of core's w
bundle, the same w' as the quantum potential's; one evaluator request
gives w and w', and a set of brackets takes about five evaluations.  The
potential's bracket denominator D = c1 J_{1/4} - c2 Y_{1/4} is -w, so
pole matching runs the same Newton on w from each zero it checks.  The
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
    GridSpec,
    PhysicalParams,
    SolutionConstants,
    _k_const,
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


def _c_fn(consts):
    # w(z) for the zero scans, the pole checks and the quadrature
    def fn(z):
        return _w_bundle(np.asarray(z, dtype=float), consts)[0]
    return fn


def _newton_fn(consts):
    # (w, w') for the Newton refinement of zeros and poles
    return lambda z: _w_bundle(z, consts, upto=1)


# ---------------------------------------------------------------------------
# bracketing and refinement


def _scan_mesh(z_lo: float, z_hi: float):
    """The scan mesh, as its size and a function take(i, j) of its points i to j - 1.

    A fine geometric mesh below z = 1 (at most one or two zeros live there),
    then pi/4 steps (zeros are simple and asymptotically pi-spaced), then
    z_hi.  The steps, np.arange(start, z_hi, pi/4) by numpy's fill rule
    start + i ((start + pi/4) - start), are made only where take asks, so a
    capped scan never builds the whole mesh.  Raises DomainError where pi/4
    is below the float spacing at z_hi.
    """
    step = math.pi / 4.0
    if not np.spacing(z_hi) <= step:
        raise DomainError(f"z = {z_hi:.6g} is too large to scan in float steps of pi/4")
    lo = max(z_lo, 1e-8)
    start = max(lo, 1.0)
    delta = (start + step) - start
    n = math.ceil((z_hi - start) / step) if start < z_hi else 0  # np.arange's length

    def steps(i, j):
        return start + np.arange(i, j) * delta

    # the geometric part, the first and last two steps (which may round up to
    # z_hi) and z_hi, sorted, without repeats (np.unique would import
    # numpy.ma); steps m0 to m1 - 1 lie between its points a - 1 and a
    m0, m1 = min(n, 1), max(min(n, 1), n - 2)
    ends = np.sort(np.concatenate([np.geomspace(lo, min(1.0, z_hi), 48) if lo < 1.0 else [],
                                   steps(0, m0), steps(m1, n), [z_hi]]))
    ends = ends[np.concatenate(([True], ends[1:] != ends[:-1]))]
    a, mid = int(np.searchsorted(ends, start + m0 * delta)), m1 - m0
    k = a - m0  # the mesh index of step 0

    def take(i, j):
        return np.concatenate([ends[i:min(j, a)], steps(max(i, a) - k, min(j, a + mid) - k),
                               ends[max(i - mid, a):max(j - mid, a)]])
    return len(ends) + mid, take


def _refine_brackets(fn, lo, hi, sign_lo, z, width_tol):
    """Safeguarded Newton refinement of sign-change brackets (vectorized).

    fn(z) returns the function and its derivative; sign_lo is the sign of
    the function at each lo, and z each bracket's starting point.  Each
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
        f, fprime = fn(zi)
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


def _bracket_zeros(fn, z_lo, z_hi, max_brackets=None):
    """Sign-change brackets of fn between adjacent scan-mesh points.

    Returns the bracket ends lo and hi, the sign of fn at lo and the
    regula-falsi point of the two scan values, which starts the
    refinement.  With max_brackets, the mesh is scanned in consecutive
    windows that share their boundary point, and the scan stops once that
    many are found.
    """
    size, take = _scan_mesh(z_lo, z_hi)
    last = size - 1
    los, his, signs, starts = ([np.empty(0)] for _ in range(4))
    found = start = 0
    while start < last and (max_brackets is None or found < max_brackets):
        stop = last
        if max_brackets is not None:
            # four mesh steps per pi-spaced zero, plus 16 zeros to spare
            stop = min(last, start + 4 * (max_brackets - found) + 64)
        window = take(start, stop + 1)
        vals = fn(window)
        sign = np.sign(vals)
        change = sign[:-1] * sign[1:] < 0
        hit = vals[:-1] == 0.0
        idx = np.where(change | hit)[0]
        a, b, fa, fb = window[idx], window[idx + 1], vals[idx], vals[idx + 1]
        los.append(a)
        his.append(b)
        signs.append(np.sign(fa))
        starts.append(a + (b - a) * (fa / (fa - fb)))
        found += len(idx)
        start = stop
    return tuple(np.concatenate(p)[:max_brackets] for p in (los, his, signs, starts))


def find_zeros(range_eta, params: PhysicalParams, consts: SolutionConstants,
               max_roots: int = 10) -> RootSet:
    """Locate zeros of the density shape function on an eta range.

    Scans sign changes of w = c2 Y_{1/4}(z) - c1 J_{1/4}(z) on a z mesh,
    refines each bracket by safeguarded Newton with the analytic w' to a
    z-width of at most 1e-12 (or two float spacings, where those are
    wider) and converts the roots back to eta.  max_roots = 0 sets no cap:
    every zero in the range is returned (51 on eta 0.1-30 at m = 1,
    c1 = c2 = 1).  Raises RangeTooNarrow when roots were requested but no
    sign change lies in the range.
    """
    lo, hi = float(range_eta[0]), float(range_eta[1])
    if not (0.0 < lo < hi):
        raise DomainError("range must satisfy 0 < lo < hi")
    if max_roots < 0:
        raise DomainError("max_roots must be nonnegative")
    k = _k_const(params)
    b_lo, b_hi, sign_lo, start = _bracket_zeros(
        _c_fn(consts), k * lo * lo, k * hi * hi, max_roots or None)
    if len(b_lo) == 0:
        if max_roots > 0:
            raise RangeTooNarrow(f"no density zero inside eta range ({lo}, {hi})")
        return RootSet(())
    # keep the eta-width at or below 1e-10 even for small k
    wtol = min(1e-12, 1e-10 * 2.0 * math.sqrt(k * float(b_lo[0])))
    z_a, z_b = _refine_brackets(_newton_fn(consts), b_lo, b_hi, sign_lo,
                                start, wtol)
    z_star = 0.5 * (z_a + z_b)
    eta_star = np.sqrt(z_star / k)
    widths = (z_b - z_a) / (2.0 * np.sqrt(k * z_star))
    return RootSet(tuple(zip(eta_star.tolist(), widths.tolist())))


def match_poles(roots: RootSet, params: PhysicalParams,
                consts: SolutionConstants) -> RootSet:
    """Pair each density zero with the nearest quantum-potential pole.

    The printed bracket denominator D = c1 J_{1/4} - c2 Y_{1/4} of the
    quantum potential is -w, so its zeros are the density zeros.  Each
    zero is checked, not assumed: D, and so w, must change sign across
    z_star -+ 0.25, and safeguarded Newton, started at z_star and kept
    inside that bracket, locates the pole.  Raises UnmatchedRoot when a
    bracket holds no sign change or a separation exceeds 1e-6.
    """
    if not roots.roots:
        raise DomainError("root set is empty")
    k = _k_const(params)
    eta_star = roots.etas()
    z_star = k * eta_star * eta_star
    delta = 0.25
    # z = 0 is a branch point of J_{1/4}: a first zero below z = delta keeps
    # its bracket's lower end at z_star / 2
    lo = np.maximum(z_star - delta, 0.5 * z_star)
    hi = z_star + delta
    w_lo, w_hi = np.split(_c_fn(consts)(np.concatenate([lo, hi])), 2)
    bad = w_lo * w_hi > 0
    if np.any(bad):
        raise UnmatchedRoot(
            f"no pole bracket near eta = {float(eta_star[bad][0])!r}")
    wtol = min(1e-12, 1e-10 * 2.0 * math.sqrt(k * float(z_star[0])))
    z_a, z_b = _refine_brackets(_newton_fn(consts), lo, hi, np.sign(w_lo),
                                z_star, wtol)
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


def _adaptive_panel(fn, a, b, tol, depth=0):
    fine, err = _two_level(fn, np.array([a]), np.array([b]))
    # a non-finite panel stays so when halved: it is returned for the
    # caller to report as non-finite F
    if float(err[0]) <= tol or not math.isfinite(float(fine[0])):
        return float(fine[0]), float(err[0])
    if depth >= 40:
        raise ToleranceNotMet(f"panel [{a}, {b}] not resolved to {tol}")
    mid = 0.5 * (a + b)
    v1, e1 = _adaptive_panel(fn, a, mid, tol / 2, depth + 1)
    v2, e2 = _adaptive_panel(fn, mid, b, tol / 2, depth + 1)
    return v1 + v2, e1 + e2


def _integrate_edges(fn, edges, tol):
    """Adaptive two-level Gauss over consecutive panels; vectorized first pass."""
    a = edges[:-1]
    b = edges[1:]
    fine, err = _two_level(fn, a, b)
    total = 0.0
    err_total = 0.0
    for i in range(len(a)):
        if err[i] <= tol:
            total += float(fine[i])
            err_total += float(err[i])
        else:
            v, e = _adaptive_panel(fn, float(a[i]), float(b[i]), tol)
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


def _segment_integral(z_a, z_b, zero_edges, ends, consts, tol):
    """Integral of w(z)^2 over [z_a, z_b] split at _TAIL_START."""
    total = 0.0
    err = 0.0
    lo_end = min(z_b, _TAIL_START)
    w = _c_fn(consts)
    if z_a < lo_end:
        inner = zero_edges[(zero_edges > z_a) & (zero_edges < lo_end)]
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

    Panels follow the zero list of the oscillating factor up to the
    asymptotic region and near-arch uniform panels beyond it.  F is
    evaluated at every requested limit plus internal checkpoints in the
    last decade of H, which feed the two tail fits.
    """
    limits = [float(h) for h in upper_limits]
    if not limits or not all(0.0 < h < math.inf for h in limits):
        raise DomainError("upper limits must be finite and positive")
    if any(b <= a for a, b in zip(limits, limits[1:])):
        raise DomainError("upper limits must be strictly increasing")
    hmax = limits[-1]
    fit_hs = np.geomspace(hmax / 10.0, hmax, 8)
    checkpoints = sorted(set(limits) | set(fit_hs.tolist()))

    k = _k_const(params)
    z_cps = [k * h * h for h in checkpoints]
    for h, z in zip(checkpoints, z_cps):
        if not 0.0 < z < math.inf:
            raise DomainError(f"z = m H^2/(4 hbar sqrt(d)) leaves the float range at H = {h!r}")
    pref = math.pi**2 / (128.0 * k)
    b_lo, b_hi, sign_lo, start = _bracket_zeros(
        _c_fn(consts), 1e-8, min(z_cps[-1], _TAIL_START))
    if len(b_lo):
        z_a, z_b = _refine_brackets(_newton_fn(consts), b_lo, b_hi, sign_lo,
                                    start, 1e-10)
        zero_edges = 0.5 * (z_a + z_b)
    else:
        zero_edges = np.empty(0)
    # every tail segment starts at _TAIL_START or at the checkpoint before it
    tail_z = [z for z in z_cps if z > _TAIL_START]
    ends = _tail_ends(np.array([_TAIL_START] + tail_z), consts) if tail_z else {}

    running = 0.0
    err_running = 0.0
    at_checkpoints = []
    prev = 0.0
    for z_cp in z_cps:
        v, e = _segment_integral(prev, z_cp, zero_edges, ends, consts, tol)
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
            p = PhysicalParams(m=mass, hbar=params.hbar, dimension=params.dimension)
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
