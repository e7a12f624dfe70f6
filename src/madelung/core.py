"""Closed-form self-similar fields of the free-particle Madelung flow.

All fields derive from a single one-variable profile: the density obeys
rho(x, y, t) = f(eta)/sqrt(t) with eta = (x+y)/sqrt(t), the velocity
components share u = v = (eta - c0)/(4 sqrt(t)), and the density shape
function is a squared combination of quarter-order Bessel functions,

    f(eta) = 2 (c2 Y_{1/4}(z) - c1 J_{1/4}(z))^2
             / (eta^3 M^2 (J_{-3/4} Y_{1/4} - J_{1/4} Y_{-3/4})^2),

with argument z = sqrt(2) M eta^2 / 8.  M is the mass scale that makes
the same expression solve the reduced density equation in d = 1, 2 or 3
dimensions: M = m sqrt(2/d) / hbar, so z = m eta^2 / (4 hbar sqrt(d))
and M = m at the reference point d = 2, hbar = 1.

Everything here is a pure function of immutable parameter records; grid
arguments may be numpy arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import specfun
from .errors import DomainError, SingularityError, require_finite
from .specfun import DEFAULT_ACCURACY, EvalAccuracy

__all__ = [
    "LAB_FIELDS",
    "PhysicalParams",
    "SolutionConstants",
    "SimilarityExponents",
    "SimilarityPoint",
    "LabPoint",
    "ComplexAmplitude",
    "eta_of",
    "shape_density",
    "simplified_shape_density",
    "shape_velocity_sum",
    "shape_velocity_split",
    "lab_field",
    "density",
    "velocity",
    "phase",
    "wavefunction_canonical",
    "wavefunction_eq8",
    "quantum_potential_eq9",
]

_SHAPE_AMPLITUDE = math.pi * math.pi / 64.0

# lab-frame fields evaluated by lab_field
LAB_FIELDS = ("rho", "u", "v", "S", "psi_re", "psi_im")


@dataclass(frozen=True)
class PhysicalParams:
    """Particle mass, reduced Planck constant and spatial dimension."""

    m: float
    hbar: float = 1.0
    dimension: int = 2

    def __post_init__(self):
        if not (math.isfinite(self.m) and math.isfinite(self.hbar)):
            raise DomainError("mass and hbar must be finite")
        if not self.m > 0:
            raise DomainError("mass must be positive")
        if not self.hbar > 0:
            raise DomainError("hbar must be positive")
        if self.dimension not in (1, 2, 3):
            raise DomainError("dimension must be 1, 2 or 3")


@dataclass(frozen=True)
class SolutionConstants:
    """Integration constants of the reduced equations.

    c1 and c2 weight the two Bessel branches of the density shape
    function; c0 shifts the velocity profile and defaults to zero.
    """

    c1: float
    c2: float
    c0: float = 0.0

    def __post_init__(self):
        if not all(math.isfinite(c) for c in (self.c0, self.c1, self.c2)):
            raise DomainError("c0, c1 and c2 must be finite")
        if self.c1 == 0.0 and self.c2 == 0.0:
            raise DomainError("c1 and c2 must not both vanish")


@dataclass(frozen=True)
class SimilarityExponents:
    """Decay/spreading exponents; all four are pinned to exactly 1/2."""

    alpha: float = 0.5
    beta: float = 0.5
    delta: float = 0.5
    epsilon: float = 0.5

    def __post_init__(self):
        if not (self.alpha == self.beta == self.delta == self.epsilon == 0.5):
            raise DomainError("all similarity exponents are fixed to 1/2")


@dataclass(frozen=True)
class SimilarityPoint:
    """A point eta > 0 of the similarity variable."""

    eta: float

    def __post_init__(self):
        if not self.eta > 0:
            raise DomainError("eta must be positive")


@dataclass(frozen=True)
class LabPoint:
    """Laboratory coordinates (x, y, t) with t > 0."""

    x: float
    y: float
    t: float

    def __post_init__(self):
        if not self.t > 0:
            raise DomainError("t must be positive")

    @property
    def s(self) -> float:
        return self.x + self.y


@dataclass(frozen=True)
class ComplexAmplitude:
    """A complex wave-function value split into real and imaginary parts."""

    re: float
    im: float

    def __post_init__(self):
        if not (math.isfinite(self.re) and math.isfinite(self.im)):
            raise DomainError("amplitude components must be finite")

    def as_complex(self) -> complex:
        return complex(self.re, self.im)

    def magnitude(self) -> float:
        return math.hypot(self.re, self.im)

    def angle(self) -> float:
        return math.atan2(self.im, self.re)


def eta_of(p: LabPoint) -> SimilarityPoint:
    """Similarity variable (x + y)/sqrt(t) of a lab point."""
    if not p.s > 0:
        raise DomainError("x + y must be positive")
    return SimilarityPoint(p.s / math.sqrt(p.t))


# ---------------------------------------------------------------------------
# internal kernels (array capable)


def _mass_scale(params: PhysicalParams) -> float:
    return params.m * math.sqrt(2.0 / params.dimension) / params.hbar


def _z_arg(eta, params: PhysicalParams):
    z = params.m * eta * eta / (4.0 * params.hbar * math.sqrt(params.dimension))
    # a positive eta whose z underflows would send the Bessel series to 0^nu
    under = (z == 0.0) & (eta != 0.0)
    if np.any(under):
        bad = float(np.asarray(eta, dtype=float)[under][0])
        raise DomainError(
            f"z = m eta^2/(4 hbar sqrt(d)) underflows to 0 at eta = {bad!r}")
    return z


def _check_eta(eta) -> np.ndarray:
    arr = np.asarray(eta, dtype=float)
    if np.any(~np.isfinite(arr)) or np.any(arr <= 0.0):
        raise DomainError("eta must be positive")
    return arr


# J and Y of orders 1/4 and -3/4, as _jy requests
_QUARTER_PAIR = (("J", 0.25, 0), ("Y", 0.25, 0))
_FOUR_BESSELS = _QUARTER_PAIR + (("J", -0.75, 0), ("Y", -0.75, 0))


def _numerator_factor(z, consts, acc):
    # c2 Y_{1/4}(z) - c1 J_{1/4}(z); its zeros are the zeros of the density
    j, y = specfun._jy(z, _QUARTER_PAIR, acc)
    return consts.c2 * y - consts.c1 * j


def _shape_density_arr(eta, params, consts, acc):
    z = _z_arg(eta, params)
    j, y, jm, ym = specfun._jy(z, _FOUR_BESSELS, acc)
    num = 2.0 * (-consts.c1 * j + consts.c2 * y) ** 2
    cross = jm * y - j * ym
    mm = _mass_scale(params)
    return num / (eta**3 * mm * mm * cross * cross)


def _simplified_shape_density_arr(eta, params, consts, acc):
    z = _z_arg(eta, params)
    w = _numerator_factor(z, consts, acc)
    return _SHAPE_AMPLITUDE * eta * w * w


def _scalar_or_array(fn, eta, *args):
    scalar = np.isscalar(eta) or getattr(eta, "ndim", 1) == 0
    arr = np.atleast_1d(_check_eta(eta))
    out = fn(arr, *args)
    return float(out[0]) if scalar else out


# ---------------------------------------------------------------------------
# public operations


def shape_density(eta, params: PhysicalParams, consts: SolutionConstants,
                  acc: EvalAccuracy = DEFAULT_ACCURACY):
    """Density shape function f(eta), evaluated from the literal closed form.

    The four-Bessel denominator is computed numerically; see
    simplified_shape_density for the algebraically reduced route.
    """
    return _scalar_or_array(_shape_density_arr, eta, params, consts, acc)


def simplified_shape_density(eta, params: PhysicalParams, consts: SolutionConstants,
                             acc: EvalAccuracy = DEFAULT_ACCURACY):
    """f(eta) with the denominator collapsed by the cross-product identity.

    Substituting J_{-3/4} Y_{1/4} - J_{1/4} Y_{-3/4} = -2/(pi z) into the
    closed form reduces it to

        f(eta) = (pi^2/64) eta (c2 Y_{1/4}(z) - c1 J_{1/4}(z))^2.
    """
    return _scalar_or_array(_simplified_shape_density_arr, eta, params, consts, acc)


def shape_velocity_sum(eta, consts: SolutionConstants):
    """g + h = (eta - c0)/2, the integrated continuity constraint."""
    return (eta - consts.c0) / 2.0


def shape_velocity_split(eta, consts: SolutionConstants):
    """Symmetric split g = h = (eta - c0)/4 of the velocity shape sum.

    Only g + h is constrained; the symmetric choice is the unique one
    respecting the x <-> y symmetry of the combination x + y.
    """
    g = (eta - consts.c0) / 4.0
    return g, g


def _lab_arrays(names, x, y, t, params, consts, acc):
    # the LAB_FIELDS in names on broadcast (x, y, t) arrays, sharing eta,
    # rho and S between them
    x, y, t = (np.asarray(v, dtype=float) for v in (x, y, t))
    if not np.all(t > 0.0):
        raise DomainError("t must be positive")
    s = x + y
    fields = {"S": params.m * s * s / (4.0 * params.hbar * t)}
    if set(names) != {"S"}:
        if not np.all(s > 0.0):
            raise DomainError("x + y must be positive")
        rt = np.sqrt(t)
        eta = s / rt
        g, h = shape_velocity_split(eta, consts)
        fields.update(u=g / rt, v=h / rt)
    if set(names) & {"rho", "psi_re", "psi_im"}:
        fields["rho"] = _shape_density_arr(_check_eta(eta), params, consts, acc) / rt
        amp = np.sqrt(fields["rho"])
        for name, trig in (("psi_re", np.cos), ("psi_im", np.sin)):
            if name in names:
                fields[name] = amp * trig(fields["S"])
                require_finite(name, fields[name], x=x, y=y, t=t)
    return tuple(fields[name] for name in names)


def lab_field(name: str, x, y, t, params: PhysicalParams,
              consts: SolutionConstants, acc: EvalAccuracy = DEFAULT_ACCURACY) -> np.ndarray:
    """One field of LAB_FIELDS on whole arrays of lab coordinates.

    x, y and t broadcast against each other.  rho = f(eta)/sqrt(t) from the
    literal closed form, u = v = g(eta)/sqrt(t), S = (m/hbar) (x+y)^2/(4t),
    and psi_re, psi_im = sqrt(rho) (cos S, sin S).  Every t must be
    positive, and so must every x + y for all fields but S.  A non-finite
    psi raises NonFiniteOutput naming its first point in C order.
    """
    if name not in LAB_FIELDS:
        raise DomainError(f"unknown lab field {name!r}; expected one of {LAB_FIELDS}")
    return _lab_arrays((name,), x, y, t, params, consts, acc)[0]


def _at_point(names, p: LabPoint, params, consts, acc=DEFAULT_ACCURACY):
    fields = _lab_arrays(names, [p.x], [p.y], [p.t], params, consts, acc)
    return tuple(float(v[0]) for v in fields)


def density(p: LabPoint, params: PhysicalParams, consts: SolutionConstants,
            acc: EvalAccuracy = DEFAULT_ACCURACY) -> float:
    """rho(x, y, t) = f(eta)/sqrt(t)."""
    return _at_point(("rho",), p, params, consts, acc)[0]


def velocity(p: LabPoint, params: PhysicalParams, consts: SolutionConstants):
    """(u, v) = (g(eta), h(eta))/sqrt(t); equals ((x+y)/(4t),)*2 for c0 = 0."""
    # the operations of lab_field on floats (LabPoint guarantees t > 0)
    s = p.x + p.y
    if not s > 0.0:
        raise DomainError("x + y must be positive")
    rt = math.sqrt(p.t)
    g, h = shape_velocity_split(s / rt, consts)
    return g / rt, h / rt


def phase(p: LabPoint, params: PhysicalParams) -> float:
    """Wave-function phase S = (m/hbar) (x+y)^2 / (4t)."""
    s = p.x + p.y
    return params.m * s * s / (4.0 * params.hbar * p.t)


def wavefunction_canonical(p: LabPoint, params: PhysicalParams,
                           consts: SolutionConstants,
                           acc: EvalAccuracy = DEFAULT_ACCURACY) -> ComplexAmplitude:
    """sqrt(rho) e^{iS}: modulus from the density, argument from the phase."""
    return ComplexAmplitude(*_at_point(("psi_re", "psi_im"), p, params, consts, acc))


def wavefunction_eq8(p: LabPoint, params: PhysicalParams,
                     consts: SolutionConstants,
                     acc: EvalAccuracy = DEFAULT_ACCURACY) -> ComplexAmplitude:
    """Alternative closed-form wave function with the t^{1/4} prefactor.

    Keeps the prefactor and the unsquared four-Bessel denominator of the
    source formula verbatim, for discrepancy analysis against
    wavefunction_canonical: at fixed eta the modulus ratio
    eq8/canonical scales as t^{-1/4} (they coincide at t = 1).
    """
    if not p.s > 0:
        raise DomainError("x + y must be positive")
    z = np.atleast_1d(_z_arg(p.s / math.sqrt(p.t), params))
    j, y, jm, ym = specfun._jy(z, _FOUR_BESSELS, acc)
    cross = float((jm * y - j * ym)[0])
    num = math.sqrt(2.0) * p.t**0.25 * float((-consts.c1 * j + consts.c2 * y)[0])
    den = p.s**1.5 * _mass_scale(params) * cross
    modulus = num / den
    s = phase(p, params)
    return ComplexAmplitude(modulus * math.cos(s), modulus * math.sin(s))


def _q9_terms(eta, params, consts, acc):
    # bracket denominator D(z) = c1 J_{1/4} - c2 Y_{1/4} and the analytic
    # eta-derivative of -eta^2 M^2 / (8 D)
    z = _z_arg(eta, params)
    j, y, jd, yd = specfun._jy(
        z, _QUARTER_PAIR + (("J", 0.25, 1), ("Y", 0.25, 1)), acc)
    d = consts.c1 * j - consts.c2 * y
    dprime = consts.c1 * jd - consts.c2 * yd
    mm = _mass_scale(params)
    try:
        pref = params.hbar**2 / (2.0 * params.m**2)
    except OverflowError:  # m or hbar beyond ~1e154; the caller reports non-finite Q
        pref = math.nan
    q = -pref * mm * mm * eta / 4.0 * (1.0 - z * dprime / d) / d
    # Newton estimate of the eta-distance to the nearest zero of D
    dz_deta = 2.0 * z / eta
    dist = np.abs(d / (dprime * dz_deta))
    return q, dist


def quantum_potential_eq9(eta, params: PhysicalParams, consts: SolutionConstants,
                          exclusion_radius: float = 1e-9,
                          acc: EvalAccuracy = DEFAULT_ACCURACY):
    """Quantum potential shape from the printed closed form.

    Q(eta) = (hbar^2 / 2 m^2) d/deta [ -eta^2 M^2 / (8 (c1 J_{1/4}(z)
    - c2 Y_{1/4}(z))) ], with the derivative taken analytically through
    the Bessel recurrences.  Diverges where the bracket denominator
    vanishes, i.e. exactly at the zeros of the density shape function;
    points closer than exclusion_radius raise SingularityError.
    """
    scalar = np.isscalar(eta) or getattr(eta, "ndim", 1) == 0
    arr = np.atleast_1d(_check_eta(eta))
    q, dist = _q9_terms(arr, params, consts, acc)
    if np.any(dist < exclusion_radius):
        bad = float(arr[dist < exclusion_radius][0])
        raise SingularityError(
            f"eta = {bad!r} lies within {exclusion_radius} of a quantum-potential pole")
    return float(q[0]) if scalar else q


def quantum_potential_eq9_masked(eta, params: PhysicalParams, consts: SolutionConstants,
                                 exclusion_radius: float = 1e-9,
                                 acc: EvalAccuracy = DEFAULT_ACCURACY):
    """Array variant that NaN-masks excluded points instead of raising."""
    arr = np.atleast_1d(_check_eta(eta))
    q, dist = _q9_terms(arr, params, consts, acc)
    excluded = dist < exclusion_radius
    q = np.where(excluded, np.nan, q)
    return q, excluded
