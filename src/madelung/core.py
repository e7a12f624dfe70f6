"""Closed-form self-similar fields of the free-particle Madelung flow.

All fields derive from a single one-variable profile: the density obeys
rho(x, y, t) = f(eta)/sqrt(t) with eta = (x+y)/sqrt(t), the velocity
components share u = v = (eta - c0)/(4 sqrt(t)), and the density shape
function is a squared combination of quarter-order Bessel functions,

    f(eta) = 2 (c2 Y_{1/4}(z) - c1 J_{1/4}(z))^2
             / (eta^3 M^2 (J_{-3/4} Y_{1/4} - J_{1/4} Y_{-3/4})^2),

with argument z = sqrt(2) M eta^2 / 8.  The mass scale M = m sqrt(2/d) / hbar
makes it solve the reduced density equation in d = 1, 2 or 3 dimensions;
d enters only through M and k = m / (4 hbar sqrt(d)) of z = k eta^2, the
PhysicalParams properties mass_scale and k.  M = m at d = 2, hbar = 1.

Everything here is a pure function of immutable parameter records; grid
arguments may be numpy arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import specfun
from .errors import DomainError, require_finite

__all__ = [
    "LAB_FIELDS",
    "GridSpec",
    "PhysicalParams",
    "SolutionConstants",
    "LabPoint",
    "shape_density",
    "simplified_shape_density",
    "shape_velocity_sum",
    "shape_velocity_split",
    "lab_field",
    "density",
    "velocity",
    "phase",
    "wavefunction_canonical",
    "quantum_potential_eq9_masked",
]

_SHAPE_AMPLITUDE = math.pi * math.pi / 64.0
# eq. 9 excludes the points closer than this to one of its poles
_Q9_EXCLUSION = 1e-9

# lab-frame fields evaluated by lab_field
LAB_FIELDS = ("rho", "u", "v", "S", "psi_re", "psi_im")


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

    @property
    def z_scale(self) -> float:
        """4 hbar sqrt(d), the denominator of z = m eta^2 / z_scale."""
        return 4.0 * self.hbar * math.sqrt(self.dimension)

    @property
    def k(self) -> float:
        """k = m / (4 hbar sqrt(d)) of z = k eta^2."""
        return self.m / self.z_scale

    @property
    def mass_scale(self) -> float:
        """M = m sqrt(2/d) / hbar, so that z = sqrt(2) M eta^2 / 8."""
        return self.m * math.sqrt(2.0 / self.dimension) / self.hbar

    @property
    def q_prefactor(self):
        """hbar^2/(2 m^2) of Q, a numpy float formed on access, so that beyond the
        float range it is 0 or inf under the caller's np.errstate."""
        return np.float64(self.hbar) ** 2 / (2.0 * np.float64(self.m) ** 2)


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
class LabPoint:
    """Laboratory coordinates (x, y, t) with t > 0."""

    x: float
    y: float
    t: float

    def __post_init__(self):
        if not self.t > 0:
            raise DomainError("t must be positive")


# ---------------------------------------------------------------------------
# internal kernels (array capable)


def _z_arg(eta, params: PhysicalParams):
    z = params.m * eta * eta / params.z_scale
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
_FOUR_BESSELS = (("J", 0.25, 0), ("Y", 0.25, 0), ("J", -0.75, 0), ("Y", -0.75, 0))


def _four_bessel_terms(z, consts):
    # the literal closed form's numerator -c1 J_{1/4} + c2 Y_{1/4} and cross
    # product J_{-3/4} Y_{1/4} - J_{1/4} Y_{-3/4}, from one _jy request
    j, y, jm, ym = specfun._jy(z, _FOUR_BESSELS)
    return -consts.c1 * j + consts.c2 * y, jm * y - j * ym


def _w_bundle(z, consts, upto=0):
    """w = c2 Y_{1/4}(z) - c1 J_{1/4}(z) and its z-derivatives through `upto`.

    Returns [w, w', ...].  w' = c2 Y_{-3/4} - c1 J_{-3/4} - w/(4z), from
    C'_nu = C_{nu-1} - (nu/z) C_nu (DLMF 10.6.2), is the one w' of the
    roots, the zero distance and Q.  w'' and w''' are the order-shift sums,
    so a residual built from them compares values of independent orders.
    The zeros of w are the density zeros (f = (pi^2/64) eta w^2), and the
    quantum potential's bracket denominator is D = -w.
    """
    wanted = list(_FOUR_BESSELS[:2 if upto == 0 else 4])
    wanted += [(kind, 0.25, k) for k in range(2, upto + 1) for kind in ("J", "Y")]
    j, y, *rest = specfun._jy(z, wanted)
    ws = [consts.c2 * y - consts.c1 * j]
    if upto >= 1:
        jm, ym, *rest = rest
        ws.append(consts.c2 * ym - consts.c1 * jm - ws[0] / (4.0 * z))
    ws += [consts.c2 * yk - consts.c1 * jk for jk, yk in zip(rest[::2], rest[1::2])]
    return ws


# points per block of the array field kernels (measured fastest of 4096,
# 16384 and 65536 for 1e6 points); every value depends only on its own
# point, so the block size changes no byte
_BLOCK = 16384


def _blockwise(kernel, arrays, *args):
    """kernel(*blocks, *args) on the broadcast arrays, _BLOCK points at a time.

    kernel returns one array or a tuple of arrays shaped like its array
    arguments' broadcast.  Up to _BLOCK points it gets the arrays as they
    are; beyond that it gets consecutive 1-D blocks in C order, and its
    results are written into preallocated outputs of the broadcast shape.
    """
    shape = np.broadcast_shapes(*(a.shape for a in arrays))
    size = math.prod(shape)
    if size <= _BLOCK:
        return kernel(*arrays, *args)
    # a full contiguous array is sliced as a view; a broadcast one through
    # its flat iterator, which copies only the block
    sources = []
    for a in arrays:
        full = np.broadcast_to(a, shape)
        sources.append(full.reshape(-1) if full.flags.c_contiguous else full.flat)
    outs = None
    for lo in range(0, size, _BLOCK):
        part = kernel(*(src[lo:lo + _BLOCK] for src in sources), *args)
        parts = part if isinstance(part, tuple) else (part,)
        if outs is None:
            outs = [np.empty(size, dtype=v.dtype) for v in parts]
        for out, v in zip(outs, parts):
            out[lo:lo + _BLOCK] = v
    outs = tuple(out.reshape(shape) for out in outs)
    return outs if isinstance(part, tuple) else outs[0]


def _shape_density_block(eta, params, consts):
    z = _z_arg(eta, params)
    mm = params.mass_scale
    if not math.isfinite(mm * mm):
        # m beyond ~1e154: the denominator cannot be formed, so f is NaN
        # (the caller reports non-finite f), never an underflowed 0
        return np.full_like(z, np.nan)
    num, cross = _four_bessel_terms(z, consts)
    return 2.0 * num**2 / (eta**3 * mm * mm * cross * cross)


def _shape_density_arr(eta, params, consts):
    return _blockwise(_shape_density_block, (eta,), params, consts)


def _simplified_shape_density_block(eta, params, consts):
    w = _w_bundle(_z_arg(eta, params), consts)[0]
    return _SHAPE_AMPLITUDE * eta * w * w


def _simplified_shape_density_arr(eta, params, consts):
    return _blockwise(_simplified_shape_density_block, (eta,), params, consts)


def _scalar_or_array(fn, eta, *args):
    scalar = np.isscalar(eta) or getattr(eta, "ndim", 1) == 0
    arr = np.atleast_1d(_check_eta(eta))
    out = fn(arr, *args)
    return float(out[0]) if scalar else out


# ---------------------------------------------------------------------------
# public operations


def shape_density(eta, params: PhysicalParams, consts: SolutionConstants):
    """Density shape function f(eta), evaluated from the literal closed form.

    The four-Bessel denominator is computed numerically; see
    simplified_shape_density for the algebraically reduced route.
    """
    return _scalar_or_array(_shape_density_arr, eta, params, consts)


def simplified_shape_density(eta, params: PhysicalParams, consts: SolutionConstants):
    """f(eta) with the denominator collapsed by the cross-product identity.

    Substituting J_{-3/4} Y_{1/4} - J_{1/4} Y_{-3/4} = -2/(pi z) into the
    closed form reduces it to

        f(eta) = (pi^2/64) eta (c2 Y_{1/4}(z) - c1 J_{1/4}(z))^2.
    """
    return _scalar_or_array(_simplified_shape_density_arr, eta, params, consts)


def shape_velocity_sum(eta, consts: SolutionConstants):
    """g + h = (eta - c0)/2, the integrated continuity constraint."""
    return (eta - consts.c0) / 2.0


# dg/deta = dh/deta of the symmetric split
_SPLIT_SLOPE = 0.25


def shape_velocity_split(eta, consts: SolutionConstants):
    """Symmetric split g = h = (eta - c0)/4 of the velocity shape sum.

    Only g + h is constrained; the symmetric choice is the unique one
    respecting the x <-> y symmetry of the combination x + y.
    """
    g = (eta - consts.c0) * _SPLIT_SLOPE
    return g, g


def _phase(s, t, params):
    # S = (m/hbar) s^2/(4t) with s = x + y, on floats or arrays alike
    return params.m * s * s / (4.0 * params.hbar * t)


def _lab_block(x, y, t, names, params, consts, shape):
    # the LAB_FIELDS in names on broadcast (x, y, t) arrays, sharing eta,
    # rho and S between them
    s = x + y
    fields = {"S": _phase(s, t, params)}
    if set(names) != {"S"}:
        if not np.all(s > 0.0):
            raise DomainError("x + y must be positive")
        rt = np.sqrt(t)
        eta = s / rt
        g, h = shape_velocity_split(eta, consts)
        fields.update(u=g / rt, v=h / rt)
    if set(names) & {"rho", "psi_re", "psi_im"}:
        fields["rho"] = shape(_check_eta(eta), params, consts) / rt
        amp = np.sqrt(fields["rho"])
        for name, trig in (("psi_re", np.cos), ("psi_im", np.sin)):
            if name in names:
                fields[name] = amp * trig(fields["S"])
    return tuple(fields[name] for name in names)


def _lab_arrays(names, x, y, t, params, consts, shape=_shape_density_arr):
    # _lab_block over the broadcast (x, y, t), _BLOCK points at a time;
    # shape is the density-shape kernel of rho
    x, y, t = (np.asarray(v, dtype=float) for v in (x, y, t))
    if not np.all(t > 0.0):
        raise DomainError("t must be positive")
    fields = _blockwise(_lab_block, (x, y, t), names, params, consts, shape)
    for name, values in zip(names, fields):
        if name in ("psi_re", "psi_im"):
            require_finite(name, values, x=x, y=y, t=t)
    return fields


def lab_field(name: str, x, y, t, params: PhysicalParams,
              consts: SolutionConstants) -> np.ndarray:
    """One field of LAB_FIELDS on whole arrays of lab coordinates.

    x, y and t broadcast against each other.  rho = f(eta)/sqrt(t) from the
    literal closed form, u = v = g(eta)/sqrt(t), S = (m/hbar) (x+y)^2/(4t),
    and psi_re, psi_im = sqrt(rho) (cos S, sin S).  Every t must be
    positive, and so must every x + y for all fields but S.  A non-finite
    psi raises NonFiniteOutput naming its first point in C order.
    """
    if name not in LAB_FIELDS:
        raise DomainError(f"unknown lab field {name!r}; expected one of {LAB_FIELDS}")
    return _lab_arrays((name,), x, y, t, params, consts)[0]


def density(p: LabPoint, params: PhysicalParams, consts: SolutionConstants) -> float:
    """rho(x, y, t) = f(eta)/sqrt(t): lab_field at one point."""
    return float(lab_field("rho", [p.x], [p.y], [p.t], params, consts)[0])


def velocity(p: LabPoint, params: PhysicalParams, consts: SolutionConstants):
    """(u, v) = (g(eta), h(eta))/sqrt(t); equals ((x+y)/(4t),)*2 for c0 = 0."""
    u, v = _lab_arrays(("u", "v"), [p.x], [p.y], [p.t], params, consts)
    return float(u[0]), float(v[0])


def phase(p: LabPoint, params: PhysicalParams) -> float:
    """Wave-function phase S = (m/hbar) (x+y)^2 / (4t)."""
    return _phase(p.x + p.y, p.t, params)


def wavefunction_canonical(p: LabPoint, params: PhysicalParams,
                           consts: SolutionConstants) -> complex:
    """sqrt(rho) e^{iS}; a non-finite value raises NonFiniteOutput."""
    psi_re, psi_im = _lab_arrays(("psi_re", "psi_im"), [p.x], [p.y], [p.t], params, consts)
    return complex(psi_re[0], psi_im[0])


def _psi_eq8(x, y, t, params, consts):
    """The eq. 8 wave function on broadcast (x, y, t) arrays with x + y > 0.

    Keeps the source formula's t^{1/4} prefactor and unsquared four-Bessel
    denominator: at fixed eta its modulus is t^{-1/4} times the canonical
    one (they coincide at t = 1).
    """
    s = x + y
    z = _z_arg(s / np.sqrt(t), params)
    num, cross = _four_bessel_terms(z, consts)
    modulus = math.sqrt(2.0) * t**0.25 * num / (s**1.5 * params.mass_scale * cross)
    return modulus * np.exp(1j * _phase(s, t, params))


def _newton_distance(eta, z, w, w1):
    # |w / (w' dz/deta)|, Newton's estimate of the eta-distance from eta to
    # the nearest zero of w, and dz/deta = 2z/eta
    dz_deta = 2.0 * z / eta
    return np.abs(w / (w1 * dz_deta)), dz_deta


def _zero_distance(eta, params, consts):
    """Newton estimate of the eta-distance to the nearest density zero,
    plus the local half-oscillation width pi/(dz/deta)."""
    eta = np.asarray(eta, dtype=float)
    z = _z_arg(eta, params)
    dist, dz_deta = _newton_distance(eta, z, *_w_bundle(z, consts, upto=1))
    return dist, np.pi / dz_deta


def _q9_block(eta, params, consts):
    # bracket denominator D(z) = c1 J_{1/4} - c2 Y_{1/4} = -w and the
    # analytic eta-derivative of -eta^2 M^2 / (8 D)
    z = _z_arg(eta, params)
    pref, mm = params.q_prefactor, params.mass_scale
    if not (0.0 < pref < math.inf and math.isfinite(mm * mm)):
        # hbar^2/(2 m^2) or M^2 outside the float range: Q cannot be formed, so
        # it is NaN with no point excluded, and the caller reports non-finite Q
        return np.full_like(z, np.nan), np.full_like(z, np.inf)
    w, w1 = _w_bundle(z, consts, upto=1)
    d, dprime = -w, -w1
    q = -pref * mm * mm * eta / 4.0 * (1.0 - z * dprime / d) / d
    # the poles of Q are the zeros of D, and so of w
    return q, _newton_distance(eta, z, w, w1)[0]


def quantum_potential_eq9_masked(eta, params: PhysicalParams, consts: SolutionConstants):
    """(Q, excluded): Q of eq. 9 on the 1-D array of eta, and its pole mask.

    Q(eta) = (hbar^2 / 2 m^2) d/deta [ -eta^2 M^2 / (8 (c1 J_{1/4}(z)
    - c2 Y_{1/4}(z))) ], differentiated analytically.  It diverges at the
    zeros of the density shape; Q is NaN, and excluded True, at the points
    closer than _Q9_EXCLUSION to one.
    """
    arr = np.atleast_1d(_check_eta(eta))
    q, dist = _blockwise(_q9_block, (arr,), params, consts)
    excluded = dist < _Q9_EXCLUSION
    q = np.where(excluded, np.nan, q)
    return q, excluded
