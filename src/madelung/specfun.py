"""Self-contained Gamma and Bessel functions at quarter-integer orders.

Double-precision evaluation of Gamma(x) and of J_nu(z), Y_nu(z) for the
quarter orders needed by the closed-form density shape function, together
with derivatives up to third order and the cross-product combination
J_{-3/4} Y_{1/4} - J_{1/4} Y_{-3/4}.

Three evaluation regimes are used for the Bessel functions:

* ascending power series for small arguments,
* a normalized downward recurrence for moderate arguments, where the
  alternating series loses too many digits to cancellation,
* Hankel's large-argument expansion, truncated at its smallest term,
  above ``series_switchover``.

One private evaluator, ``_jy``, serves every caller: it splits a z array
into the regimes once and computes each series order, each ladder
mu + n (mu = 1/4 or 3/4; one recurrence gives every shift n) and each
Hankel order once, however many values and derivatives share them.

All functions are pure and reentrant; identical inputs produce
bit-identical outputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import gcd

import numpy as np

from .errors import ConvergenceError, DomainError, PoleError

__all__ = [
    "BesselOrder",
    "EvalAccuracy",
    "DEFAULT_ACCURACY",
    "gamma",
    "bessel_j",
    "bessel_y",
    "bessel_j_deriv",
    "bessel_y_deriv",
    "cross_product",
]

# Ascending series is numerically safe (cancellation below ~1e-12 relative
# to the envelope) only up to this argument; beyond it the normalized
# downward recurrence takes over until the asymptotic switchover.
_SERIES_MAX = 12.0

_TINY = 1e-300


@dataclass(frozen=True)
class BesselOrder:
    """A quarter-integer Bessel order nu = numerator/denominator.

    Only odd quarter orders with |nu| <= 11/4 are representable: the
    closed form needs +-1/4 and +-3/4, and derivative recurrences shift
    the order by whole integers.
    """

    numerator: int
    denominator: int = 4

    def __post_init__(self):
        num, den = self.numerator, self.denominator
        if den == 0:
            raise DomainError("order denominator must be nonzero")
        if den < 0:
            num, den = -num, -den
        g = gcd(abs(num), den)
        num //= g
        den //= g
        # normalize to a denominator of 4
        if 4 % den != 0:
            raise DomainError(f"{self.numerator}/{self.denominator} is not a quarter order")
        num *= 4 // den
        if num % 2 == 0:
            raise DomainError("integer and half-integer orders are out of scope")
        if abs(num) > 11:
            raise DomainError("|nu| must not exceed 11/4")
        object.__setattr__(self, "numerator", num)
        object.__setattr__(self, "denominator", 4)

    @property
    def value(self) -> float:
        return self.numerator / 4.0

    def shifted(self, n: int) -> "BesselOrder":
        """Order nu + n reached by the +-1 recurrence."""
        return BesselOrder(self.numerator + 4 * n)


@dataclass(frozen=True)
class EvalAccuracy:
    """Accuracy knobs for the special-function evaluators."""

    target_rel_error: float = 1e-12
    series_switchover: float = 20.0
    max_series_terms: int = 200

    def __post_init__(self):
        if not self.target_rel_error > 0:
            raise DomainError("target_rel_error must be positive")
        if not self.series_switchover > 0:
            raise DomainError("series_switchover must be positive")
        if self.max_series_terms < 10:
            raise DomainError("max_series_terms must be at least 10")


DEFAULT_ACCURACY = EvalAccuracy()

# Lanczos approximation, g = 7, 9 coefficients: ~1e-13 relative accuracy
# in double precision over the whole right half plane.
_LANCZOS_G = 7.0
_LANCZOS = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)


def _sinpi(x: float) -> float:
    # sin(pi x) with the argument reduced exactly; avoids the relative-error
    # blowup of sin(pi*x) near integer x.
    n = math.floor(x)
    r = x - n
    s = math.sin(math.pi * r)
    return -s if n % 2 else s


def _gamma_positive(x: float) -> float:
    # Lanczos sum for x >= 0.5
    acc = _LANCZOS[0]
    for i, c in enumerate(_LANCZOS[1:], start=1):
        acc += c / (x - 1.0 + i)
    t = x - 0.5 + _LANCZOS_G
    return math.sqrt(2.0 * math.pi) * t ** (x - 0.5) * math.exp(-t) * acc


def _gamma(x: float) -> float:
    if x <= 0.0 and abs(x - round(x)) < 1e-14:
        raise PoleError(f"gamma pole at x = {x}")
    if x < 0.5:
        # reflection formula
        return math.pi / (_sinpi(x) * _gamma_positive(1.0 - x))
    return _gamma_positive(x)


def gamma(x: float, acc: EvalAccuracy = DEFAULT_ACCURACY) -> float:
    """Gamma(x) for real x away from the poles at 0, -1, -2, ...

    Raises PoleError when x is within 1e-14 of a non-positive integer.
    """
    del acc  # fixed rational approximation; kept for interface symmetry
    return _gamma(float(x))


# ---------------------------------------------------------------------------
# regime 1: ascending series


def _j_series(nu: float, z: np.ndarray, acc: EvalAccuracy) -> np.ndarray:
    """Ascending series for J_nu, valid for z <= _SERIES_MAX."""
    half = 0.5 * z
    term = half**nu / _gamma(nu + 1.0)
    total = term.copy()
    scale = np.abs(term)
    q = -(half * half)
    for k in range(1, acc.max_series_terms + 1):
        term = term * q / (k * (nu + k))
        total += term
        np.maximum(scale, np.abs(total), out=scale)
        if np.all(np.abs(term) <= 1e-2 * acc.target_rel_error * (scale + _TINY)):
            return total
    raise ConvergenceError(f"ascending series for J_{nu} stalled after {acc.max_series_terms} terms")


# ---------------------------------------------------------------------------
# regime 2: normalized downward recurrence (moderate z)
#
# The ascending series alternates with terms up to ~exp(z) times larger than
# the result, so past z ~ 12 it cannot deliver 1e-10 in double precision.
# The downward recurrence is stable and is normalized with
#     (z/2)^mu = sum_k (mu + 2k) Gamma(mu + k) / k! * J_{mu+2k}(z),
# which holds for non-integer mu and sidesteps the cancellation entirely.


def _abs_max(a: np.ndarray) -> float:
    # exact max |a|; the downward recurrence calls it only once its running
    # bound passes the rescale threshold
    return float(np.max(np.abs(a)))


def _j_downward(mu: float, keep, z: np.ndarray, acc: EvalAccuracy):
    """J_{mu+j}(z) for each j >= 0 in keep via the normalized recurrence.

    mu must lie in (0, 1).
    """
    zmax = float(np.max(z))
    zmin = float(np.min(z))
    nstart = int(zmax + 10.0 * math.sqrt(zmax) + 24.0)
    nstart += nstart % 2  # even, so the normalization sum ends on y_0

    # Gamma(mu + k)/k! for k = 0 .. nstart/2
    coeff = [_gamma(mu)]
    for k in range(1, nstart // 2 + 1):
        coeff.append(coeff[-1] * (mu + k - 1.0) / k)

    inv_z2 = 2.0 / z
    y_up = np.zeros_like(z)
    y = np.full_like(z, 1e-30)
    # upper bound on max(|y|, |y_up|): one step grows it at most by
    # 2 |mu + j + 1| / zmin + 1, widened by 1e-12 for rounding, so the exact
    # maximum is taken only on steps where it could pass 1e250
    bound = 1e-30
    norm = np.zeros_like(z)
    saved = {}
    if nstart % 2 == 0:
        norm += (mu + nstart) * coeff[nstart // 2] * y
    # always recurse down to j = 0: the normalization sum needs every even
    # index, whatever orders the caller keeps
    for j in range(nstart - 1, -1, -1):
        y_dn = (mu + j + 1.0) * inv_z2 * y - y_up
        y_up = y
        y = y_dn
        if j % 2 == 0:
            norm += (mu + j) * coeff[j // 2] * y
        if j in keep:
            saved[j] = y
        bound *= (2.0 * abs(mu + j + 1.0) / zmin + 1.0) * (1.0 + 1e-12)
        if bound > 1e250:
            if _abs_max(y) > 1e250:
                y *= 1e-250
                y_up *= 1e-250
                norm *= 1e-250
                for key in saved:
                    saved[key] = saved[key] * 1e-250
            bound = max(_abs_max(y), _abs_max(y_up))
    factor = (0.5 * z) ** mu / norm
    return {j: saved[j] * factor for j in saved}


def _j_ladder(mu: float, shifts, z: np.ndarray, acc: EvalAccuracy) -> dict:
    """J_{mu+n}(z) for every integer shift n in shifts, from one recurrence.

    For _SERIES_MAX < z <= switchover and mu in {1/4, 3/4}.  Negative shifts
    extend below mu with the same (stable) recurrence after normalization.
    """
    low = min(shifts)
    keep = {n for n in shifts if n >= 0} | ({0, 1} if low < 0 else set())
    vals = _j_downward(mu, keep, z, acc)
    if low < 0:
        y_up, y = vals[1], vals[0]
        order = mu
        for n in range(-1, low - 1, -1):
            y_dn = (2.0 * order / z) * y - y_up
            y_up = y
            y = y_dn
            order -= 1.0
            vals[n] = y
    return {n: vals[n] for n in shifts}


# ---------------------------------------------------------------------------
# regime 3: Hankel asymptotic expansion (large z)


def _jy_asymptotic(nu: float, z: np.ndarray, acc: EvalAccuracy):
    """(J_nu, Y_nu) from the large-argument expansion.

    Terms are accumulated per point until they stop decreasing
    (superasymptotic truncation); the first neglected term bounds the error.
    """
    mu4 = 4.0 * nu * nu
    p = np.ones_like(z)
    q = np.zeros_like(z)
    term = np.ones_like(z)
    prev_mag = np.full_like(z, np.inf)
    frozen = np.zeros(z.shape, dtype=bool)
    err = np.zeros_like(z)
    for k in range(1, 40):
        term = term * (mu4 - (2 * k - 1) ** 2) / (k * 8.0 * z)
        mag = np.abs(term)
        stop = mag >= prev_mag
        newly = stop & ~frozen
        err[newly] = mag[newly]
        frozen |= stop
        active = ~frozen
        if not np.any(active):
            break
        signed = term * (-1.0) ** ((k // 2) % 2)
        if k % 2:
            q[active] += signed[active]
        else:
            p[active] += signed[active]
        prev_mag = mag
    still = ~frozen
    err[still] = np.abs(term[still])
    if np.any(err > 10.0 * acc.target_rel_error):
        raise ConvergenceError(
            "asymptotic expansion cannot reach the target below z = "
            f"{float(np.min(z[err > 10.0 * acc.target_rel_error])):.3g}"
        )
    omega = z - (0.5 * nu + 0.25) * math.pi
    c = np.cos(omega)
    s = np.sin(omega)
    amp = np.sqrt(2.0 / (math.pi * z))
    return amp * (p * c - q * s), amp * (p * s + q * c)


# ---------------------------------------------------------------------------
# one evaluator for every order a caller needs


def _orders(nu: float, k: int):
    # orders of the k-th derivative's order-shift combination, in its
    # coefficient order: C^(k)_nu = 2^-k sum_i (-1)^i binom(k, i) C_{nu - k + 2i}
    return [nu - k + 2 * i for i in range(k + 1)]


def _jy(z: np.ndarray, wanted, acc: EvalAccuracy) -> list:
    """J_nu, Y_nu and their derivatives on one z array, sharing the work.

    wanted holds (kind, nu, k) triples: the k-th derivative (k = 0 for the
    value, else 1, 2 or 3) of J_nu for kind "J" or of Y_nu for kind "Y".
    Returns one array per triple.  z is split into the three regimes once;
    then each series order, each ladder mu + n (one downward recurrence per
    mu) and each Hankel order is computed once, and only the orders the
    triples need are kept.  Y comes from J_{+-nu} by the connection formula
    in the convergent regimes and from the Hankel expansion beyond them.
    """
    j_orders, y_orders = set(), set()
    for kind, nu, k in wanted:
        (j_orders if kind == "J" else y_orders).update(_orders(nu, k))
    kept = j_orders | y_orders
    # J_{-nu} of every Y order is needed on the convergent points only
    conv_orders = kept | {-nu for nu in y_orders}
    cut = min(_SERIES_MAX, acc.series_switchover)
    lo = z <= cut
    mid = (z > cut) & (z <= acc.series_switchover)
    hi = z > acc.series_switchover
    conv = ~hi
    jv = {nu: np.zeros_like(z) for nu in sorted(conv_orders)}
    if np.any(lo):
        zl = z[lo]
        for nu, arr in jv.items():
            arr[lo] = _j_series(nu, zl, acc)
    if np.any(mid):
        zm = z[mid]
        ladders = {}
        for nu in jv:
            shift = math.floor(nu)
            ladders.setdefault(nu - shift, []).append(shift)
        for mu, shifts in ladders.items():
            for shift, val in _j_ladder(mu, shifts, zm, acc).items():
                jv[mu + shift][mid] = val
    yv = {nu: np.empty_like(z) for nu in sorted(y_orders)}
    if np.any(hi):
        zh = z[hi]
        for nu in sorted(kept):
            jh, yh = _jy_asymptotic(nu, zh, acc)
            jv[nu][hi] = jh
            if nu in yv:
                yv[nu][hi] = yh
    if np.any(conv):
        for nu, out in yv.items():
            # connection formula; the quarter orders are never integers, so
            # sin(pi nu) is bounded away from zero
            quarters = round(4.0 * nu)
            cosv = math.cos(math.pi * quarters / 4.0)
            sinv = _sinpi(quarters / 4.0)
            out[conv] = (jv[nu][conv] * cosv - jv[-nu][conv]) / sinv
            if -nu not in kept:
                del jv[-nu]  # served only this Y
    results = []
    for kind, nu, k in wanted:
        values = jv if kind == "J" else yv
        if k == 0:
            results.append(values[nu])
            continue
        total = np.zeros_like(z)
        for i, order in enumerate(_orders(nu, k)):
            total += (-1.0) ** i * math.comb(k, i) * values[order]
        results.append(total / 2.0**k)
    return results


def _check_z(z) -> np.ndarray:
    arr = np.asarray(z, dtype=float)
    if np.any(~np.isfinite(arr)) or np.any(arr <= 0.0):
        raise DomainError("argument must be a positive real number")
    return arr


def _as_output(arr: np.ndarray, scalar: bool):
    return float(arr[0]) if scalar else arr


def bessel_j(nu: BesselOrder, z, acc: EvalAccuracy = DEFAULT_ACCURACY):
    """Bessel function of the first kind at a quarter order.

    Parameters
    ----------
    nu : BesselOrder
        Order, an odd multiple of 1/4 with |nu| <= 11/4.
    z : float or ndarray
        Argument(s), all > 0.
    acc : EvalAccuracy
        Accuracy/regime configuration.
    """
    scalar = np.isscalar(z) or getattr(z, "ndim", 1) == 0
    arr = np.atleast_1d(_check_z(z))
    return _as_output(_jy(arr, [("J", nu.value, 0)], acc)[0], scalar)


def bessel_y(nu: BesselOrder, z, acc: EvalAccuracy = DEFAULT_ACCURACY):
    """Bessel function of the second kind at a quarter order.

    Computed from J_{+-nu} through the connection formula in the
    convergent regime and from the asymptotic expansion beyond the
    switchover.
    """
    scalar = np.isscalar(z) or getattr(z, "ndim", 1) == 0
    arr = np.atleast_1d(_check_z(z))
    return _as_output(_jy(arr, [("Y", nu.value, 0)], acc)[0], scalar)


def _deriv(kind: str, nu: BesselOrder, z, k: int, acc: EvalAccuracy):
    scalar = np.isscalar(z) or getattr(z, "ndim", 1) == 0
    arr = np.atleast_1d(_check_z(z))
    if k not in (1, 2, 3):
        raise DomainError("derivative order must be 1, 2 or 3")
    return _as_output(_jy(arr, [(kind, nu.value, k)], acc)[0], scalar)


def bessel_j_deriv(nu: BesselOrder, z, k: int, acc: EvalAccuracy = DEFAULT_ACCURACY):
    """k-th derivative of J_nu (k = 1, 2, 3) via the order recurrence."""
    return _deriv("J", nu, z, k, acc)


def bessel_y_deriv(nu: BesselOrder, z, k: int, acc: EvalAccuracy = DEFAULT_ACCURACY):
    """k-th derivative of Y_nu (k = 1, 2, 3) via the order recurrence."""
    return _deriv("Y", nu, z, k, acc)


def cross_product(z, acc: EvalAccuracy = DEFAULT_ACCURACY):
    """J_{-3/4}(z) Y_{1/4}(z) - J_{1/4}(z) Y_{-3/4}(z).

    Analytically equal to -2/(pi z); evaluated here from the four
    functions so the identity remains an independent check.
    """
    scalar = np.isscalar(z) or getattr(z, "ndim", 1) == 0
    arr = np.atleast_1d(_check_z(z))
    jm, jp, ym, yp = _jy(arr, [("J", -0.75, 0), ("J", 0.25, 0),
                               ("Y", -0.75, 0), ("Y", 0.25, 0)], acc)
    return _as_output(jm * yp - jp * ym, scalar)
