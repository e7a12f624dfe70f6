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
  above ``_SWITCHOVER``.

One private evaluator, ``_jy``, serves every caller: it splits a z array
into the regimes once, and one pass of each regime's kernel serves every
order a request needs, as the rows of one (orders, points) array.

Every regime evaluates each point on its own, so a value depends only on
its own argument, never on the other points of the array it comes with.
All functions are pure and reentrant; identical inputs produce
bit-identical outputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate
from math import gcd

import numpy as np

from .errors import ConvergenceError, DomainError, PoleError

__all__ = [
    "BesselOrder",
    "gamma",
    "bessel_j",
    "bessel_y",
    "bessel_j_deriv",
    "bessel_y_deriv",
    "cross_product",
]

# The ascending series serves z up to this argument; beyond it the
# normalized downward recurrence takes over until the asymptotic switchover.
# The series' cancellation peaks here: against scipy, J, Y and their first
# three derivatives at the twelve quarter orders err by at most 1.9e-13
# relative to the envelope sqrt(J^2 + Y^2), for Y_{3/4} just below z = 8.
# A switch at 12 reached 9.9e-12 (Y_{-3/4} at z = 12), above the 1e-12
# target.
_SERIES_MAX = 8.0

# the relative error every regime aims for, the argument above which
# Hankel's expansion serves, and the series' term budget
_TARGET_REL_ERROR = 1e-12
_SWITCHOVER = 20.0
_MAX_SERIES_TERMS = 200

_TINY = 1e-300

# the series compacts its running points only in arrays at least this long;
# below it compacting saved no time (measured on 8 to 512 points)
_COMPACT_MIN = 64

# elements (rows x points) of one stacked kernel pass; longer arrays run in
# parts (measured fastest of 16384, 32768 and 65536 elements on the blocks of
# a 1e6-point field evaluation: larger stacked arrays fall out of the cache)
_CHUNK = 32768


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


def gamma(x: float) -> float:
    """Gamma(x) for real x away from the poles at 0, -1, -2, ...

    Raises PoleError when x is within 1e-14 of a non-positive integer.
    """
    return _gamma(float(x))


# ---------------------------------------------------------------------------
# regime 1: ascending series


def _column(values) -> np.ndarray:
    # per-order scalars as an (orders, 1) column: each stacked element sees its order's operations
    return np.array(values, dtype=float).reshape(-1, 1)


def _j_series(orders, z: np.ndarray) -> np.ndarray:
    """Ascending series for J_nu, one row per nu in orders, for z <= _SERIES_MAX.

    Each element stops at its own first term k >= 1 with |term| <= 1e-2
    _TARGET_REL_ERROR (scale + tiny), scale its largest partial sum so far,
    and its value is the partial sum through that term; its later terms are
    zeroed.  An element whose leading term is not finite stops at once.
    Once at least half of the running points have stopped in every order,
    they are written out and dropped (never below _COMPACT_MIN points).
    """
    ks = np.arange(1, _MAX_SERIES_TERMS + 1)[:, None, None]
    denom = ks * (_column(orders) + ks)  # k (nu + k) for each k, as a column
    half = 0.5 * z
    term = np.array([half**v / _gamma(v + 1.0) for v in orders])
    total, scale = term.copy(), np.abs(term)
    # a leading term beyond the float range (a negative order at z ~ 1e-200)
    # would turn into NaN at k = 1; its zeroed successor stops it at its value
    term[~np.isfinite(term)] = 0.0
    q = -(half * half)
    out = idx = None  # idx: the running points' positions in out, once compacted
    for k in range(1, _MAX_SERIES_TERMS + 1):
        term = term * q / denom[k - 1]
        total += term
        np.maximum(scale, np.abs(total), out=scale)
        done = np.abs(term) <= 1e-2 * _TARGET_REL_ERROR * (scale + _TINY)
        stopped = np.count_nonzero(done)
        if stopped == done.size:
            if idx is None:
                return total
            out[:, idx] = total
            return out
        if stopped:
            term *= ~done  # a stopped term is finite, so this zeroes it
        if 2 * stopped >= done.size and done.shape[1] >= _COMPACT_MIN:
            finished = done.all(axis=0)
            stop = np.flatnonzero(finished)
            if 2 * len(stop) >= len(finished):
                if idx is None:
                    out, idx = np.empty_like(total), np.arange(len(q))
                out[:, idx[stop]] = total[:, stop]
                run = np.flatnonzero(~finished)
                idx, q = idx.take(run), q.take(run)
                term, total, scale = (a.take(run, axis=1) for a in (term, total, scale))
    nu = min(nu for nu, ok in zip(orders, done.all(axis=1)) if not ok)
    raise ConvergenceError(f"ascending series for J_{nu} stalled after {_MAX_SERIES_TERMS} terms")


# ---------------------------------------------------------------------------
# regime 2: normalized downward recurrence (moderate z)
#
# The ascending series alternates with terms up to ~exp(z) times larger than
# the result, so past z ~ 12 it cannot deliver 1e-10 in double precision.
# The downward recurrence is stable and is normalized with
#     (z/2)^mu = sum_k (mu + 2k) Gamma(mu + k) / k! * J_{mu+2k}(z),
# which holds for non-integer mu and sidesteps the cancellation entirely.


# the downward recurrence's value at each point's start index
_MILLER_SEED = 1e-30


def _miller_start(z: np.ndarray) -> np.ndarray:
    # each point's start index, made even so that its normalization sum ends on y_0
    n = (z + 10.0 * np.sqrt(z) + 24.0).astype(int)
    n += n & 1
    return n


def _j_recurrence(orders, z: np.ndarray) -> np.ndarray:
    """J_nu, one row per nu in orders, for _SERIES_MAX < z <= _SWITCHOVER.

    Each ladder mu + n (mu = nu - floor(nu), 1/4 or 3/4) is a row of one
    downward recurrence, which gives every shift n >= 0; negative shifts
    extend below mu after normalization.  Each point starts at its own
    Miller index with y = _MILLER_SEED (y = 0 before it), so a value depends
    on its own z alone; |y| stays below 3e18 for z <= _SWITCHOVER (measured
    on 5000 points in (8, 20]), so it never needs rescaling.
    """
    shifts = [math.floor(nu) for nu in orders]
    mus = sorted({nu - n for nu, n in zip(orders, shifts)})
    mu = _column(mus)
    low = min(shifts)
    keep = {n for n in shifts if n >= 0} | ({0, 1} if low < 0 else set())
    starts = _miller_start(z)
    nstart = int(np.max(starts))
    # per step j, the columns mu + j + 1 and (mu + j) Gamma(mu + j/2)/(j/2)!
    coeff = [list(accumulate(range(1, nstart // 2 + 1), lambda c, k: c * (m + k - 1.0) / k,
                             initial=_gamma(m))) for m in mus]
    js = np.arange(nstart + 1)
    step = ((mu + js) + 1.0).T[:, :, None]
    weight = ((mu + js) * np.array(coeff)[:, js // 2]).T[:, :, None]
    # the points that start below nstart, by start index
    seeds = {n: np.flatnonzero(starts == n) for n in set(starts.tolist()) - {nstart}}
    inv_z2 = 2.0 / z
    y_up = np.zeros((len(mus), len(z)))
    y = y_up + np.where(starts == nstart, _MILLER_SEED, 0.0)
    norm = weight[nstart] * y
    saved = {}
    # always recurse down to j = 0: the normalization sum needs every even
    # index, whatever orders the caller keeps
    for j in range(nstart - 1, -1, -1):
        y_dn = step[j] * inv_z2
        y_dn *= y
        y_dn -= y_up
        y_up, y = y, y_dn
        if j in seeds:
            y[:, seeds[j]] = _MILLER_SEED
        if j % 2 == 0:
            norm += weight[j] * y
        if j in keep:
            saved[j] = y
    factor = np.array([(0.5 * z) ** m for m in mus]) / norm
    vals = {j: saved[j] * factor for j in saved}
    for n in range(-1, low - 1, -1):  # the order mu + n + 1 is exact
        vals[n] = (2.0 * (mu + n + 1) / z) * vals[n + 1] - vals[n + 2]
    return np.array([vals[n][mus.index(nu - n)] for nu, n in zip(orders, shifts)])


# ---------------------------------------------------------------------------
# regime 3: Hankel asymptotic expansion (large z)


def _below_ulp(term, p, q) -> bool:
    # every |term| <= spacing(min(|p|, |q|))/8, so p + term and q + term round to p and q
    return bool((np.abs(term) <= np.spacing(np.minimum(np.abs(p), np.abs(q))) / 8.0).all())


def _jy_asymptotic(orders, z: np.ndarray):
    """(J_nu, Y_nu), one row per nu in orders, from the large-argument expansion.

    Each element adds terms until they stop decreasing (superasymptotic
    truncation; the first neglected term bounds the error), and its later
    terms are zeroed.  The loop ends once every term is _below_ulp: each
    later term is smaller still, so p and q equal those of all 39 terms.
    """
    nu = _column(orders)
    mu4 = 4.0 * nu * nu
    p = np.ones((len(orders), len(z)))
    q, term, prev_mag = np.zeros_like(p), np.ones_like(p), np.full_like(p, np.inf)
    bad = np.zeros(p.shape, dtype=bool)  # stopped at a term above the target
    limit = 10.0 * _TARGET_REL_ERROR
    last = (int(np.argmax(mu4)), int(np.argmin(z)))  # as a rule, the last to settle
    for k in range(1, 40):
        term = term * (mu4 - (2 * k - 1) ** 2) / (k * 8.0 * z)
        mag = np.abs(term)
        stop = mag >= prev_mag
        if stop.any():
            bad |= stop & (mag > limit)
            term *= ~stop  # a stopped term that overflowed gives NaN, but is bad
        prev_mag = mag
        x = q if k % 2 else p  # x += term * (-1)^(k // 2); x - t is x + (-t) exactly
        (np.subtract if (k // 2) % 2 else np.add)(x, term, out=x)
        if (abs(term[last]) <= math.ulp(min(abs(p[last]), abs(q[last]))) / 8.0
                and _below_ulp(term, p, q)):
            # a term that would stop an element later is at most the step
            # ratio times this one: the error test decides as with 39 terms
            ratio = max((abs(m - (2 * i - 1) ** 2) / (8.0 * i * float(z[last[1]]))
                         for m in mu4.ravel().tolist() for i in range(k + 1, 40)), default=1.0)
            if float(np.max(np.abs(term))) * max(ratio, 1.0) <= limit:
                break
    bad |= np.abs(term) > limit
    if np.any(bad):
        row = bad[int(np.flatnonzero(bad.any(axis=1))[0])]
        raise ConvergenceError(
            f"asymptotic expansion cannot reach the target below z = {float(np.min(z[row])):.3g}")
    # cos and sin of omega = z - theta by the addition theorems, so that
    # libm reduces z itself exactly: the rounded z - theta is off by up to
    # ulp(z)/2 (3e-6 at z = 1e12) and has lost theta entirely by z = 1e17
    cos_t, sin_t = (_column([f((0.5 * v + 0.25) * math.pi) for v in orders])
                    for f in (math.cos, math.sin))
    cos_z, sin_z = np.cos(z), np.sin(z)
    c = cos_z * cos_t + sin_z * sin_t
    s = sin_z * cos_t - cos_z * sin_t
    amp = np.sqrt(2.0 / (math.pi * z))
    return amp * (p * c - q * s), amp * (p * s + q * c)


# ---------------------------------------------------------------------------
# one evaluator for every order a caller needs


def _orders(nu: float, k: int):
    # orders of the k-th derivative's order-shift combination, in its
    # coefficient order: C^(k)_nu = 2^-k sum_i (-1)^i binom(k, i) C_{nu - k + 2i}
    return [nu - k + 2 * i for i in range(k + 1)]


def _in_chunks(kernel, orders, z: np.ndarray, rows: int):
    # kernel(orders, z) on parts of at most _CHUNK // rows points, joined; if a part
    # fails to converge, one pass over all of z raises the error an unchunked pass would
    size = max(1, _CHUNK // rows)
    if len(z) <= size:
        return kernel(orders, z)
    try:
        parts = [kernel(orders, z[i:i + size]) for i in range(0, len(z), size)]
    except ConvergenceError:
        return kernel(orders, z)
    return np.concatenate(parts, axis=-1)


def _positions(mask: np.ndarray):
    # where mask holds, as a slice if contiguous (z in order): then no gather copies
    idx = np.flatnonzero(mask)
    if len(idx) and idx[-1] - idx[0] == len(idx) - 1:
        return slice(int(idx[0]), int(idx[-1]) + 1)
    return idx


def _jy(z: np.ndarray, wanted) -> list:
    """J_nu, Y_nu and their derivatives on one z array, sharing the work.

    wanted holds (kind, nu, k) triples: the k-th derivative (k = 0 for the
    value, else 1, 2 or 3) of J_nu for kind "J" or of Y_nu for kind "Y";
    one array per triple is returned, shaped like z.  One kernel pass per
    regime (_in_chunks) serves every order.  Y comes from J_{+-nu} by the
    connection formula below _SWITCHOVER and from Hankel's expansion above.
    """
    kept = sorted({order for _, nu, k in wanted for order in _orders(nu, k)})
    y_orders = sorted({order for kind, nu, k in wanted if kind == "Y" for order in _orders(nu, k)})
    # rows: the kept orders, then the J_{-nu} that Y needs below the switchover
    conv_orders = kept + sorted({-nu for nu in y_orders} - set(kept))
    row = {nu: i for i, nu in enumerate(conv_orders)}
    shape, z = z.shape, z.ravel()
    lo, mid, hi = (_positions(m) for m in (
        z <= _SERIES_MAX, (z > _SERIES_MAX) & (z <= _SWITCHOVER), z > _SWITCHOVER))
    jv = np.zeros((len(conv_orders), len(z)))
    zl, zm, zh = z[lo], z[mid], z[hi]
    if zl.size:
        jv[:, lo] = _in_chunks(_j_series, conv_orders, zl, len(conv_orders))
    if zm.size:  # at most two ladders
        jv[:, mid] = _in_chunks(_j_recurrence, conv_orders, zm, 2)
    # Y by the connection formula (the quarter orders are never integers, so
    # sin(pi nu) is bounded away from zero); above the switchover the Hankel
    # expansion overwrites it
    cosv = _column([math.cos(math.pi * round(4.0 * nu) / 4.0) for nu in y_orders])
    sinv = _column([_sinpi(round(4.0 * nu) / 4.0) for nu in y_orders])
    yv = (jv[[row[nu] for nu in y_orders]] * cosv - jv[[row[-nu] for nu in y_orders]]) / sinv
    if zh.size:
        jh, yh = _in_chunks(_jy_asymptotic, kept, zh, len(kept))
        jv[:len(kept), hi] = jh
        yv[:, hi] = yh[[kept.index(nu) for nu in y_orders]]
    values = {("J", nu): jv[row[nu]] for nu in kept}
    values.update((("Y", nu), yv[i]) for i, nu in enumerate(y_orders))
    results = []
    for kind, nu, k in wanted:
        if k == 0:
            results.append(values[kind, nu].reshape(shape))
            continue
        total = np.zeros_like(z)
        for i, order in enumerate(_orders(nu, k)):
            total += (-1.0) ** i * math.comb(k, i) * values[kind, order]
        results.append((total / 2.0**k).reshape(shape))
    return results


def _check_z(z) -> np.ndarray:
    arr = np.asarray(z, dtype=float)
    if np.any(~np.isfinite(arr)) or np.any(arr <= 0.0):
        raise DomainError("argument must be a positive real number")
    return arr


def _evaluate(z, wanted, combine=lambda vals: vals[0]):
    # combine(the _jy values) on the checked z; a float for a scalar z
    scalar = np.isscalar(z) or getattr(z, "ndim", 1) == 0
    out = combine(_jy(np.atleast_1d(_check_z(z)), wanted))
    return float(out[0]) if scalar else out


def bessel_j(nu: BesselOrder, z):
    """Bessel function of the first kind at a quarter order.

    Parameters
    ----------
    nu : BesselOrder
        Order, an odd multiple of 1/4 with |nu| <= 11/4.
    z : float or ndarray
        Argument(s), all > 0.
    """
    return _evaluate(z, [("J", nu.value, 0)])


def bessel_y(nu: BesselOrder, z):
    """Bessel function of the second kind at a quarter order.

    Computed from J_{+-nu} through the connection formula in the
    convergent regime and from the asymptotic expansion beyond the
    switchover.
    """
    return _evaluate(z, [("Y", nu.value, 0)])


def _deriv(kind: str, nu: BesselOrder, z, k: int):
    if k not in (1, 2, 3):
        raise DomainError("derivative order must be 1, 2 or 3")
    return _evaluate(z, [(kind, nu.value, k)])


def bessel_j_deriv(nu: BesselOrder, z, k: int):
    """k-th derivative of J_nu (k = 1, 2, 3) via the order recurrence."""
    return _deriv("J", nu, z, k)


def bessel_y_deriv(nu: BesselOrder, z, k: int):
    """k-th derivative of Y_nu (k = 1, 2, 3) via the order recurrence."""
    return _deriv("Y", nu, z, k)


def cross_product(z):
    """J_{-3/4}(z) Y_{1/4}(z) - J_{1/4}(z) Y_{-3/4}(z).

    Analytically equal to -2/(pi z); evaluated here from the four
    functions so the identity remains an independent check.
    """
    return _evaluate(z, [("J", -0.75, 0), ("J", 0.25, 0), ("Y", -0.75, 0), ("Y", 0.25, 0)],
                     lambda v: v[0] * v[3] - v[1] * v[2])
