"""Adaptive Runge-Kutta marches of the shape equations, oracles of the closed form.

The density shape f = (pi^2/64) eta w(z)^2, z = k eta^2, is analytic; these
marches integrate its differential equations numerically from closed-form
initial data, so a test can compare the two.  One Dormand-Prince 5(4)
stepper serves both:

* ode5, 2 f'' f - (f')^2 + m^2 eta^2 f^2/(d hbar^2) = 0, which is singular
  where f = 0, so its march stops at the first density zero;
* Weber's form y'' + q eta^2 y = 0 with q = m^2/(4 d hbar^2) = 4 k^2
  (Lommel's transformation, DLMF 10.13), solved by
  y = (pi/8) sqrt(eta) w(k eta^2), so y^2 = f.  It is regular at the
  zeros, and its march runs through them.

Not collected by pytest (the name does not start with test_).
"""

import math

import numpy as np

from madelung.core import _w_bundle, _z_arg
from madelung.errors import DomainError
from madelung.series import SampleSeries
from madelung.verify import shape_derivatives

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


class StiffnessError(Exception):
    """Adaptive step size underflowed the hard floor."""


class ZeroCrossing(Exception):
    """The ode5 march reached a zero of the density shape function.

    The partial trajectory accumulated before the crossing is attached
    as the ``series`` attribute.
    """

    def __init__(self, message, series):
        super().__init__(message)
        self.series = series


def dp54(rhs, eta0, y0, eta1, tol=1e-10, stage_ok=None):
    """Yield (eta, y) at eta0 and after each accepted step of a march to eta1.

    An embedded Dormand-Prince 5(4) pair under PI step-size control, with
    an RMS error norm scaled by 1e-14 + tol max(|y|, |y_new|).  A step is
    halved when its error is not finite, or when stage_ok, if given,
    rejects one of its stage states.  Raises StiffnessError if the step
    size underflows.
    """
    eta = eta0
    y = np.array(y0, dtype=float)
    yield eta, y
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
            if stage_ok is not None and not stage_ok(yi):
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
            yield eta, y
            fac = 0.9 * err ** -0.14 * err_prev ** 0.08 if err > 0 else 5.0
            err_prev = max(err, 1e-10)
            h *= min(5.0, max(0.2, fac))
        else:
            h *= max(0.2, 0.9 * err ** -0.2)


def _series(names, rows):
    return SampleSeries.from_columns(
        [(name, [r[i] for r in rows]) for i, name in enumerate(names)])


def ode5_march(eta0, state, eta1, params, tol=1e-10):
    """March f'' = ((f')^2 - m^2 eta^2 f^2/(d hbar^2)) / (2 f) from (f, f') at eta0.

    Stages must keep f positive.  Returns the accepted (eta, f, f_prime)
    samples; raises ZeroCrossing, with the samples so far attached, when
    f drops below 1e-12.
    """
    msq = params.m**2 / (params.dimension * params.hbar**2)

    def rhs(eta, y):
        f, fp = y
        return np.array([fp, (fp * fp - msq * eta * eta * f * f) / (2.0 * f)])

    names = ("eta", "f", "f_prime")
    rows = []
    for eta, y in dp54(rhs, eta0, state, eta1, tol, stage_ok=lambda y: y[0] > 0.0):
        rows.append((eta, y[0], y[1]))
        if y[0] < _ZERO_FLOOR:
            raise ZeroCrossing(f"f crossed zero near eta = {eta!r}", _series(names, rows))
    return _series(names, rows)


def ode5_oracle_march(eta0, eta1, params, consts, tol=1e-10):
    """ode5_march from the closed-form (f, f') at eta0, which must not be a zero."""
    if not (eta0 > 0 and eta1 > eta0):
        raise DomainError("need 0 < eta0 < eta1")
    f0, f1 = (float(v[0]) for v in shape_derivatives(
        np.array([eta0]), params, consts, upto=1))
    if f0 <= 1e-10:
        raise DomainError("eta0 is too close to a density zero")
    if not (math.isfinite(f0) and math.isfinite(f1)):
        raise DomainError("state must be finite")
    return ode5_march(eta0, (f0, f1), eta1, params, tol)


def weber_oracle_march(eta0, eta1, params, consts, tol=1e-10):
    """March y'' = -q eta^2 y from y = (pi/8) sqrt(eta) w(k eta^2) and y' at eta0.

    Returns the accepted (eta, y, y_prime) samples; y^2 is the density shape.
    """
    kconst = params.k
    q = 4.0 * kconst * kconst
    w, w1 = (float(v[0]) for v in _w_bundle(_z_arg(np.array([eta0]), params), consts, upto=1))
    root = math.sqrt(eta0)
    y0 = math.pi / 8.0 * root * w
    y1 = math.pi / 8.0 * (w / (2.0 * root) + 2.0 * kconst * eta0 * root * w1)

    def rhs(eta, y):
        return np.array([y[1], -q * eta * eta * y[0]])

    rows = [(eta, y[0], y[1]) for eta, y in dp54(rhs, eta0, (y0, y1), eta1, tol)]
    return _series(("eta", "y", "y_prime"), rows)
