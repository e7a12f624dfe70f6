import hashlib
import importlib
import inspect
import math
import pkgutil

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import madelung
from madelung import analysis, cli, core, specfun, verify
from madelung.errors import ConvergenceError, DomainError, PoleError
from madelung.specfun import (
    BesselOrder,
    bessel_j,
    bessel_j_deriv,
    bessel_y,
    bessel_y_deriv,
    cross_product,
    gamma,
)

import reference_values as ref

P14 = BesselOrder(1)
M34 = BesselOrder(-3)


def rel(a, b):
    return abs(a - b) / abs(b)


class TestBesselOrder:
    def test_normalization(self):
        assert BesselOrder(2, 8) == BesselOrder(1, 4)
        assert BesselOrder(-3).value == -0.75

    @pytest.mark.parametrize("num,den", [(4, 4), (2, 4), (0, 4), (13, 4), (-15, 4), (1, 3)])
    def test_rejects_non_quarter_orders(self, num, den):
        with pytest.raises(DomainError):
            BesselOrder(num, den)


class TestEvalAccuracy:
    """The accuracy is a set of specfun constants, not a record callers pass."""

    def test_defaults(self):
        assert specfun._TARGET_REL_ERROR == 1e-12
        assert specfun._SWITCHOVER == 20.0
        assert specfun._MAX_SERIES_TERMS == 200

    def test_only_specfun_takes_an_accuracy(self):
        # every field is evaluated at specfun's one accuracy: no function or
        # method of any madelung module, public or private, takes an acc
        def functions(mod):
            for _, obj in inspect.getmembers(mod):
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    yield obj
                elif inspect.isclass(obj):
                    yield from (f for _, f in inspect.getmembers(obj, inspect.isfunction)
                                if f.__module__ == mod.__name__)

        names = [info.name for info in pkgutil.iter_modules(madelung.__path__)]
        assert {"specfun", "core", "verify", "analysis", "cli"} <= set(names)
        mods = [importlib.import_module(f"madelung.{name}") for name in names]
        walked = [f for mod in mods for f in functions(mod)]
        assert len(walked) > 150
        assert [f"{f.__module__}.{f.__qualname__}" for f in walked
                if "acc" in inspect.signature(f).parameters] == []


class TestGamma:
    @pytest.mark.parametrize("x,expected", sorted(ref.GAMMA.items()))
    def test_reference_values(self, x, expected):
        assert rel(gamma(x), expected) < 1e-11

    def test_poles(self):
        for x in (0.0, -1.0, -7.0, -3.0 + 5e-15):
            with pytest.raises(PoleError):
                gamma(x)

    @given(st.floats(min_value=-4.9, max_value=4.9))
    @settings(max_examples=200, deadline=None)
    def test_reflection_identity(self, x):
        # Gamma(x) Gamma(1-x) = pi / sin(pi x) away from integers
        if abs(x - round(x)) < 1e-3:
            return
        lhs = gamma(x) * gamma(1.0 - x)
        rhs = math.pi / math.sin(math.pi * x)
        assert rel(lhs, rhs) < 1e-10


class TestBesselJ:
    @pytest.mark.parametrize("key,expected", sorted(ref.BESSEL_J.items()))
    def test_reference_values(self, key, expected):
        quarters, z = key
        assert rel(bessel_j(BesselOrder(quarters), z), expected) < 1e-10

    def test_small_argument_behavior(self):
        # (z/2)^nu leading order: positive order vanishes, negative diverges
        assert 0.0 < bessel_j(P14, 1e-10) < 1e-2
        assert bessel_j(M34, 1e-10) > 1e5

    def test_domain_error(self):
        for z in (0.0, -1.0, float("nan")):
            with pytest.raises(DomainError):
                bessel_j(P14, z)

    def test_deterministic_and_array_consistent(self):
        a = bessel_j(P14, 7.123456)
        b = bessel_j(P14, 7.123456)
        assert a == b
        arr = bessel_j(P14, np.array([7.123456, 15.0, 30.0]))
        assert arr[0] == a
        assert arr[1] == bessel_j(P14, 15.0)
        assert arr[2] == bessel_j(P14, 30.0)

    def test_regime_overlap_window(self):
        # convergent and asymptotic evaluations must agree where either
        # could be used; compare the two regime kernels on both sides of the switchover
        zs = np.linspace(15.0, 25.0, 101)
        (conv,) = specfun._j_recurrence([0.25], zs)
        (asym,), _ = specfun._jy_asymptotic([0.25], zs)
        envelope = np.sqrt(2.0 / (math.pi * zs))
        assert np.all(np.abs(conv - asym) <= 1e-9 * np.maximum(np.abs(conv), envelope))

    def test_asymptotic_cannot_reach_target_below_its_range(self):
        with pytest.raises(ConvergenceError, match=r"cannot reach the target below z = 6$"):
            specfun._jy_asymptotic([0.25], np.array([6.0]))
        # a request of the cross product's two orders names the smallest z that fails
        with pytest.raises(ConvergenceError, match=r"below z = 5\.5$"):
            specfun._jy_asymptotic([-0.75, 0.25], np.array([30.0, 7.0, 5.5, 6.0, 9.0]))

    def test_asymptotic_error_names_the_smallest_z_of_a_long_array(self):
        # longer than one stacked kernel pass; the smallest z comes last
        z = np.random.default_rng(0).permutation(np.geomspace(5.2, 400.0, 20000))
        with pytest.raises(ConvergenceError, match=r"below z = 5\.1$"):
            specfun._in_chunks(specfun._jy_asymptotic, [-0.75, 0.25], np.append(z, 5.1), 2)

    def test_series_stall_names_the_first_order(self, monkeypatch):
        monkeypatch.setattr(specfun, "_MAX_SERIES_TERMS", 10)
        with pytest.raises(ConvergenceError,
                           match=r"^ascending series for J_0\.25 stalled after 10 terms$"):
            bessel_j(P14, 7.9)
        # Y_{1/4} needs J_{-1/4} and J_{1/4}: the lowest order is named
        with pytest.raises(ConvergenceError, match=r"for J_-0\.25 stalled"):
            bessel_y(P14, 7.9)
        with pytest.raises(ConvergenceError, match=r"for J_-0\.75 stalled"):
            cross_product(np.array([2.0, 7.5, 6.0, 7.9]))

    def test_overflowing_leading_term_stops_at_once(self):
        # (z/2)^nu / Gamma(nu + 1) of J_{-9/4} at z = 1e-203 leaves the float
        # range: that element keeps the infinite value instead of stalling,
        # and every other element keeps its own bytes
        z = np.array([1e-203, 0.5])
        with np.errstate(over="ignore"):
            j = specfun._j_series([-2.25, 0.25], z)
        assert np.isinf(j[0, 0]) and np.isfinite(j[1, 0])
        assert j[:, 1].tobytes() == specfun._j_series([-2.25, 0.25], z[1:])[:, 0].tobytes()


class TestBesselY:
    @pytest.mark.parametrize("key,expected", sorted(ref.BESSEL_Y.items()))
    def test_reference_values(self, key, expected):
        quarters, z = key
        assert rel(bessel_y(BesselOrder(quarters), z), expected) < 1e-10

    def test_diverges_at_origin(self):
        assert bessel_y(P14, 1e-10) < -1e2

    def test_sign_above_first_zero(self):
        z0 = ref.FIRST_ZERO_Y14
        assert bessel_y(P14, z0 + 0.02) > 0.0
        assert bessel_y(P14, z0 - 0.02) < 0.0

    def test_domain_error(self):
        with pytest.raises(DomainError):
            bessel_y(P14, -2.0)


class TestDerivatives:
    def test_reference_values(self):
        assert rel(bessel_j_deriv(P14, 3.0, 1), ref.DJ14_3) < 1e-11
        assert rel(bessel_j_deriv(P14, 3.0, 2), ref.D2J14_3) < 1e-11
        assert rel(bessel_j_deriv(P14, 3.0, 3), ref.D3J14_3) < 1e-11
        assert rel(bessel_y_deriv(P14, 3.0, 1), ref.DY14_3) < 1e-11
        assert rel(bessel_j_deriv(P14, 1000.0, 1), ref.DJ14_1000) < 1e-10

    def test_order_shift_recurrence_at_3(self):
        # J'_nu = (J_{nu-1} - J_{nu+1})/2 against independent references
        lhs = ref.DJ14_3
        rhs = 0.5 * (ref.BESSEL_J[(-3, 3.0)] - ref.BESSEL_J[(5, 3.0)])
        assert rel(lhs, rhs) < 1e-12
        assert rel(bessel_j_deriv(P14, 3.0, 1), rhs) < 1e-12

    @pytest.mark.parametrize("z", [0.8, 3.0, 17.0, 1000.0])
    def test_first_derivative_matches_finite_difference(self, z):
        h = 1e-6 * z
        fd = (bessel_j(P14, z + h) - bessel_j(P14, z - h)) / (2 * h)
        assert abs(bessel_j_deriv(P14, z, 1) - fd) < 1e-8 * max(1.0, abs(fd)) + 1e-10

    @pytest.mark.parametrize("quarters", [1, -3])
    def test_derivatives_against_wide_stencils(self, quarters):
        # independent check of k = 2, 3 on a five-point stencil
        nu = BesselOrder(quarters)
        z, h = 5.0, 1e-3
        f = [bessel_j(nu, z + i * h) for i in (-2, -1, 0, 1, 2)]
        fd2 = (f[1] - 2 * f[2] + f[3]) / h**2
        fd3 = (f[4] - 2 * f[3] + 2 * f[1] - f[0]) / (2 * h**3)
        assert abs(bessel_j_deriv(nu, z, 2) - fd2) < 1e-6
        assert abs(bessel_j_deriv(nu, z, 3) - fd3) < 5e-6

    def test_bad_order(self):
        with pytest.raises(DomainError):
            bessel_j_deriv(P14, 1.0, 4)
        with pytest.raises(DomainError):
            bessel_y_deriv(P14, 0.0, 1)

    @pytest.mark.parametrize("fn", [bessel_j, bessel_y])
    @pytest.mark.parametrize("quarters", [1, -3])
    def test_three_term_recurrence_across_regimes(self, fn, quarters):
        # C_{nu-1} + C_{nu+1} = (2 nu / z) C_nu ties together orders that the
        # evaluator may compute through different internal regimes
        nu = BesselOrder(quarters)
        zs = np.geomspace(0.5, 5000.0, 400)
        below = fn(BesselOrder(quarters - 4), zs)
        above = fn(BesselOrder(quarters + 4), zs)
        center = fn(nu, zs)
        lhs = below + above
        rhs = 2.0 * nu.value / zs * center
        scale = np.maximum.reduce([np.abs(below), np.abs(above), np.abs(rhs)])
        mask = scale > 1e-8
        assert np.all(np.abs(lhs - rhs)[mask] <= 1e-11 * scale[mask])


class TestCrossProduct:
    def test_reference_points(self):
        assert rel(cross_product(2.0), -1.0 / math.pi) < 1e-12
        assert rel(cross_product(0.5), -4.0 / math.pi) < 1e-12

    def test_z_scaled_constant(self):
        vals = [z * cross_product(z) for z in (0.1, 1.0, 10.0, 100.0)]
        target = -2.0 / math.pi
        assert all(abs(v - target) <= 1e-10 * abs(target) for v in vals)

    @given(st.floats(min_value=-3.0, max_value=4.0))
    @settings(max_examples=150, deadline=None)
    def test_identity_everywhere(self, log10_z):
        z = 10.0**log10_z
        expected = -2.0 / (math.pi * z)
        assert abs(cross_product(z) - expected) <= 1e-10 * abs(expected)

    def test_domain_error(self):
        with pytest.raises(DomainError):
            cross_product(0.0)


# ---------------------------------------------------------------------------
# the shared evaluator against a per-order evaluation of each point alone


def _ref_j_series(nu, z):
    # the ascending series of a one-point array, summed until its term passes
    # the stopping test
    half = 0.5 * z
    term = half**nu / specfun._gamma(nu + 1.0)
    total = term.copy()
    scale = np.abs(term)
    q = -(half * half)
    for k in range(1, specfun._MAX_SERIES_TERMS + 1):
        term = term * q / (k * (nu + k))
        total += term
        np.maximum(scale, np.abs(total), out=scale)
        if np.all(np.abs(term) <= 1e-2 * specfun._TARGET_REL_ERROR * (scale + specfun._TINY)):
            return total
    raise AssertionError("reference series did not converge")


def _ref_j_downward(mu, j_lo, j_hi, z):
    # the normalized downward recurrence of a one-point array from its own
    # Miller start
    zmax = float(np.max(z))
    nstart = int(zmax + 10.0 * math.sqrt(zmax) + 24.0)
    nstart += nstart % 2
    coeff = [specfun._gamma(mu)]
    for k in range(1, nstart // 2 + 1):
        coeff.append(coeff[-1] * (mu + k - 1.0) / k)
    inv_z2 = 2.0 / z
    y_up = np.zeros_like(z)
    y = np.full_like(z, specfun._MILLER_SEED)
    norm = np.zeros_like(z)
    saved = {}
    if nstart % 2 == 0:
        norm += (mu + nstart) * coeff[nstart // 2] * y
    for j in range(nstart - 1, min(j_lo, 0) - 1, -1):
        y_dn = (mu + j + 1.0) * inv_z2 * y - y_up
        y_up = y
        y = y_dn
        if j >= 0 and j % 2 == 0:
            norm += (mu + j) * coeff[j // 2] * y
        if j_lo <= j <= j_hi:
            saved[j] = y
    factor = (0.5 * z) ** mu / norm
    return {j: saved[j] * factor for j in saved}


def _ref_j_recurrence(nu, z):
    shift = math.floor(nu)
    mu = nu - shift
    if shift >= 0:
        return _ref_j_downward(mu, shift, shift, z)[shift]
    vals = _ref_j_downward(mu, 0, 1, z)
    y_up, y = vals[1], vals[0]
    order = mu
    for _ in range(-shift):
        y_dn = (2.0 * order / z) * y - y_up
        y_up = y
        y = y_dn
        order -= 1.0
    return y


def _ref_jy_asymptotic(nu, z):
    # Hankel's expansion of one order: all 39 terms, each point frozen at
    # its first term that does not decrease
    mu4 = 4.0 * nu * nu
    p = np.ones_like(z)
    q = np.zeros_like(z)
    term = np.ones_like(z)
    prev_mag = np.full_like(z, np.inf)
    frozen = np.zeros(z.shape, dtype=bool)
    for k in range(1, 40):
        term = term * (mu4 - (2 * k - 1) ** 2) / (k * 8.0 * z)
        mag = np.abs(term)
        frozen |= mag >= prev_mag
        active = ~frozen
        if not np.any(active):
            break
        signed = term * (-1.0) ** ((k // 2) % 2)
        if k % 2:
            q[active] += signed[active]
        else:
            p[active] += signed[active]
        prev_mag = mag
    theta = (0.5 * nu + 0.25) * math.pi
    cos_z, sin_z = np.cos(z), np.sin(z)
    c = cos_z * math.cos(theta) + sin_z * math.sin(theta)
    s = sin_z * math.cos(theta) - cos_z * math.sin(theta)
    amp = np.sqrt(2.0 / (math.pi * z))
    return amp * (p * c - q * s), amp * (p * s + q * c)


_REF_POINTS = {}


def _ref_j_point(nu, zi):
    # J_nu at one z by the regime that z falls in, memoized: the tests ask
    # for the same orders on the same grids many times
    key = (nu, zi, specfun._TARGET_REL_ERROR)
    if key not in _REF_POINTS:
        z = np.array([zi])
        if zi <= specfun._SERIES_MAX:
            val = _ref_j_series(nu, z)
        elif zi <= specfun._SWITCHOVER:
            val = _ref_j_recurrence(nu, z)
        else:
            val = _ref_jy_asymptotic(nu, z)[0]
        _REF_POINTS[key] = val[0]
    return _REF_POINTS[key]


def _ref_j_array(nu, z):
    return np.array([_ref_j_point(nu, float(zi)) for zi in z])


def _ref_y_array(nu, z):
    out = np.empty_like(z)
    conv = z <= specfun._SWITCHOVER
    hi = ~conv
    if np.any(conv):
        zc = z[conv]
        jp = _ref_j_array(nu, zc)
        jm = _ref_j_array(-nu, zc)
        quarters = round(4.0 * nu)
        cosv = math.cos(math.pi * quarters / 4.0)
        sinv = specfun._sinpi(quarters / 4.0)
        out[conv] = (jp * cosv - jm) / sinv
    if np.any(hi):
        out[hi] = _ref_jy_asymptotic(nu, z[hi])[1]
    return out


def _ref_deriv_array(fn, nu, z, k):
    total = np.zeros_like(z)
    for j in range(k + 1):
        total += (-1.0) ** j * math.comb(k, j) * fn(nu - k + 2 * j, z)
    return total / 2.0**k


def _ref(kind, nu, z, k):
    fn = _ref_j_array if kind == "J" else _ref_y_array
    return fn(nu, z) if k == 0 else _ref_deriv_array(fn, nu, z, k)


def _bits(a):
    return np.asarray(a, dtype=float).tobytes()


QUARTERS = list(range(-11, 12, 2))
# z grids crossing the series/recurrence switch at 8 and the Hankel switch at 20
Z_CROSSING = np.concatenate([np.geomspace(0.05, 7.9, 35), [8.0, 8.0000001],
                             np.linspace(8.3, 19.9, 30), [20.0, 20.0000001],
                             np.geomspace(20.5, 900.0, 31)])


class TestSharedEvaluator:
    @pytest.mark.parametrize("quarters", QUARTERS)
    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_public_api_bit_equal_to_per_order_reference(self, quarters, k):
        nu = BesselOrder(quarters)
        for kind, public in (("J", (bessel_j, bessel_j_deriv)), ("Y", (bessel_y, bessel_y_deriv))):
            got = public[0](nu, Z_CROSSING) if k == 0 else public[1](nu, Z_CROSSING, k)
            assert _bits(got) == _bits(_ref(kind, nu.value, Z_CROSSING, k)), (kind, k)

    @pytest.mark.parametrize("shuffled", [False, True], ids=["default", "shuffled"])
    def test_one_request_for_every_order_bit_equal(self, shuffled):
        # all quarter orders and derivatives in one call share series terms,
        # ladders and Hankel expansions; each result must be unchanged, also
        # when each regime's points are scattered through the array
        z = np.concatenate([Z_CROSSING, np.linspace(150.0, 250.0, 9)])
        if shuffled:
            z = np.random.default_rng(2).permutation(z)
        wanted = [(kind, q / 4.0, k) for q in QUARTERS for k in range(4) for kind in "JY"]
        got = specfun._jy(z, wanted)
        for (kind, nu, k), val in zip(wanted, got):
            assert _bits(val) == _bits(_ref(kind, nu, z, k)), (kind, nu, k)

    @pytest.mark.parametrize("shuffled", [False, True], ids=["sorted", "shuffled"])
    @pytest.mark.parametrize("z_lo", [20.5, 1e3])
    def test_hankel_bit_equal_up_to_1e17(self, shuffled, z_lo, monkeypatch):
        # above z = 1e3 every term settles below an ulp of p and q within a
        # few terms, so the expansion stops early; it must still match the
        # reference's 39 terms bit for bit
        z = np.geomspace(z_lo, 1e17, 41)
        if shuffled:
            z = np.random.default_rng(1).permutation(z)
        exits = []
        real = specfun._below_ulp

        def spy(*args):
            exits.append(real(*args))
            return exits[-1]

        monkeypatch.setattr(specfun, "_below_ulp", spy)
        wanted = [(kind, q / 4.0, k) for q in QUARTERS for k in range(4) for kind in "JY"]
        got = specfun._jy(z, wanted)
        for (kind, nu, k), val in zip(wanted, got):
            assert _bits(val) == _bits(_ref(kind, nu, z, k)), (kind, nu, k)
        assert any(exits) == (z_lo == 1e3)

    def test_hankel_early_stop_keeps_the_error_test(self, monkeypatch):
        # a target below the terms at which p and q settle: the expansion
        # runs on instead of stopping early and failing the target
        monkeypatch.setattr(specfun, "_TARGET_REL_ERROR", 1e-24)
        z = np.geomspace(1e3, 1e17, 41)
        wanted = [(kind, q / 4.0, 3) for q in (-11, 11) for kind in "JY"]
        for (kind, nu, k), val in zip(wanted, specfun._jy(z, wanted)):
            assert _bits(val) == _bits(_ref(kind, nu, z, k)), (kind, nu, k)


class TestKernelCallCounts:
    """One pass per regime serves every order of a _jy request."""

    ONE_EACH = {"series": 1, "recurrence": 1, "hankel": 1}

    @pytest.fixture
    def calls(self, monkeypatch):
        counts = {"series": 0, "recurrence": 0, "hankel": 0}
        for name, key in (("_j_series", "series"), ("_j_recurrence", "recurrence"),
                          ("_jy_asymptotic", "hankel")):
            real = getattr(specfun, name)

            def spy(*args, _real=real, _key=key):
                counts[_key] += 1
                return _real(*args)

            monkeypatch.setattr(specfun, name, spy)
        return counts

    def test_one_w_evaluation(self, calls, consts):
        # J_{+-1/4} share the series and both ladders one recurrence
        core._w_bundle(Z_CROSSING, consts)
        assert calls == self.ONE_EACH

    def test_shape_derivatives_one_pass_per_regime(self, calls, params, consts):
        # fourteen orders: -11/4 .. 13/4 on the 1/4 ladder, and their negatives
        eta = np.sqrt(Z_CROSSING / (params.m / (4.0 * math.sqrt(2.0))))
        verify.shape_derivatives(eta, params, consts, upto=3)
        assert calls == self.ONE_EACH

    def test_every_order_in_one_request(self, calls):
        wanted = [(kind, q / 4.0, k) for q in QUARTERS for k in range(4) for kind in "JY"]
        specfun._jy(Z_CROSSING, wanted)
        assert calls == self.ONE_EACH


class TestAccuracyMap:
    """J, Y and derivatives 1-3 of the twelve quarter orders against oracles.

    The error of each value is measured relative to the envelope
    sqrt(J^(k)^2 + Y^(k)^2) of its order and derivative, and must stay
    within specfun's _TARGET_REL_ERROR.  The oracles give J and Y of every
    order the derivatives combine (nu - k + 2i), and the derivatives are
    formed from them by the order-shift sum.  scipy serves z up to 1e12;
    beyond that its phase reduction fails, and mpmath serves z = 1e13 to
    1e17.
    """

    WANTED = [(kind, q / 4.0, k) for q in QUARTERS for k in range(4) for kind in "JY"]
    ORDERS = sorted({nu - k + 2 * i for _, nu, k in WANTED for i in range(k + 1)})

    def check(self, z, jv, yv):
        # jv and yv map each order to J and Y on z
        got = specfun._jy(z, self.WANTED)
        for (kind, nu, k), val in zip(self.WANTED, got):
            shift = [(-1) ** i * math.comb(k, i) / 2**k for i in range(k + 1)]
            dj, dy = (np.array(sum(c * values[nu - k + 2 * i] for i, c in enumerate(shift)),
                               dtype=float) for values in (jv, yv))
            err = np.abs(val - (dj if kind == "J" else dy)) / np.hypot(dj, dy)
            worst = int(np.argmax(err))
            assert err[worst] <= specfun._TARGET_REL_ERROR, (kind, nu, k, z[worst])

    def test_dense_across_the_regime_switches(self):
        sp = pytest.importorskip("scipy.special")
        edges = np.array([8.0, 12.0, 20.0])
        z = np.concatenate([np.geomspace(1e-3, 7.0, 200), np.arange(7.0, 21.0, 5e-3),
                            edges, np.nextafter(edges, 0.0), np.nextafter(edges, 30.0),
                            np.geomspace(21.0, 1e12, 200)])
        self.check(z, {nu: sp.jv(nu, z) for nu in self.ORDERS},
                   {nu: sp.yv(nu, z) for nu in self.ORDERS})

    def test_large_arguments(self):
        mp = pytest.importorskip("mpmath")
        # 1.77e17 is z at eta = 1e9 for m = 1, d = 2
        z = np.array([1e13, 1e15, 1e17, float(core._z_arg(1e9, core.PhysicalParams(m=1.0)))])
        with mp.workdps(25):
            jv = {nu: np.array([mp.besselj(nu, mp.mpf(zi)) for zi in z]) for nu in self.ORDERS}
            yv = {nu: np.array([mp.bessely(nu, mp.mpf(zi)) for zi in z]) for nu in self.ORDERS}
            self.check(z, jv, yv)


class TestGoldenDigests:
    """Output bytes of CLI commands and library arrays.

    Every digest was captured again, with tests/oracle_dev/capture_digests.py,
    when each Bessel value became a function of its own z alone (per-point
    series stop and recurrence start, the series switch lowered from z = 12
    to 8, the Hankel phase by the addition theorems).  That change moved
    values at rounding level and was checked against scipy and mpmath, not
    by byte identity.  Every grid crosses both regime switches (z = 8 and
    z = 20).  Q, fig3, verify and four library entries were captured once
    more when w' took the one DLMF 10.6.2 form of core's w bundle and verify
    took its lab velocity from core; capture_digests.py --parent measures
    such moves against the parent checkout.  The stdout of both integrate
    entries moved when the verdict line took the fit line's b format, and
    that of qpotential --fd-step 0.01 when its all-excluded note changed;
    every CSV held.  The two large eval tables
    were captured before the CSV writer could split a table over forked
    workers, and hold on either path.  The pde and schrodinger entries and
    schrodinger_eq8 were captured on the code that evaluated each stencil
    set and each Gauss level by its own call, before those calls were
    stacked.  The three integrate CSVs were captured again when the
    quadrature moved from panels between refined zeros to fixed pi/2
    panels with a rounding floor: F moved by at most 12 ulp, err by its
    own estimate.  The three zeros CSVs were captured again when
    find_zeros moved from a sign-change scan to Newton on the Bessel phase:
    eta_star moved by at most 472 ulp, q_pole_eta by 475 ulp and the
    separation by 2.8e-14.  The digests hold for the
    numpy build they were captured with (numpy 2.4.6, x86-64): the Bessel
    kernels call numpy's cos, sin and power, whose last bit may differ on
    other builds.
    """

    # (argv, exit status, SHA-256 of the --output CSV, SHA-256 of stdout)
    CLI = [
        ('verify --which all', 3,
         "8f732431d5389b7606580d66eaca1ffac9d24ef4c0a1938ca51ea10753a2e97d",
         "67dbb07d028cd1b638a5f62101f7095320242f59a2e01feb4873d71f91ab5bae"),
        ('verify --which all --m 2 --c1 3 --c2 -1', 3,
         "c9348dd481868ddc62360fe4b2b104fd6424012acf5f02829ecf220f3c727d8a",
         "86e473012143ffbe09ccfd1d02fbbc35a8fac879a7e4f9697332565f7bbb5fe1"),
        ('zeros --range 0.1:40 --max-roots 10', 0,
         "9743b8c306d8e6e77df60c5c73aebb06e6f6bc54627099da90fee5ef1453e501",
         "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        ('zeros --range 0.1:300 --max-roots 1000', 0,
         "4eaa2de40635891b787b2708727f33f4f1600fbeb6d13f5ade5789ceeb1eead2",
         "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        ('zeros --range 0.1:300 --max-roots 1000 --m 0.5', 0,
         "f635aa313fdba0c244c5a996f747f8f347a9c840cf3f3c65455d88f4e25e288e",
         "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        ('integrate --limits 10,100,1000,1e4', 0,
         "da03412cad99de72909dffdca5678853a28c85898031c3bdcfb852b7ee9aac28",
         "9fb323159e443ff87083af920c5233c9cf80a8e396d36c4ddeee241879b95162"),
        ('integrate --limits 5,50,500 --m 2 --c1 3 --c2 -1', 0,
         "87b09e61765e650eea29098e8add674e86c3a50af9a99c34684dac248d570f38",
         "7534d09b5abca4c934374648abb8d627cb752defc534b6d87bbe7ea554ce88b2"),
        ('eval --field f --eta 0.1:20:3001:log', 0,
         "28f5ce29d2d1e2f81ab86e553cc52f35cb0becc663b9a7552d01ad1da5022444",
         "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        ('eval --field Q --eta 0.1:20:3001:log', 0,
         "02cf07084481036d9221336cc6543e458d530590b14bcb477fd960276430a489",
         "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        ('eval --field rho --x 0.2:12:400 --y 0.3 --t 0.5:2:3:log', 0,
         "eb092ec2fe0089f7abc3ba15d95092a3fddb8f8fb355355706ab3a6c712a1c1a",
         "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        ('eval --field psi_re --x 0.2:12:400 --y 0.3 --t 0.5:2:3:log', 0,
         "68df66e76c7d5c759a83f3387542ab75148683bb40c07591b24d83815ccd30b4",
         "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        ('figure fig3', 0,
         "fdadd421c353ee1dcb082cb86e4fb4990061b35ed24cbf84df27be280e5734ad",
         "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        ('figure fig3 --m 2 --c1 3 --c2 -1', 0,
         "d44d105a4e2515971443ec9581da551cb7fd7c4c7bd0e25f9b122d283edbaba9",
         "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        ('figure fig1', 0,
         "58abb1db3bb38d36cf482c66a7ed491347590542243b90e2b7d037bf4eecae25",
         "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        ('figure fig2', 0,
         "73bb8ae718f196719b8fe4cca3ad582c811161b646cd3b42c3cc7847a751a556",
         "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        ('figure fig2 --m 2 --c1 3 --c2 -1', 0,
         "535eb7205a0ee234f3a153dfd5ce5850029e782aa86aed7370a61e47cc6adbdd",
         "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        # a nonzero c0 reaches core's velocity split in every residual
        ('verify --which all --c0 0.25', 3,
         "0950f884c18b5603d3e080ea8849ac1dfa62809987c16103fc1ecaa7f52414c3",
         "422d7b3f9ec4f1a14ad112649557aaf584792d6d190853390fb4b46f02badff7"),
        # tables of at least 2 * cli.PARALLEL_MIN_CHUNKS chunks, which a host
        # with several CPUs writes from several processes (Q has its text column)
        ('eval --field Q --eta 0.01:40:100000:log', 0,
         "e4b9bf344d5564038ab217cb133b4f06098c9382b53cd1ca65121769d407d9c2",
         "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        ('eval --field f --eta 0.001:60:200000:log', 0,
         "7b32005c37ffbbca4bfea49f57b8a3b34ffc900823d3ee565d63c0b83a1d5232",
         "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        # d = 1 and d = 3: the Bessel argument and ode5 follow d, while the
        # velocity split and the lab frame are those of d = 2
        ('verify --which all --dim 1', 3,
         "1c971a739213f1a112cda5e457e0cc2438a6fbec49d3dff7501ac02d2de740bc",
         "d91f13bd328444117b59f50a6b9a0ccbc2de78fba14960a432169aa6dec2ebaa"),
        ('verify --which all --dim 3', 3,
         "6a5ea9446404016ff4ab89f5225cd0ba88ec76dccf4709dcaf4688995e0cd978",
         "d4fdcd92bc033a192f17f63c51055286ba8a27ddf795d20ee9011bb5e5cef334"),
        ('eval --field u --x 0.5:5:40 --y 0.2 --t 1:2:3 --dim 3', 0,
         "62640afae4ee592115a1f3805164f07b0ae9d1a87b060b19efd9224526342e90",
         "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        # the eq. 9 / direct-difference table; at --fd-step 0.01 every row
        # is excluded and blank
        ('verify --which qpotential', 0,
         "631416c81e30e8af21e67108c0f01af36fabdb1ef9c0019a4193901bb3dbca6a",
         "0ec3988ac4bd226f3b614714e6f12b4848d92e050d54d1d5789ad098afa21527"),
        ('verify --which qpotential --m 2 --c1 3 --c2 -1', 0,
         "ec5aa87576af6661e04f501f971fa7e59193e517602fccaf0c344b3bea809bf6",
         "d8d000615f9613c39357a2c6e7ca01433a72de6dfb52c8ca8a7ea32cc0933a30"),
        ('verify --which qpotential --fd-step 0.01', 0,
         "b3ece9f92c34cd72b6aa6a3f81a4d5765fef1ff4e6e3f6c62a9e5850f55f2a91",
         "de4a379e9504af064dfc0a369ab853e13d0c3fccdb2bd457d4e9956a0cd2054b"),
        # the batched stencils and Gauss levels: the lab residuals at the
        # step where truncation, not rounding, sets them, and an integrate
        # whose tolerance lies below every panel's rounding floor
        ('verify --which pde --fd-step 1e-3', 3,
         "7de04491d5418250b6c5779ad250a440a5da0d54d2e1ebca3a8b3fc5f8efe647",
         "8ba698b05e1456c2c7ccaac190433996c6d41160a791ec85b7f740014c09e54c"),
        ('verify --which schrodinger --fd-step 1e-3 --m 2 --c1 3 --c2 -1', 3,
         "3aad21e8d9d6bc9676292d68e7977c4bb34a545d8a07075c8a1f13d1b1115075",
         "7bc761f21acdca183781581f5017ff2b9677ee799556c3f99ab36e7a9b6f4afe"),
        ('integrate --limits 10,100 --tol 1e-14', 0,
         "b8b90c92521f26917f3974dc5cd8187c0ccb436112a1c367144b6e433f27bba0",
         "bdc77325855d3c532d8fb22e2d5ff3ec1ca7c62b7da38c2d1a12928c1ab6c793"),
    ]

    @pytest.mark.parametrize("argv,code,csv_sha,out_sha", CLI, ids=[c[0] for c in CLI])
    def test_cli_bytes(self, tmp_path, capsys, argv, code, csv_sha, out_sha):
        path = tmp_path / "out.csv"
        assert cli.main(argv.split() + ["--output", str(path)]) == code
        assert hashlib.sha256(path.read_bytes()).hexdigest() == csv_sha
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == out_sha

    LIBRARY = {
        "psi_eq8": "f721bbfff8ac6ca0983875656b4643c10dd41ae67ab3afcc3c937d1f94d1dd79",
        "psi_canonical": "c3327c371f94fa9669b837cb244fe36aed9a3899ef369ed644abc54097f195b6",
        "eq8_points": "038c40b8108681faad6071feaf6bb1bb5aa0b922f64aade69ecf52159c0f5683",
        "shape_derivatives3": "96d150d161092b2bd93bdd30b9e9a8c0404cebc946521fbc68bd9c14d612ee93",
        "zero_distance": "61d4de23f6dbaa1bde749ddd69792558783dac35eba216d0a0f8eda941b40fc8",
        "c_squared": "b401f5c490a0148036a39b885c7aeb9bd221ce1312586a5ccdfc14023429460b",
        "d_fn": "8ecf4f33cb3a44caf482ea06f65889b63861c84bc21b81bded003f38b7ea45cb",
        "q9_masked": "1bb66f99b735180e638a1a47ca8a4f7d3867c67108ce88f5ff5042d5ceec36ce",
        "schrodinger_eq8": "8df4f53dce83aa5c20c14de88ce74f3a2494b4f7fe3627b98658da3a12c516c0",
    }

    @staticmethod
    def library_arrays(name):
        p = core.PhysicalParams(m=1.0)
        c = core.SolutionConstants(c1=1.0, c2=1.0)
        c2 = core.SolutionConstants(c1=3.0, c2=-1.0)
        eta = np.geomspace(0.2, 40.0, 777)  # z from 7e-3 to 283
        x, y, t = np.meshgrid(np.linspace(0.1, 14.0, 97), [0.4], [0.5, 1.0, 1.7],
                              indexing="ij")
        z = core._z_arg(eta, p)
        if name == "psi_eq8":
            return [core._psi_eq8(x, y, t, p, c2)]
        if name == "psi_canonical":
            return [verify._psi_canonical(x, y, t, p, c)]
        if name == "eq8_points":
            xs = np.array([0.5, 3.0, 8.7, 9.5, 11.0, 25.0])
            return [core._psi_eq8(xs, np.array([0.3]), np.array([1.0]), p, c2)]
        if name == "shape_derivatives3":
            return verify.shape_derivatives(eta, p, c2, upto=3)
        if name == "zero_distance":
            return core._zero_distance(eta, p, c2)
        if name == "c_squared":
            return [analysis._c_fn(c2)(z) ** 2]
        if name == "d_fn":  # D = -w
            return [-core._w_bundle(z, c2)[0]]
        if name == "schrodinger_eq8":  # a psi= closure on the acceptance grid
            rep = verify.residual_schrodinger(
                verify.GridSpec(1.0, 5.0, 21), verify.GridSpec(1.0, 2.0, 7), p, c2,
                psi=lambda xx, yy, tt: core._psi_eq8(xx, yy, tt, p, c2))
            return [rep.points.values, [rep.max_abs, rep.max_rel, rep.extras["richardson_ratio"]]]
        return core.quantum_potential_eq9_masked(eta, p, c2)

    @pytest.mark.parametrize("name", list(LIBRARY))
    def test_library_bytes(self, name):
        digest = hashlib.sha256()
        for arr in self.library_arrays(name):
            digest.update(np.ascontiguousarray(np.asarray(arr)).tobytes())
        assert digest.hexdigest() == self.LIBRARY[name]
