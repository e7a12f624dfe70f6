import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from madelung import analysis, cli, core, specfun, verify
from madelung.errors import ConvergenceError, DomainError, PoleError
from madelung.specfun import (
    DEFAULT_ACCURACY,
    BesselOrder,
    EvalAccuracy,
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
        assert BesselOrder(1).shifted(2) == BesselOrder(9)

    @pytest.mark.parametrize("num,den", [(4, 4), (2, 4), (0, 4), (13, 4), (-15, 4), (1, 3)])
    def test_rejects_non_quarter_orders(self, num, den):
        with pytest.raises(DomainError):
            BesselOrder(num, den)


class TestEvalAccuracy:
    def test_defaults(self):
        acc = EvalAccuracy()
        assert acc.target_rel_error == 1e-12
        assert acc.series_switchover == 20.0
        assert acc.max_series_terms == 200

    @pytest.mark.parametrize("kwargs", [
        {"target_rel_error": 0.0},
        {"series_switchover": -1.0},
        {"max_series_terms": 9},
    ])
    def test_invariants(self, kwargs):
        with pytest.raises(DomainError):
            EvalAccuracy(**kwargs)


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
        # could be used; compare them by moving the switchover
        zs = np.linspace(15.0, 25.0, 101)
        conv = bessel_j(P14, zs, EvalAccuracy(series_switchover=30.0))
        asym = bessel_j(P14, zs, EvalAccuracy(series_switchover=10.0))
        envelope = np.sqrt(2.0 / (math.pi * zs))
        assert np.all(np.abs(conv - asym) <= 1e-9 * np.maximum(np.abs(conv), envelope))

    def test_asymptotic_cannot_reach_target_below_its_range(self):
        with pytest.raises(ConvergenceError):
            bessel_j(P14, 6.0, EvalAccuracy(series_switchover=5.0))


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
        below = fn(nu.shifted(-1), zs)
        above = fn(nu.shifted(1), zs)
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
# the shared evaluator against the per-order evaluation it replaced


def _ref_j_downward(mu, j_lo, j_hi, z):
    zmax = float(np.max(z))
    nstart = int(zmax + 10.0 * math.sqrt(zmax) + 24.0)
    nstart += nstart % 2
    coeff = [specfun._gamma(mu)]
    for k in range(1, nstart // 2 + 1):
        coeff.append(coeff[-1] * (mu + k - 1.0) / k)
    inv_z2 = 2.0 / z
    y_up = np.zeros_like(z)
    y = np.full_like(z, 1e-30)
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
        big = np.max(np.abs(y))
        if big > 1e250:
            y *= 1e-250
            y_up *= 1e-250
            norm *= 1e-250
            for key in saved:
                saved[key] = saved[key] * 1e-250
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


def _ref_j_array(nu, z, acc):
    out = np.empty_like(z)
    cut = min(specfun._SERIES_MAX, acc.series_switchover)
    lo = z <= cut
    mid = (z > cut) & (z <= acc.series_switchover)
    hi = z > acc.series_switchover
    if np.any(lo):
        out[lo] = specfun._j_series(nu, z[lo], acc)
    if np.any(mid):
        out[mid] = _ref_j_recurrence(nu, z[mid])
    if np.any(hi):
        out[hi] = specfun._jy_asymptotic(nu, z[hi], acc)[0]
    return out


def _ref_y_array(nu, z, acc):
    out = np.empty_like(z)
    conv = z <= acc.series_switchover
    hi = ~conv
    if np.any(conv):
        zc = z[conv]
        jp = _ref_j_array(nu, zc, acc)
        jm = _ref_j_array(-nu, zc, acc)
        quarters = round(4.0 * nu)
        cosv = math.cos(math.pi * quarters / 4.0)
        sinv = specfun._sinpi(quarters / 4.0)
        out[conv] = (jp * cosv - jm) / sinv
    if np.any(hi):
        out[hi] = specfun._jy_asymptotic(nu, z[hi], acc)[1]
    return out


def _ref_deriv_array(fn, nu, z, k, acc):
    total = np.zeros_like(z)
    for j in range(k + 1):
        total += (-1.0) ** j * math.comb(k, j) * fn(nu - k + 2 * j, z, acc)
    return total / 2.0**k


def _ref(kind, nu, z, k, acc):
    fn = _ref_j_array if kind == "J" else _ref_y_array
    return fn(nu, z, acc) if k == 0 else _ref_deriv_array(fn, nu, z, k, acc)


def _bits(a):
    return np.asarray(a, dtype=float).tobytes()


QUARTERS = list(range(-11, 12, 2))
# z grids crossing the series/recurrence switch at 12 and the Hankel switch at 20
Z_CROSSING = np.concatenate([np.geomspace(0.05, 11.9, 37), [12.0, 12.0000001],
                             np.linspace(12.3, 19.9, 23), [20.0, 20.0000001],
                             np.geomspace(20.5, 900.0, 31)])


class TestSharedEvaluator:
    @pytest.mark.parametrize("quarters", QUARTERS)
    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_public_api_bit_equal_to_per_order_reference(self, quarters, k):
        nu = BesselOrder(quarters)
        acc = DEFAULT_ACCURACY
        for kind, public in (("J", (bessel_j, bessel_j_deriv)), ("Y", (bessel_y, bessel_y_deriv))):
            got = public[0](nu, Z_CROSSING) if k == 0 else public[1](nu, Z_CROSSING, k)
            assert _bits(got) == _bits(_ref(kind, nu.value, Z_CROSSING, k, acc)), (kind, k)

    @pytest.mark.parametrize("acc", [DEFAULT_ACCURACY, EvalAccuracy(series_switchover=200.0)],
                             ids=["default", "switchover200"])
    def test_one_request_for_every_order_bit_equal(self, acc):
        # all quarter orders and derivatives in one call share series terms,
        # ladders and Hankel expansions; each result must be unchanged
        z = np.concatenate([Z_CROSSING, np.linspace(150.0, 250.0, 9)])
        wanted = [(kind, q / 4.0, k) for q in QUARTERS for k in range(4) for kind in "JY"]
        got = specfun._jy(z, wanted, acc)
        for (kind, nu, k), val in zip(wanted, got):
            assert _bits(val) == _bits(_ref(kind, nu, z, k, acc)), (kind, nu, k)

    def test_rescale_branch_runs_on_the_reference_iterations(self, monkeypatch):
        # with the switchover at 200 the recurrence starts near n = 365 and
        # passes 1e250, so the rescale path must run and still match
        acc = EvalAccuracy(series_switchover=200.0)
        z = np.linspace(12.5, 200.0, 61)
        seen = []
        real = specfun._abs_max

        def spy(a):
            seen.append(real(a))
            return seen[-1]

        monkeypatch.setattr(specfun, "_abs_max", spy)
        got = specfun._jy(z, [("J", 0.25, 0), ("Y", -0.75, 0), ("J", 0.25, 3)], acc)
        assert any(v > 1e250 for v in seen)
        # the running bound spares the exact maximum on most steps
        nstart = int(200.0 + 10.0 * math.sqrt(200.0) + 24.0)
        assert len(seen) < nstart
        for val, (kind, nu, k) in zip(got, [("J", 0.25, 0), ("Y", -0.75, 0), ("J", 0.25, 3)]):
            assert _bits(val) == _bits(_ref(kind, nu, z, k, acc))


class TestKernelCallCounts:
    @pytest.fixture
    def calls(self, monkeypatch):
        counts = {"series": 0, "downward": 0, "hankel": 0}
        for name, key in (("_j_series", "series"), ("_j_downward", "downward"),
                          ("_jy_asymptotic", "hankel")):
            real = getattr(specfun, name)

            def spy(*args, _real=real, _key=key):
                counts[_key] += 1
                return _real(*args)

            monkeypatch.setattr(specfun, name, spy)
        return counts

    def test_one_w_evaluation(self, calls, consts):
        core._numerator_factor(Z_CROSSING, consts, DEFAULT_ACCURACY)
        # J_{1/4} and J_{-1/4} by series, one recurrence per ladder, and
        # one Hankel expansion giving J_{1/4} and Y_{1/4} together
        assert calls == {"series": 2, "downward": 2, "hankel": 1}

    def test_shape_derivatives_one_recurrence_per_ladder(self, calls, params, consts):
        eta = np.sqrt(Z_CROSSING / (params.m / (4.0 * math.sqrt(2.0))))
        verify.shape_derivatives(eta, params, consts, upto=3)
        assert calls["downward"] <= 2
        # seven orders -11/4 .. 13/4 on the 1/4 ladder, and their negatives
        assert calls["series"] == 14
        assert calls["hankel"] == 7


class TestGoldenDigests:
    """Output bytes captured from the per-order evaluator before the shared one.

    Every grid crosses both regime switches (z = 12 and z = 20).  The
    digests hold for the numpy build they were captured with (numpy 2.4.6,
    x86-64): the Bessel kernels call numpy's cos, sin and power, whose last
    bit may differ on other builds.
    """

    # (argv, exit status, SHA-256 of the --output CSV, SHA-256 of stdout)
    CLI = [
        ('verify --which all', 3,
         "2ddaf41778d3c2f2fda49beefdfe75055ca18083359cce5daef9eadca4489344",
         "8feea0813c46ee25825c6fb5c53c687c211f41b3487d650671a1cce5c09d9391"),
        ('verify --which all --m 2 --c1 3 --c2 -1', 3,
         "ecca0d7d4b7ed9854653b0aad748da5c033fa676d2a72687ac6024282de0647f",
         "e3c92028920d2e6ccecf59293a7bc42c744c0adec0dfc80274858d916dee245f"),
        ('zeros --range 0.1:40 --max-roots 10', 0,
         "657baac7bb7488c2038eeba26f824c7698e4ff91ca6497fddbc1c6a903a95b43",
         "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        ('zeros --range 0.1:300 --max-roots 1000', 0,
         "fcbb5ab08089529757203823d167ddc9f5de7f2a94361c2137583eb8b7096580",
         "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        ('zeros --range 0.1:300 --max-roots 1000 --m 0.5', 0,
         "980b94906c48067bfadf2e1fdeec2fcceefc5d3eff410357e90da0c543100ce4",
         "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        ('integrate --limits 10,100,1000,1e4', 0,
         "103ad7c22cc3be4b103126769b2dad7bf83df8ebf736df17ba2b8a0053e4aee9",
         "a91a60c63da55ef9319ea47169e7631c383106d3074588da522f82464b36d1d9"),
        ('integrate --limits 5,50,500 --m 2 --c1 3 --c2 -1', 0,
         "60cd02059bc72edbcb52b1c05a4e6dafc873a3905d466eae6afd8564ddd211b8",
         "14c93c6bfdc7d561a5f59c724ee63ff68c7fc1febc908658e90630e7bed7ace2"),
        ('eval --field f --eta 0.1:20:3001:log', 0,
         "7737baf6658028b31d64527483955c1691ed0cb72c5281f52b52604aacf8aa6c",
         "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        ('eval --field Q --eta 0.1:20:3001:log', 0,
         "033a6cf90c3b4156c7795cc51fde85e4c0128a9cfc9a638bd597df27d565866c",
         "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        ('eval --field rho --x 0.2:12:400 --y 0.3 --t 0.5:2:3:log', 0,
         "b7bd46ea01c5684deb3e73956d784981ac54c18f4c5723b0c5c648cb85f4dbb4",
         "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        ('eval --field psi_re --x 0.2:12:400 --y 0.3 --t 0.5:2:3:log', 0,
         "66ddb53e101ce3354c1f61b2f00dfb1bbee5c21c02e28dd2530d893c2a65690c",
         "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        ('figure fig3', 0,
         "0c9e756331e77d0efb73a43a2a46bd98cbc0ff88217038e781bd7d5e0ca2c93e",
         "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        ('figure fig3 --m 2 --c1 3 --c2 -1', 0,
         "ff572bad45a3dc977f73cf656abeab251deb6dac94505c2d0787ba48a76044d1",
         "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ]

    @pytest.mark.parametrize("argv,code,csv_sha,out_sha", CLI, ids=[c[0] for c in CLI])
    def test_cli_bytes(self, tmp_path, capsys, argv, code, csv_sha, out_sha):
        path = tmp_path / "out.csv"
        assert cli.main(argv.split() + ["--output", str(path)]) == code
        assert hashlib.sha256(path.read_bytes()).hexdigest() == csv_sha
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == out_sha

    LIBRARY = {
        "psi_eq8": "6b358d87fe8d8d692917d65709f9a7eea77eff7d4c2a86487079d6bba3044d3b",
        "psi_canonical": "4979877d199ae272d26284ab414a6b69928d1928d363c2d9b1749a22b7c2c63f",
        "eq8_points": "de0be8512503624a8ee74c42ff2fa77f05a0949c7b971f6e52b84371db1aac9e",
        "shape_derivatives3": "d884deb48d0ce8d39b3ff242917167988507a076de2e2c1a76d54293d33ce83b",
        "zero_distance": "16b4f16e54174d180b0a6ff5a7f35b9d753add55f4964853ed26cba31ef829ea",
        "c_squared": "1c390836c008cc5f4dbd494632142b0de737c8213c122c318d0646eb7b969964",
        "d_fn": "14b0c015f938cb75af287921fd2d6e8c0ef7a0b32c189b43caf61d9d0e19ca21",
        "q9_masked": "e7175933c85d7b815b9a751c0cc088006922eb32ed566ff8180d9987d2241dfd",
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
            return [verify._psi_arr(x, y, t, p, c2, DEFAULT_ACCURACY, True)]
        if name == "psi_canonical":
            return [verify._psi_arr(x, y, t, p, c, DEFAULT_ACCURACY, False)]
        if name == "eq8_points":
            return [[core.wavefunction_eq8(core.LabPoint(s, 0.3, 1.0), p, c2).as_complex()
                     for s in (0.5, 3.0, 8.7, 9.5, 11.0, 25.0)]]
        if name == "shape_derivatives3":
            return verify.shape_derivatives(eta, p, c2, upto=3)
        if name == "zero_distance":
            return verify._zero_distance(eta, p, c2, DEFAULT_ACCURACY)
        if name == "c_squared":
            return [analysis._c_squared(z, c2, DEFAULT_ACCURACY)]
        if name == "d_fn":
            return [analysis._d_fn(c2, DEFAULT_ACCURACY)(z)]
        return core.quantum_potential_eq9_masked(eta, p, c2)

    @pytest.mark.parametrize("name", list(LIBRARY))
    def test_library_bytes(self, name):
        digest = hashlib.sha256()
        for arr in self.library_arrays(name):
            digest.update(np.ascontiguousarray(np.asarray(arr)).tobytes())
        assert digest.hexdigest() == self.LIBRARY[name]
