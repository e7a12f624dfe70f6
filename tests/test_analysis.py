import math

import numpy as np
import pytest

from madelung import analysis
from madelung.analysis import (
    QuadratureResult,
    RootSet,
    TailModel,
    figure_series,
    find_zeros,
    integrate_density,
    match_poles,
)
from madelung.core import PhysicalParams, SolutionConstants
from madelung.errors import DomainError, RangeTooNarrow
from madelung.specfun import DEFAULT_ACCURACY, BesselOrder, bessel_j, bessel_y
from madelung.verify import GridSpec

import reference_values as ref

SQ2 = math.sqrt(2.0)
# the five parameter sets (m, c1, c2) of the acceptance tests
ACCEPTANCE_SETS = ((1.0, 1.0, 1.0), (0.5, 1.0, 1.0), (1.0, 1.0, 0.0),
                   (1.0, 0.0, 1.0), (2.0, 3.0, -1.0))


class TestFindZeros:
    def test_first_twelve_roots(self, params, consts):
        rs = find_zeros((0.1, 30.0), params, consts, max_roots=12)
        assert len(rs.roots) == 12
        for (eta, width), expected in zip(rs.roots, ref.ROOT_ETAS):
            assert abs(eta - expected) < 1e-9
            assert width <= 1e-10

    def test_numerator_tiny_at_roots(self, params, consts):
        # refined roots drive the oscillating factor below 1e-10 of its
        # local envelope scale
        rs = find_zeros((0.1, 30.0), params, consts, max_roots=10)
        p14 = BesselOrder(1)
        for eta, _ in rs.roots:
            z = params.m * eta * eta / (4.0 * SQ2)
            num = consts.c2 * bessel_y(p14, z) - consts.c1 * bessel_j(p14, z)
            envelope = math.sqrt(2.0 / (math.pi * z)) * math.hypot(consts.c1, consts.c2)
            assert abs(num) <= 1e-10 * envelope

    def test_pole_denominator_vanishes_at_density_zeros(self, params, consts):
        # both loci live at the same Bessel argument z = m eta^2/(4 sqrt 2);
        # at each density zero the potential's bracket denominator is below
        # 1e-8 in absolute value
        p14 = BesselOrder(1)
        for eta in ref.ROOT_ETAS:
            z = params.m * eta * eta / (4.0 * SQ2)
            d = consts.c1 * bessel_j(p14, z) - consts.c2 * bessel_y(p14, z)
            assert abs(d) <= 1e-8

    def test_c2_zero_gives_j_zeros(self, params):
        rs = find_zeros((0.1, 10.0), params, SolutionConstants(c1=1.0, c2=0.0),
                        max_roots=1)
        z_first = params.m * rs.roots[0][0] ** 2 / (4.0 * SQ2)
        assert abs(z_first - ref.FIRST_ZERO_J14) < 1e-9

    def test_c1_zero_gives_y_zeros(self, params):
        rs = find_zeros((0.1, 10.0), params, SolutionConstants(c1=0.0, c2=1.0),
                        max_roots=1)
        z_first = params.m * rs.roots[0][0] ** 2 / (4.0 * SQ2)
        assert abs(z_first - ref.FIRST_ZERO_Y14) < 1e-9

    def test_range_too_narrow(self, params, consts):
        with pytest.raises(RangeTooNarrow):
            find_zeros((0.1, 1.0), params, consts, max_roots=3)
        assert find_zeros((0.1, 1.0), params, consts, max_roots=0).roots == ()

    def test_spacing_strictly_decreasing(self, params, consts):
        rs = find_zeros((0.1, 30.0), params, consts, max_roots=12)
        etas = rs.etas()
        spacings = np.diff(etas)
        assert np.all(np.diff(spacings) < 0.0)

    def test_bad_range(self, params, consts):
        with pytest.raises(DomainError):
            find_zeros((-1.0, 2.0), params, consts)
        with pytest.raises(DomainError):
            find_zeros((3.0, 2.0), params, consts)

    @pytest.mark.parametrize("m,c1,c2", ACCEPTANCE_SETS)
    @pytest.mark.parametrize("eta_hi,max_brackets", [(30.0, 1), (30.0, 10), (300.0, 10),
                                                     (300.0, 1000), (300.0, None)])
    def test_windowed_scan_equals_full_mesh_scan(self, m, c1, c2, eta_hi, max_brackets):
        params = PhysicalParams(m=m)
        consts = SolutionConstants(c1=c1, c2=c2)
        k = m / (4.0 * SQ2)
        z_lo, z_hi = k * 0.1**2, k * eta_hi**2
        fn = analysis._c_fn(consts, DEFAULT_ACCURACY)
        # the scan as a single evaluation of the whole mesh
        mesh = analysis._scan_mesh(z_lo, z_hi)
        vals = fn(mesh)
        sign = np.sign(vals)
        idx = np.where((sign[:-1] * sign[1:] < 0) | (vals[:-1] == 0.0))[0][:max_brackets]
        b_lo, b_hi = analysis._bracket_zeros(fn, z_lo, z_hi, max_brackets)
        assert np.array_equal(b_lo, mesh[idx]) and np.array_equal(b_hi, mesh[idx + 1])
        assert max_brackets is None or len(b_lo) == max_brackets

    def test_scan_stops_once_max_roots_are_bracketed(self, params, consts, monkeypatch):
        # the (0.1, 3000) eta range holds ~2e6 mesh points in z
        points = []
        real = analysis._c_fn

        def counting(consts, acc):
            fn = real(consts, acc)

            def wrapped(z):
                points.append(np.size(z))
                return fn(z)
            return wrapped

        monkeypatch.setattr(analysis, "_c_fn", counting)
        rs = find_zeros((0.1, 3000.0), params, consts, max_roots=10)
        for (eta, _), expected in zip(rs.roots, ref.ROOT_ETAS):
            assert abs(eta - expected) < 1e-9
        assert sum(points) < 2000


class TestMatchPoles:
    @pytest.mark.parametrize("m,c1,c2", [(1.0, 1.0, 1.0), (1.0, 2.0, 1.0),
                                         (0.5, 1.0, 3.0)])
    def test_every_zero_has_a_pole(self, m, c1, c2):
        params = PhysicalParams(m=m)
        consts = SolutionConstants(c1=c1, c2=c2)
        rs = find_zeros((0.1, 40.0), params, consts, max_roots=10)
        matched = match_poles(rs, params, consts)
        assert len(matched.matched_poles) == len(rs.roots)
        for _, _, sep in matched.matched_poles:
            assert sep <= 1e-8

    def test_first_zero_below_bracket_half_width(self):
        # the first zero sits at z ~ 0.136 < 0.25, where z_star - 0.25 < 0;
        # scipy's brentq on yv/jv puts it at eta = 0.6204456524027573
        params = PhysicalParams(m=2.0)
        consts = SolutionConstants(c1=3.0, c2=-1.0)
        rs = find_zeros((0.1, 30.0), params, consts, max_roots=10)
        matched = match_poles(rs, params, consts)
        eta = matched.matched_poles[0][0]
        z = params.m * eta * eta / (4.0 * SQ2)
        assert z < 0.25
        assert abs(eta - 0.62044565240) < 1e-9
        p14 = BesselOrder(1)
        num = consts.c2 * bessel_y(p14, z) - consts.c1 * bessel_j(p14, z)
        assert abs(num) <= 1e-10 * math.hypot(consts.c1, consts.c2)
        assert len(matched.matched_poles) == 10
        for _, _, sep in matched.matched_poles:
            assert sep <= 1e-6

    def test_empty_roots_rejected(self, params, consts):
        with pytest.raises(DomainError):
            match_poles(RootSet(()), params, consts)


class TestRootSetInvariants:
    def test_ordering_enforced(self):
        with pytest.raises(DomainError):
            RootSet(((2.0, 1e-12), (1.0, 1e-12)))

    def test_width_enforced(self):
        with pytest.raises(DomainError):
            RootSet(((1.0, 1e-3),))


class TestIntegrateDensity:
    def test_reference_partial_integrals(self, params, consts):
        limits = sorted(ref.F_INTEGRALS)
        result = integrate_density(limits, params, consts)
        for (h, f, err), h_ref in zip(result.partial_integrals, limits):
            assert h == h_ref
            assert abs(f - ref.F_INTEGRALS[h_ref]) < 1e-9
            assert err >= 0.0

    def test_nondecreasing(self, params, consts):
        result = integrate_density([10.0, 100.0, 1000.0, 10000.0], params, consts)
        fs = [p[1] for p in result.partial_integrals]
        assert all(b >= a for a, b in zip(fs, fs[1:]))

    def test_tolerance_halving_within_error(self, params, consts):
        limits = [10.0, 100.0, 1000.0, 10000.0]
        full = integrate_density(limits, params, consts, tol=1e-9)
        half = integrate_density(limits, params, consts, tol=0.5e-9)
        for (h1, f1, e1), (h2, f2, e2) in zip(full.partial_integrals,
                                              half.partial_integrals):
            assert abs(f1 - f2) < e1

    def test_tail_is_logarithmic_with_envelope_slope(self, params, consts):
        result = integrate_density([10.0, 100.0, 1000.0, 10000.0], params, consts)
        tm = result.tail_model
        assert tm.kind == "logarithmic"
        assert abs(tm.log_coefficient - ref.ENVELOPE_B) < 1e-3
        assert tm.log_rms < tm.conv_rms
        assert "finite" in result.verdict_note

    def test_arch_integrals_follow_envelope(self, params, consts):
        # mean of f over an arch times arch width behaves like b * d(ln eta):
        # the integral over arch n approaches b * ln(eta_{n+1}/eta_n)
        rs = find_zeros((0.1, 30.0), params, consts, max_roots=12)
        etas = rs.etas()[-5:]
        result = integrate_density(list(etas), params, consts)
        fs = [p[1] for p in result.partial_integrals]
        for i in range(len(fs) - 1):
            arch = fs[i + 1] - fs[i]
            predicted = ref.ENVELOPE_B * math.log(etas[i + 1] / etas[i])
            assert abs(arch - predicted) / predicted < 0.02

    def test_input_validation(self, params, consts):
        with pytest.raises(DomainError):
            integrate_density([], params, consts)
        with pytest.raises(DomainError):
            integrate_density([1.0, 1.0], params, consts)
        with pytest.raises(DomainError):
            integrate_density([-1.0, 2.0], params, consts)

    def test_other_parameters(self):
        # slope scales as (c1^2 + c2^2)/m
        params = PhysicalParams(m=0.5)
        consts = SolutionConstants(c1=2.0, c2=-1.0)
        result = integrate_density([100.0, 1000.0, 10000.0], params, consts)
        fs = [p[1] for p in result.partial_integrals]
        slope = (fs[2] - fs[1]) / math.log(10.0)
        predicted = math.pi * SQ2 * (2.0**2 + 1.0**2) / (16.0 * 0.5)
        assert abs(slope - predicted) / predicted < 1e-3


class TestFigureSeries:
    def test_fig1_columns_and_positivity(self, params, consts):
        series = figure_series("fig1", params, consts)
        assert series.names == ("eta", "f_m1", "f_m0p5")
        assert np.all(series.column("f_m1") >= 0.0)
        assert np.all(series.column("f_m0p5") >= 0.0)

    def test_fig1_curves_oscillate_against_their_envelope(self, params, consts):
        series = figure_series("fig1", params, consts,
                               grid=GridSpec(0.1, 12.0, 2000))
        f = series.column("f_m1")
        eta = series.column("eta")
        # count deep dips of eta -> f(eta): each density zero pulls the
        # curve to zero while neighbors stay at the envelope scale
        dips = 0
        for i in range(1, len(f) - 1):
            if f[i] < f[i - 1] and f[i] < f[i + 1] and f[i] < 1e-3:
                dips += 1
        assert dips >= 4

    def test_fig2_oscillations_stretch_with_time(self, params, consts):
        series = figure_series("fig2", params, consts)
        x = series.column("x")
        t = series.column("t")
        re = series.column("re_psi")
        t_small = t == np.min(t)
        t_large = t == np.max(t)

        def crossings(mask):
            vals = re[mask]
            return int(np.count_nonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0))

        assert crossings(t_small) > crossings(t_large)

    def test_fig3_quantum_potential_blows_up_near_zeros(self, params, consts):
        eta0 = ref.ROOT_ETAS[0]
        grid = GridSpec(eta0 - 0.5, eta0 + 0.5, 500)  # even: no point on the pole
        series = figure_series("fig3", params, consts, grid=grid)
        q = series.column("Q")
        f = series.column("f")
        closest = int(np.argmin(np.abs(series.column("eta") - eta0)))
        assert not np.isnan(q[closest])
        assert np.abs(q[closest]) > 1e3 * np.abs(q[0])
        assert f[closest] < 1e-4

    def test_fig3_masks_points_inside_exclusion_radius(self, params, consts):
        eta0 = ref.ROOT_ETAS[0]
        grid = GridSpec(eta0 - 0.5, eta0 + 0.5, 501)  # odd: midpoint hits the pole
        series = figure_series("fig3", params, consts, grid=grid)
        q = series.column("Q")
        closest = int(np.argmin(np.abs(series.column("eta") - eta0)))
        assert np.isnan(q[closest])

    def test_unknown_figure(self, params, consts):
        with pytest.raises(DomainError):
            figure_series("fig9", params, consts)


class TestQuadratureResultInvariants:
    def test_ordering(self):
        tm = TailModel("undetermined", 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
        with pytest.raises(DomainError):
            QuadratureResult(((2.0, 1.0, 0.0), (1.0, 1.0, 0.0)), tm, "")
        with pytest.raises(DomainError):
            QuadratureResult(((1.0, 1.0, -1.0),), tm, "")
