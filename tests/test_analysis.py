import math
import os
import subprocess
import sys

import numpy as np
import pytest

from madelung import analysis, specfun
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

    def test_max_roots_zero_returns_every_zero(self, params, consts):
        # 0 is no cap: every zero of the range, where a cap above the count
        # finds the same ones
        rs = find_zeros((0.1, 30.0), params, consts, max_roots=0)
        assert len(rs.roots) == 51
        capped = find_zeros((0.1, 30.0), params, consts, max_roots=1000)
        assert np.allclose(rs.etas(), capped.etas(), rtol=0.0, atol=1e-12)
        for (eta, _), expected in zip(rs.roots, ref.ROOT_ETAS):
            assert abs(eta - expected) < 1e-9

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
        fn = analysis._c_fn(consts)
        # the scan as a single evaluation of the whole mesh
        mesh = analysis._scan_mesh(z_lo, z_hi)
        vals = fn(mesh)
        sign = np.sign(vals)
        idx = np.where((sign[:-1] * sign[1:] < 0) | (vals[:-1] == 0.0))[0][:max_brackets]
        b_lo, b_hi, sign_lo, start = analysis._bracket_zeros(fn, z_lo, z_hi, max_brackets)
        assert np.array_equal(b_lo, mesh[idx]) and np.array_equal(b_hi, mesh[idx + 1])
        assert np.array_equal(sign_lo, sign[idx])
        assert np.all((b_lo <= start) & (start < b_hi))
        assert max_brackets is None or len(b_lo) == max_brackets

    @pytest.mark.parametrize("z_lo,z_hi", [(1e-3, 0.5), (1e-9, 1.0), (0.01, 1.0), (0.2, 40.0),
                                           (2.0, 300.0), (1.5, 1.6)])
    def test_scan_mesh_equals_np_unique(self, z_lo, z_hi):
        # the geometric part below z = 1 ends on z_hi or on 1.0, which the
        # pi/4 steps may start from: repeats are dropped as np.unique does
        lo = max(z_lo, 1e-8)
        parts = [np.array([z_hi])]
        if lo < 1.0:
            parts.append(np.geomspace(lo, min(1.0, z_hi), 48))
        if max(lo, 1.0) < z_hi:
            parts.append(np.arange(max(lo, 1.0), z_hi, math.pi / 4.0))
        expected = np.unique(np.concatenate(parts))
        assert analysis._scan_mesh(z_lo, z_hi).tobytes() == expected.tobytes()

    def test_zeros_does_not_import_numpy_ma(self):
        # np.unique imports numpy.ma on its first call (~13 ms), which every
        # zeros subprocess would pay; a fresh interpreter shows the imports
        code = ("import contextlib, io, sys\n"
                "from madelung import cli\n"
                "with contextlib.redirect_stdout(io.StringIO()):\n"
                "    status = cli.main(['zeros'])\n"
                "print(status, 'numpy.ma' in sys.modules)")
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(analysis.__file__)))
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True)
        assert out.stdout.split() == ["0", "False"]

    @pytest.mark.parametrize("m,c1,c2", ACCEPTANCE_SETS)
    def test_first_roots_do_not_depend_on_the_cap(self, m, c1, c2):
        # every value of w depends on its own z alone, so each bracket is
        # refined the same way whatever other brackets share its evaluations
        params = PhysicalParams(m=m)
        consts = SolutionConstants(c1=c1, c2=c2)
        first = [(eta.hex(), w.hex())
                 for eta, w in find_zeros((0.1, 300.0), params, consts, max_roots=10).roots]
        assert len(first) == 10
        for cap in (3, 11, 1000, 0):
            roots = find_zeros((0.1, 300.0), params, consts, max_roots=cap).roots
            n = min(cap or 10, 10)
            assert [(eta.hex(), w.hex()) for eta, w in roots[:n]] == first[:n], cap

    def test_scan_stops_once_max_roots_are_bracketed(self, params, consts, monkeypatch):
        # the (0.1, 3000) eta range holds ~2e6 mesh points in z
        points = []
        real = analysis._c_fn

        def counting(consts):
            fn = real(consts)

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


def regula_falsi_reference(fn, lo, hi, width_tol):
    """Hybrid secant/bisection refinement of sign-change brackets (vectorized).

    The refinement that safeguarded Newton replaced, kept as its reference:
    every third step forces a midpoint split, so the bracket width shrinks
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


# the bracket sets that analyze refines: the zeros of the eta range
# (0.1, 300) with 10 and 1000 roots at a z-width of 1e-12, and the
# panel edges of integrate_density (every zero below z = 800) at 1e-10
BRACKET_SETS = {"zeros10": (10, 1e-12), "zeros1000": (1000, 1e-12), "edges": (None, 1e-10)}


def bracket_set(m, c1, c2, name):
    consts = SolutionConstants(c1=c1, c2=c2)
    max_roots, wtol = BRACKET_SETS[name]
    k = m / (4.0 * SQ2)
    z_lo, z_hi = (1e-8, analysis._TAIL_START) if max_roots is None else (
        k * 0.1**2, k * 300.0**2)
    fn = analysis._c_fn(consts)
    return consts, analysis._bracket_zeros(fn, z_lo, z_hi, max_roots), wtol


def counting_slope_fn(monkeypatch):
    """Patch analysis._newton_fn; returns one evaluation count per evaluator made."""
    counts = []
    real = analysis._newton_fn

    def counting(consts):
        fn = real(consts)
        counts.append(0)
        slot = len(counts) - 1

        def wrapped(z):
            counts[slot] += 1
            return fn(z)
        return wrapped

    monkeypatch.setattr(analysis, "_newton_fn", counting)
    return counts


class TestRefinement:
    @pytest.mark.parametrize("m,c1,c2", ACCEPTANCE_SETS)
    @pytest.mark.parametrize("name", sorted(BRACKET_SETS))
    def test_newton_matches_regula_falsi(self, m, c1, c2, name):
        consts, (b_lo, b_hi, sign_lo, start), wtol = bracket_set(m, c1, c2, name)
        c_fn = analysis._c_fn(consts)
        r_a, r_b = regula_falsi_reference(c_fn, b_lo, b_hi, wtol)
        z_a, z_b = analysis._refine_brackets(
            analysis._newton_fn(consts), b_lo, b_hi, sign_lo, start, wtol)
        assert np.all(np.abs(0.5 * (z_a + z_b) - 0.5 * (r_a + r_b)) <= 2.0 * wtol)
        assert np.all(z_b - z_a <= np.maximum(wtol, 2.0 * np.spacing(z_b)))
        f_a, f_b = np.split(c_fn(np.concatenate([z_a, z_b])), 2)
        assert np.all(f_a * f_b <= 0.0)

    @pytest.mark.parametrize("m,c1,c2", ACCEPTANCE_SETS)
    def test_evaluations_per_bracket_set(self, m, c1, c2, monkeypatch):
        # the regula-falsi reference needs 38-46 evaluations of w per set
        counts = counting_slope_fn(monkeypatch)
        params = PhysicalParams(m=m)
        consts = SolutionConstants(c1=c1, c2=c2)
        for max_roots in (10, 1000):
            rs = find_zeros((0.1, 300.0), params, consts, max_roots=max_roots)
            match_poles(rs, params, consts)
        integrate_density([10.0, 100.0, 1000.0, 10000.0], params, consts)
        assert len(counts) == 5
        assert all(1 <= n <= 8 for n in counts), counts

    def test_brackets_close_at_float_spacing(self, params, consts, monkeypatch):
        # z reaches ~3.1e4 here; above z = 4096 two float spacings exceed
        # the 1e-12 width tolerance, and such brackets close at that width
        # instead of running to the iteration cap
        counts = counting_slope_fn(monkeypatch)
        refined = []
        real = analysis._refine_brackets

        def recording(*args):
            refined.append((real(*args), args[-1]))
            return refined[-1][0]

        monkeypatch.setattr(analysis, "_refine_brackets", recording)
        rs = find_zeros((0.1, 1000.0), params, consts, max_roots=10_000)
        assert len(rs.roots) == 10_000
        [((z_a, z_b), wtol)] = refined
        assert np.count_nonzero(2.0 * np.spacing(z_b) > wtol) > 5000
        assert np.all(z_b - z_a <= np.maximum(wtol, 2.0 * np.spacing(z_b)))
        assert counts == [counts[0]] and counts[0] <= 8

    @pytest.mark.parametrize("m,c1,c2", ACCEPTANCE_SETS)
    def test_roots_against_mpmath(self, m, c1, c2):
        mpmath = pytest.importorskip("mpmath")
        params = PhysicalParams(m=m)
        rs = find_zeros((0.1, 300.0), params, SolutionConstants(c1=c1, c2=c2),
                        max_roots=1000)
        etas = rs.etas()
        with mpmath.workdps(30):
            k = mpmath.mpf(m) / (4 * mpmath.sqrt(2))

            def w(z):
                return c2 * mpmath.bessely(0.25, z) - c1 * mpmath.besselj(0.25, z)

            for eta in etas[::37]:
                z_ref = mpmath.findroot(w, k * mpmath.mpf(eta) ** 2)
                assert abs(eta - float(mpmath.sqrt(z_ref / k))) <= 1e-12


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

    def test_tail_ends_from_one_hankel_call(self, params, consts, monkeypatch):
        # the ten distinct tail boundaries of these limits (z = 800 and the
        # nine checkpoints above it) come from one call, bit-equal to
        # one-point calls
        calls = []
        real = analysis._tail_ends

        def spy(zs, *args):
            calls.append(zs)
            return real(zs, *args)

        monkeypatch.setattr(analysis, "_tail_ends", spy)
        integrate_density([10.0, 100.0, 1000.0, 10000.0], params, consts)
        [zs] = calls
        assert len(zs) == len(set(zs.tolist())) == 10 and zs[0] == analysis._TAIL_START
        ends = real(zs, consts)
        for z in zs.tolist():
            assert ends[z] == real(np.array([z]), consts)[z]

    def test_tail_ends_make_one_hankel_pass(self, consts, monkeypatch):
        # _tail_ends asks the evaluator, which above the default switchover
        # makes one pass of the Hankel kernel, bit-equal to calling it directly
        zs = np.array([analysis._TAIL_START, 1e3, 1e4, 1e5])
        passes = []
        real = specfun._jy_asymptotic

        def spy(orders, z, acc):
            passes.append(len(z))
            return real(orders, z, acc)

        monkeypatch.setattr(specfun, "_jy_asymptotic", spy)
        analysis._tail_ends(zs, consts)
        assert passes == [4]
        j, y = specfun._jy(zs, [("J", 0.25, 0), ("Y", 0.25, 0)], DEFAULT_ACCURACY)
        (jh,), (yh,) = real([0.25], zs, DEFAULT_ACCURACY)
        assert j.tobytes() == jh.tobytes() and y.tobytes() == yh.tobytes()

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

    def test_gauss_rule_is_leggauss_bit_for_bit(self):
        nodes, weights = np.polynomial.legendre.leggauss(10)
        assert analysis._GAUSS_NODES.tobytes() == nodes.tobytes()
        assert analysis._GAUSS_WEIGHTS.tobytes() == weights.tobytes()

    def test_integrate_does_not_import_numpy_polynomial(self):
        # leggauss would import numpy.polynomial (~4 ms, ~1.7 MB) in every
        # integrate subprocess; a fresh interpreter shows the imports
        code = ("import contextlib, io, sys\n"
                "from madelung import cli\n"
                "with contextlib.redirect_stdout(io.StringIO()):\n"
                "    status = cli.main(['integrate', '--limits', '10,100'])\n"
                "print(status, 'numpy.polynomial' in sys.modules)")
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(analysis.__file__)))
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True)
        assert out.stdout.split() == ["0", "False"]


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
