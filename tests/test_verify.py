import numpy as np
import pytest

from madelung import core, verify
from madelung.core import PhysicalParams, SolutionConstants, lab_field, simplified_shape_density
from madelung.errors import DomainError
from madelung.verify import (
    GridSpec,
    ResidualReport,
    quantum_potential_direct,
    residual_ode5,
    residual_ode_system4,
    residual_pde_lab,
    residual_phase_gradient,
    residual_schrodinger,
    shape_derivatives,
)

import reference_values as ref
from rk_oracle import ZeroCrossing, ode5_march, ode5_oracle_march, weber_oracle_march

SPACE = GridSpec(1.0, 5.0, 21)
TIME = GridSpec(1.0, 2.0, 7)


class TestGridSpec:
    def test_points(self):
        g = GridSpec(1.0, 2.0, 5)
        assert np.allclose(g.points(), [1.0, 1.25, 1.5, 1.75, 2.0])
        lg = GridSpec(1.0, 100.0, 3, "log")
        assert np.allclose(lg.points(), [1.0, 10.0, 100.0])

    @pytest.mark.parametrize("kwargs", [
        {"start": 2.0, "stop": 1.0, "count": 5},
        {"start": 1.0, "stop": 2.0, "count": 1},
        {"start": 1.0, "stop": 2.0, "count": 5, "spacing": "cubic"},
        {"start": -1.0, "stop": 2.0, "count": 5, "spacing": "log"},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(DomainError):
            GridSpec(**kwargs)


class TestShapeDerivatives:
    def test_against_finite_differences(self, params, consts):
        eta = 1.7

        def f(e):
            return simplified_shape_density(e, params, consts)

        vals = shape_derivatives(np.array([eta]), params, consts, upto=3)
        h1 = 1e-6
        fd1 = (f(eta + h1) - f(eta - h1)) / (2 * h1)
        h2 = 1e-4
        fd2 = (f(eta + h2) - 2 * f(eta) + f(eta - h2)) / h2**2
        h3 = 1e-3
        fd3 = (f(eta + 2 * h3) - 2 * f(eta + h3) + 2 * f(eta - h3) - f(eta - 2 * h3)) / (2 * h3**3)
        assert abs(vals[0][0] - f(eta)) < 1e-13
        assert abs(vals[1][0] - fd1) / abs(fd1) < 1e-8
        assert abs(vals[2][0] - fd2) / abs(fd2) < 1e-6
        assert abs(vals[3][0] - fd3) / abs(fd3) < 1e-5


class TestResidualOde5:
    GRID = GridSpec(0.1, 50.0, 2000, "log")

    @pytest.mark.parametrize("m,c1,c2", [(1.0, 1.0, 1.0), (2.0, 3.0, -1.0)])
    def test_back_substitution(self, m, c1, c2):
        rep = residual_ode5(self.GRID, PhysicalParams(m=m),
                            SolutionConstants(c1=c1, c2=c2))
        assert rep.equation_id == "ode5"
        assert rep.max_rel <= 1e-8

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_dimension_factor(self, dim, consts):
        # the closed form with the rescaled argument must satisfy the
        # d-dependent equation in every supported dimension
        rep = residual_ode5(self.GRID, PhysicalParams(m=1.0, dimension=dim), consts)
        assert rep.max_rel <= 1e-8

    def test_mass_doubling(self, consts):
        rep = residual_ode5(self.GRID, PhysicalParams(m=2.0), consts)
        assert rep.max_rel <= 1e-8

    def test_trivial_solution_rejected(self):
        with pytest.raises(DomainError):
            SolutionConstants(c1=0.0, c2=0.0)

    def test_grid_domain(self, params, consts):
        with pytest.raises(DomainError):
            residual_ode5(GridSpec(-1.0, 1.0, 10), params, consts)


class TestResidualSystem4:
    GRID = GridSpec(0.1, 50.0, 2000, "log")

    def test_continuity_cancels_identically(self, params, consts):
        rep = residual_ode_system4(self.GRID, params, consts)
        assert rep.extras["continuity_max_abs"] <= 1e-12

    def test_momentum_back_substitution(self, params, consts):
        rep = residual_ode_system4(self.GRID, params, consts)
        assert rep.extras["momentum_max_rel"] <= 1e-6

    def test_g_and_h_equations_identical(self, params, consts):
        rep = residual_ode_system4(self.GRID, params, consts)
        g = rep.points.column("momentum_g")
        h = rep.points.column("momentum_h")
        assert np.array_equal(g, h, equal_nan=True)

    def test_nonzero_c0_breaks_continuity_by_half_c0_fprime(self, params):
        # with g + h = (eta - c0)/2 the continuity residual is -c0 f'/2
        c0 = 0.8
        consts = SolutionConstants(c1=1.0, c2=1.0, c0=c0)
        grid = GridSpec(0.5, 2.5, 9)
        rep = residual_ode_system4(grid, params, consts)
        _, f1 = shape_derivatives(grid.points(), params, consts, upto=1)
        expected = -0.5 * c0 * f1
        assert np.allclose(rep.points.column("continuity"), expected,
                           rtol=1e-10, atol=1e-14)


class TestResidualPdeLab:
    def test_continuity_within_budget(self, params, consts):
        cont, _, _ = residual_pde_lab(SPACE, TIME, params, consts, fd_step=1e-4)
        assert cont.max_rel <= 1e-5
        assert cont.extras["richardson_ratio_continuity"] >= 3.0

    def test_euler_residual_matches_closed_form(self, params, consts):
        # the fields violate the lab-frame momentum equation by exactly
        # (x+y)/(8 t^2); the finite differences must reproduce that
        _, ex, _ = residual_pde_lab(SPACE, TIME, params, consts, fd_step=1e-4)
        x = ex.points.column("x")
        y = ex.points.column("y")
        t = ex.points.column("t")
        res = ex.points.column("residual")
        ok = ~np.isnan(res)
        predicted = (x + y) / (8.0 * t * t)
        assert np.max(np.abs(res[ok] - predicted[ok]) / predicted[ok]) < 5e-3

    def test_euler_components_equal(self, params, consts):
        _, ex, ey = residual_pde_lab(SPACE, TIME, params, consts)
        assert np.array_equal(ex.points.column("residual"),
                              ey.points.column("residual"), equal_nan=True)

    def test_stencil_domain_guard(self, params, consts):
        with pytest.raises(DomainError):
            residual_pde_lab(GridSpec(0.001, 1.0, 5), TIME, params, consts,
                             fd_step=0.01)


class TestResidualSchrodinger:
    def test_residual_matches_analytic_defect(self, params, consts):
        # for psi = sqrt(rho) e^{iS} the residual of the printed equation is
        # psi * (-5/4 m^2 s^2/t^2 + i 3/2 (m/t)(1 + eta f'/f)); the finite
        # differences must land on it
        rep = residual_schrodinger(SPACE, TIME, params, consts, fd_step=1e-4)
        x = rep.points.column("x")
        y = rep.points.column("y")
        t = rep.points.column("t")
        res = rep.points.column("residual_abs")
        ok = ~np.isnan(res)
        s = x + y
        eta = s / np.sqrt(t)
        f, f1 = shape_derivatives(eta, params, consts, upto=1)
        amp = np.sqrt(simplified_shape_density(eta, params, consts) / np.sqrt(t))
        pred = amp * np.hypot(-1.25 * s * s / (t * t),
                              1.5 / t * (1.0 + eta * f1 / f))
        dev = np.abs(res[ok] - pred[ok]) / np.abs(pred[ok])
        assert np.max(dev) < 1e-3

    def test_relative_residual_is_order_one(self, params, consts):
        rep = residual_schrodinger(SPACE, TIME, params, consts)
        assert 0.1 < rep.max_rel <= 1.0

    def test_eq8_comparative_run(self, params, consts):
        # the literally transcribed wave function, passed as a custom psi
        def psi(x, y, t):
            return core._psi_eq8(x, y, t, params, consts)

        rep = residual_schrodinger(SPACE, TIME, params, consts, psi=psi)
        assert rep.extras["wavefunction"] == "custom"
        assert rep.max_rel > 1e-4  # recorded, also far from solving the equation

    @staticmethod
    def _propagator(params, sign):
        # free propagator t^(-1/2) e^(sign i m s^2/(4 hbar t)); the harness
        # evaluates the time-reversed form, solved by the sign -1 member
        def psi(x, y, t):
            s = x + y
            return t**-0.5 * np.exp(sign * 1j * params.m * s * s
                                    / (4.0 * params.hbar * t))
        return psi

    def test_conjugated_propagator_passes(self, params, consts):
        rep = residual_schrodinger(SPACE, TIME, params, consts, fd_step=1e-3,
                                   psi=self._propagator(params, -1))
        assert rep.extras["wavefunction"] == "custom"
        # the exclusion mask is still the paper's, whatever psi is
        canonical = residual_schrodinger(SPACE, TIME, params, consts, fd_step=1e-3)
        assert rep.excluded_points == canonical.excluded_points > 0
        np.testing.assert_array_equal(np.isnan(rep.points.column("rel")),
                                      np.isnan(canonical.points.column("rel")))
        assert rep.max_rel <= 1e-5
        assert 3.5 <= rep.extras["richardson_ratio"] <= 4.5

    def test_unconjugated_propagator_fails(self, params, consts):
        rep = residual_schrodinger(SPACE, TIME, params, consts, fd_step=1e-3,
                                   psi=self._propagator(params, +1))
        assert rep.max_rel > 0.1

    def test_psi_none_is_the_default_path(self, params, consts):
        default = residual_schrodinger(SPACE, TIME, params, consts)
        explicit = residual_schrodinger(SPACE, TIME, params, consts, psi=None)
        assert explicit.extras == default.extras
        for name in ("x", "y", "t", "residual_abs", "rel"):
            np.testing.assert_array_equal(explicit.points.column(name),
                                          default.points.column(name))


class TestLabExclusionOnce:
    """Both fd_step passes of a lab report share one mesh, so one mask."""

    @pytest.mark.parametrize("residual", [residual_pde_lab, residual_schrodinger])
    def test_zero_distance_called_once(self, monkeypatch, params, consts, residual):
        calls = []
        real = verify._zero_distance

        def spy(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(verify, "_zero_distance", spy)
        reports = residual(SPACE, TIME, params, consts)
        assert len(calls) == 1
        excluded = reports[0] if isinstance(reports, tuple) else reports
        assert excluded.excluded_points > 0


class TestResidualPhaseGradient:
    def test_example_point(self, params, consts):
        rep = residual_phase_gradient(GridSpec(1.9, 2.1, 3), GridSpec(0.9, 1.1, 3),
                                      params, consts)
        x = rep.points.column("x")
        y = rep.points.column("y")
        t = rep.points.column("t")
        res = rep.points.column("residual_x")
        i = int(np.argmin(np.abs(x + y - 2.0) + np.abs(t - 1.0)))
        assert abs(res[i] - (-0.5)) < 1e-12

    def test_residual_scales_like_s_over_t(self, params, consts):
        rep = residual_phase_gradient(SPACE, TIME, params, consts)
        x = rep.points.column("x")
        y = rep.points.column("y")
        t = rep.points.column("t")
        assert np.allclose(rep.points.column("residual_x"),
                           -(x + y) / (4.0 * t), rtol=1e-13)

    @pytest.mark.parametrize("c0", [0.0, 0.25, -0.3])
    def test_velocity_is_core_lab_field(self, params, c0):
        # the report's u is core's lab u to the bit; res = u - (x+y)/(2t) is
        # exact, since the two terms lie within a factor of two of each other
        consts = SolutionConstants(c1=1.0, c2=1.0, c0=c0)
        rep = residual_phase_gradient(SPACE, TIME, params, consts)
        x, y, t = (rep.points.column(n) for n in ("x", "y", "t"))
        u = lab_field("u", x, y, t, params, consts)
        assert np.array_equal(rep.points.column("residual_x"), u - (x + y) / (2.0 * t))

    def test_components_equal_and_ratio_two(self, params, consts):
        rep = residual_phase_gradient(SPACE, TIME, params, consts)
        assert np.array_equal(rep.points.column("residual_x"),
                              rep.points.column("residual_y"))
        assert rep.extras["gradient_over_velocity_mean"] == pytest.approx(2.0, abs=1e-12)


class TestOdeOracleMarch:
    def test_first_arch_tracks_closed_form(self, params, consts):
        series = ode5_oracle_march(0.5, ref.ROOT_ETAS[0] - 0.05, params, consts,
                                   tol=1e-10)
        etas = series.column("eta")
        f_num = series.column("f")
        f_ref = simplified_shape_density(etas, params, consts)
        assert np.max(np.abs(f_num - f_ref)) / np.max(np.abs(f_ref)) <= 1e-6

    def test_restart_on_second_arch(self, params, consts):
        series = ode5_oracle_march(ref.ROOT_ETAS[0] + 0.05,
                                   ref.ROOT_ETAS[1] - 0.05, params, consts,
                                   tol=1e-10)
        etas = series.column("eta")
        f_num = series.column("f")
        f_ref = simplified_shape_density(etas, params, consts)
        assert np.max(np.abs(f_num - f_ref)) / np.max(np.abs(f_ref)) <= 1e-6

    def test_zero_crossing_raised_with_partial_series(self, params, consts):
        with pytest.raises(ZeroCrossing) as err:
            ode5_oracle_march(0.5, ref.ROOT_ETAS[0] + 0.2, params, consts, tol=1e-10)
        series = err.value.series
        assert series is not None
        assert series.column("eta")[-1] == pytest.approx(ref.ROOT_ETAS[0], abs=1e-3)

    def test_perturbed_slope_departs(self, params, consts):
        # integrating with a 1e-3 perturbed initial slope must leave the
        # closed-form trajectory by far more than the unperturbed march's
        # own error (sensitivity sanity check, no absolute tolerance)
        f0, f1 = (float(v[0]) for v in shape_derivatives(
            np.array([0.5]), params, consts, upto=1))

        def end_deviation(slope):
            series = ode5_march(0.5, (f0, slope), 2.5, params, tol=1e-10)
            assert series.column("eta")[-1] == pytest.approx(2.5, abs=1e-12)
            return abs(series.column("f")[-1] - simplified_shape_density(2.5, params, consts))

        clean_dev = end_deviation(f1)
        perturbed_dev = end_deviation(f1 * 1.001)
        assert perturbed_dev > 100.0 * max(clean_dev, 1e-12)

    def test_bad_start_rejected(self, params, consts):
        with pytest.raises(DomainError):
            ode5_oracle_march(ref.ROOT_ETAS[0], ref.ROOT_ETAS[0] + 1.0,
                              params, consts)
        with pytest.raises(DomainError):
            ode5_oracle_march(2.0, 1.0, params, consts)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nonfinite_start_rejected(self, params):
        # c1 = c2 = 1e200: f = (pi^2/64) eta w^2 overflows at eta0
        with pytest.raises(DomainError, match="state must be finite"):
            ode5_oracle_march(0.5, 1.0, params, SolutionConstants(c1=1e200, c2=1e200))


class TestWeberOracleMarch:
    # y'' + q eta^2 y = 0 is regular at the density zeros, so one march from
    # y = (pi/8) sqrt(eta) w(k eta^2) runs through all of them below eta = 30
    # (71, 51 and 41 at d = 1, 2, 3); y^2 must stay on f at every step
    @pytest.mark.parametrize("d,zeros", [(1, 70), (2, 50), (3, 40)])
    def test_square_tracks_closed_form_through_zeros(self, consts, d, zeros):
        params = PhysicalParams(m=1.0, dimension=d)
        series = weber_oracle_march(0.5, 30.0, params, consts, tol=1e-10)
        y = series.column("y")
        f = simplified_shape_density(series.column("eta"), params, consts)
        assert np.count_nonzero(np.diff(np.sign(y)) != 0) >= zeros
        assert np.max(np.abs(y * y - f)) / np.max(f) <= 1e-10


class TestQuantumPotentialDirect:
    @staticmethod
    def kept_value(eta, params, consts):
        q, excluded = quantum_potential_direct(eta, params, consts)
        assert q.shape == excluded.shape == (1,)
        assert not excluded[0]
        return float(q[0])

    @pytest.mark.parametrize("eta", [1.0, 2.0, 2.5])
    def test_equals_minus_eta_over_eight(self, params, consts, eta):
        # the exact reduction of the quantum force for these fields is
        # -eta/(4 d); nested finite differences must land on it
        val = self.kept_value(eta, params, consts)
        assert abs(val - (-eta / 8.0)) / (eta / 8.0) < 1e-5

    def test_dimension_scaling(self, consts):
        val = self.kept_value(1.0, PhysicalParams(m=1.0, dimension=3), consts)
        assert abs(val - (-1.0 / 12.0)) / (1.0 / 12.0) < 1e-5

    def test_hbar_squared_prefactor(self, params, consts):
        # with the shape pinned to the hbar = 1 reference, the direct value
        # scales as hbar^2 through its prefactor
        h = 3e-4
        h1 = 1e-2
        eta = 1.0
        pts = np.array([eta - h1 - h, eta - h1, eta - h1 + h,
                        eta + h1 - h, eta + h1, eta + h1 + h])
        rootf = np.sqrt(simplified_shape_density(pts, params, consts))
        wm = (rootf[0] - 2*rootf[1] + rootf[2]) / (h*h) / rootf[1]
        wp = (rootf[3] - 2*rootf[4] + rootf[5]) / (h*h) / rootf[4]
        w_prime = (wp - wm) / (2 * h1)

        def with_prefactor(hbar):
            return hbar**2 / (2.0 * params.m**2) * w_prime

        assert with_prefactor(2.0) == pytest.approx(4.0 * with_prefactor(1.0))

    def test_mass_comparative_run(self, consts):
        # documented comparative run: the product of prefactor and shape
        # derivative stays on -eta/8 when the mass changes
        for m in (0.5, 2.0):
            val = self.kept_value(1.0, PhysicalParams(m=m), consts)
            assert abs(val - (-0.125)) / 0.125 < 1e-4

    def test_ratio_to_eq9_documented(self, params, consts):
        from madelung.core import quantum_potential_eq9_masked

        ratio = quantum_potential_eq9_masked(1.0, params, consts)[0][0] / self.kept_value(
            1.0, params, consts)
        # measured systematic discrepancy; the band holds at c1 = c2 = 1 only,
        # since eq. 9 scales as 1/lambda when (c1, c2) scale by lambda and
        # the direct value does not (test_core.py, README)
        assert 0.58 < ratio < 0.64

    def test_singularity_guard(self, params, consts):
        q, excluded = quantum_potential_direct(ref.ROOT_ETAS[0] + 0.005, params, consts)
        assert excluded.tolist() == [True]
        assert np.isnan(q[0])

    def test_array_equals_pointwise(self, params, consts):
        # one array call gives each point's one-point value, bit for bit; the
        # point near the first zero and the point whose stencil leaves
        # eta > 0 are masked
        etas = np.array([0.005, 1.0, ref.ROOT_ETAS[0] + 0.005, 2.0, 2.5])
        q, excluded = quantum_potential_direct(etas, params, consts)
        assert excluded.tolist() == [True, False, True, False, False]
        for eta, got, masked in zip(etas, q, excluded):
            one, one_excluded = quantum_potential_direct(eta, params, consts)
            assert one_excluded[0] == masked
            assert np.isnan(got) if masked else got.hex() == one[0].hex()


@pytest.mark.parametrize("fd_step", [0.0, -1e-4, np.nan, np.inf])
@pytest.mark.parametrize("call", [
    lambda p, c, h: residual_pde_lab(SPACE, TIME, p, c, fd_step=h),
    lambda p, c, h: residual_schrodinger(SPACE, TIME, p, c, fd_step=h),
    lambda p, c, h: quantum_potential_direct(np.linspace(0.4, 3, 14), p, c, fd_step=h),
], ids=["pde_lab", "schrodinger", "qpotential_direct"])
def test_bad_fd_step_rejected(params, consts, call, fd_step):
    # a zero step would give NaN values that pose as kept ones, and a
    # negative one slips past the stencil-domain guards
    with pytest.raises(DomainError, match="fd_step must be finite and positive"):
        call(params, consts, fd_step)


class TestResidualReportInvariants:
    def test_validation(self, params, consts):
        rep = residual_ode5(GridSpec(0.5, 2.0, 8), params, consts)
        assert isinstance(rep, ResidualReport)
        assert rep.max_abs >= 0.0
        assert rep.excluded_points < len(rep.points)
        with pytest.raises(DomainError):
            ResidualReport("bogus", rep.points, 0.0, 0.0)
