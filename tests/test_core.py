import ast
import cmath
import math
import pathlib
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from madelung import core
from madelung.core import (
    LAB_FIELDS,
    LabPoint,
    PhysicalParams,
    SolutionConstants,
    density,
    lab_field,
    phase,
    quantum_potential_eq9_masked,
    shape_density,
    shape_velocity_split,
    shape_velocity_sum,
    simplified_shape_density,
    velocity,
    wavefunction_canonical,
)
from madelung.errors import DomainError, NonFiniteOutput

import reference_values as ref


def rel(a, b):
    return abs(a - b) / abs(b)


def psi_eq8(x, y, t, params, consts):
    # the eq. 8 psi at one lab point, through its one array entry
    return complex(core._psi_eq8(*(np.array([v]) for v in (x, y, t)), params, consts)[0])


class TestWBundle:
    CONSTS = [(1.0, 1.0), (3.0, -1.0), (1.0, 0.0), (0.0, 1.0)]

    @pytest.mark.parametrize("c1,c2", CONSTS)
    def test_first_derivative_against_mpmath(self, c1, c2):
        # w' = c2 Y_{-3/4} - c1 J_{-3/4} - w/(4z) against mpmath's derivatives,
        # within 1e-13 of the envelope sqrt(c1^2 + c2^2) sqrt(J'^2 + Y'^2)
        mp = pytest.importorskip("mpmath")
        z = np.geomspace(1e-2, 1e3, 60)
        _, w1 = core._w_bundle(z, SolutionConstants(c1=c1, c2=c2), upto=1)
        with mp.workdps(30):
            for zi, got in zip(z.tolist(), w1.tolist()):
                jp = mp.besselj(0.25, mp.mpf(zi), derivative=1)
                yp = mp.bessely(0.25, mp.mpf(zi), derivative=1)
                env = math.hypot(c1, c2) * mp.sqrt(jp**2 + yp**2)
                assert abs(got - (c2 * yp - c1 * jp)) <= 1e-13 * env, zi

    @pytest.mark.parametrize("c1,c2", CONSTS)
    def test_one_w_prime_for_every_request(self, c1, c2):
        # roots and Q (upto=1) and the shape derivatives (upto=3) share w and w'
        z = np.geomspace(1e-3, 1e4, 3001)
        consts = SolutionConstants(c1=c1, c2=c2)
        short = core._w_bundle(z, consts, upto=1)
        full = core._w_bundle(z, consts, upto=3)
        assert all(a.tobytes() == b.tobytes() for a, b in zip(short, full[:2]))
        assert core._w_bundle(z, consts)[0].tobytes() == short[0].tobytes()


class TestDomainTypes:
    def test_params_validation(self):
        with pytest.raises(DomainError):
            PhysicalParams(m=0.0)
        with pytest.raises(DomainError):
            PhysicalParams(m=1.0, hbar=-1.0)
        with pytest.raises(DomainError):
            PhysicalParams(m=1.0, dimension=4)

    def test_constants_validation(self):
        with pytest.raises(DomainError):
            SolutionConstants(c1=0.0, c2=0.0)
        assert SolutionConstants(c1=1.0, c2=0.0).c0 == 0.0

    def test_point_invariants(self):
        with pytest.raises(DomainError):
            LabPoint(1.0, 1.0, 0.0)


class TestShapeDensity:
    def test_reference_values(self, params, consts):
        for eta, expected in ref.SHAPE_F.items():
            assert rel(shape_density(eta, params, consts), expected) < 1e-10
        assert rel(
            shape_density(1.0, PhysicalParams(m=0.5), consts),
            ref.SHAPE_F_M05_AT_1) < 1e-10
        assert rel(
            shape_density(1.5, PhysicalParams(m=2.0),
                          SolutionConstants(c1=3.0, c2=-1.0)),
            ref.SHAPE_F_M2_C3_CM1_AT_15) < 1e-10

    def test_nonnegative_on_grid(self, params, consts):
        etas = np.geomspace(1e-3, 1e3, 5000)
        assert np.all(shape_density(etas, params, consts) >= 0.0)

    @given(st.floats(min_value=0.05, max_value=5.0),
           st.floats(min_value=-3.0, max_value=3.0),
           st.floats(min_value=-3.0, max_value=3.0),
           st.floats(min_value=-2.0, max_value=1.5))
    @settings(max_examples=120, deadline=None)
    def test_nonnegative_property(self, m, c1, c2, log10_eta):
        if abs(c1) + abs(c2) < 1e-3:
            return
        f = simplified_shape_density(10.0**log10_eta, PhysicalParams(m=m),
                                     SolutionConstants(c1=c1, c2=c2))
        assert f >= 0.0

    def test_vanishes_at_first_root(self, params, consts):
        assert shape_density(ref.ROOT_ETAS[0], params, consts) < 1e-20

    def test_rejects_nonpositive_eta(self, params, consts):
        for eta in (0.0, -1.0):
            with pytest.raises(DomainError):
                shape_density(eta, params, consts)
            with pytest.raises(DomainError):
                simplified_shape_density(eta, params, consts)

    def test_million_points_hold_a_few_blocks_of_temporaries(self, params, consts):
        # blocks bound the temporaries: the peak is the output plus at most
        # eight times what one block's evaluation allocates
        eta = np.geomspace(0.1, 50.0, 1_000_000)
        tracemalloc.start()
        try:
            shape_density(eta[:core._BLOCK], params, consts)
            block = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            out = shape_density(eta, params, consts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= out.nbytes + 8 * block


class TestSimplificationEquivalence:
    def test_spot_points(self, params, consts):
        for eta in (0.1, 1.0, 10.0):
            a = shape_density(eta, params, consts)
            b = simplified_shape_density(eta, params, consts)
            assert rel(a, b) < 1e-9

    def test_ratio_on_log_grid(self, params, consts):
        etas = np.geomspace(1e-2, 1e3, 1000)
        a = shape_density(etas, params, consts)
        b = simplified_shape_density(etas, params, consts)
        mask = b > 1e-300
        assert np.max(np.abs(a[mask] / b[mask] - 1.0)) < 1e-9

    def test_same_zeros(self, params, consts):
        eta0 = ref.ROOT_ETAS[0]
        assert simplified_shape_density(eta0, params, consts) < 1e-20
        assert shape_density(eta0, params, consts) < 1e-20


class TestVelocityShape:
    def test_sum_examples(self):
        assert shape_velocity_sum(1.0, SolutionConstants(1.0, 1.0)) == 0.5
        assert shape_velocity_sum(2.0, SolutionConstants(1.0, 1.0, c0=1.0)) == 0.5
        assert shape_velocity_sum(2.0, SolutionConstants(1.0, 1.0, c0=2.0)) == 0.0

    def test_split_examples(self):
        c = SolutionConstants(1.0, 1.0)
        assert shape_velocity_split(1.0, c) == (0.25, 0.25)
        assert shape_velocity_split(4.0, c) == (1.0, 1.0)

    @given(st.floats(min_value=1e-3, max_value=1e3),
           st.floats(min_value=-5.0, max_value=5.0))
    @settings(max_examples=100, deadline=None)
    def test_split_sums_to_constraint(self, eta, c0):
        c = SolutionConstants(1.0, 1.0, c0=c0)
        g, h = shape_velocity_split(eta, c)
        assert math.isclose(g + h, shape_velocity_sum(eta, c), rel_tol=1e-14,
                            abs_tol=1e-14)


class TestLabFields:
    def test_density_at_unit_time(self, params, consts):
        p = LabPoint(0.5, 0.5, 1.0)
        assert rel(density(p, params, consts), ref.SHAPE_F[1.0]) < 1e-10

    @pytest.mark.parametrize("lam", [0.25, 4.0, 100.0])
    def test_self_similarity(self, params, consts, lam):
        x, y, t = 0.7, 0.9, 1.3
        base = density(LabPoint(x, y, t), params, consts)
        scaled = density(LabPoint(math.sqrt(lam) * x, math.sqrt(lam) * y, lam * t),
                         params, consts)
        assert rel(scaled * math.sqrt(lam), base) < 1e-12

    def test_velocity_examples(self, params, consts):
        assert velocity(LabPoint(1.0, 1.0, 1.0), params, consts) == (0.5, 0.5)
        u, v = velocity(LabPoint(1.2, 2.3, 2.0), params, consts)
        assert math.isclose(u + v, (1.2 + 2.3) / (2.0 * 2.0), rel_tol=1e-14)
        u_late, v_late = velocity(LabPoint(1.0, 1.0, 1e12), params, consts)
        assert abs(u_late) < 1e-11 and abs(v_late) < 1e-11

    def test_phase_examples(self, params):
        assert phase(LabPoint(1.5, 0.5, 1.0), params) == 1.0
        assert phase(LabPoint(1.0, -1.0, 3.0), params) == 0.0
        base = phase(LabPoint(0.4, 0.6, 0.7), params)
        assert phase(LabPoint(0.8, 1.2, 2.8), params) == base

    def test_phase_uses_mass_and_hbar(self):
        p = LabPoint(1.0, 1.0, 1.0)
        assert phase(p, PhysicalParams(m=3.0)) == 3.0
        assert phase(p, PhysicalParams(m=1.0, hbar=2.0)) == 0.5


class TestWaveFunctions:
    def test_canonical_reference(self, params, consts):
        w = wavefunction_canonical(LabPoint(0.5, 0.5, 1.0), params, consts)
        assert rel(w.real, ref.PSI_05_05_1[0]) < 1e-10
        assert rel(w.imag, ref.PSI_05_05_1[1]) < 1e-10

    def test_modulus_squared_equals_density(self, params, consts):
        for (x, y, t) in [(0.5, 0.5, 1.0), (1.0, 2.0, 0.7), (3.0, 1.0, 5.0)]:
            p = LabPoint(x, y, t)
            w = wavefunction_canonical(p, params, consts)
            assert rel(abs(w) ** 2, density(p, params, consts)) < 1e-12

    def test_vanishes_at_density_zero(self, params, consts):
        eta0 = ref.ROOT_ETAS[0]
        w = wavefunction_canonical(LabPoint(eta0 / 2, eta0 / 2, 1.0), params, consts)
        assert abs(w) < 1e-10

    def test_eq8_reference(self, params, consts):
        w = psi_eq8(1.0, 1.0, 1.0, params, consts)
        assert rel(w.real, ref.PSI_1_1_1[0]) < 1e-10
        assert rel(w.imag, ref.PSI_1_1_1[1]) < 1e-10
        assert abs(w) > 0.0

    def test_eq8_phase_matches_canonical(self, params, consts):
        for (x, y, t) in [(0.5, 0.5, 1.0), (1.0, 1.0, 2.0), (2.0, 1.0, 4.0)]:
            a = psi_eq8(x, y, t, params, consts)
            b = wavefunction_canonical(LabPoint(x, y, t), params, consts)
            diff = cmath.phase(a / b)
            assert abs(diff) < 1e-9

    @pytest.mark.parametrize("t", [1.0, 4.0, 16.0])
    def test_eq8_modulus_ratio_is_quarter_power_of_time(self, params, consts, t):
        # at fixed eta the printed transcription differs from sqrt(rho) e^{iS}
        # by exactly t^(-1/4); measured and frozen as the discrepancy record
        eta = 2.0
        s = eta * math.sqrt(t)
        ratio = (abs(psi_eq8(s / 2, s / 2, t, params, consts))
                 / abs(wavefunction_canonical(LabPoint(s / 2, s / 2, t), params, consts)))
        assert rel(ratio, t ** -0.25) < 1e-9


def q9(eta, params, consts):
    # Q of eq. 9 at one eta, through the one array entry
    return float(quantum_potential_eq9_masked(eta, params, consts)[0][0])


class TestQuantumPotentialEq9:
    def test_reference_values(self, params, consts):
        assert rel(q9(1.0, params, consts), ref.Q9_AT_1) < 1e-10
        assert rel(q9(2.0, params, consts), ref.Q9_AT_2) < 1e-10

    def test_diverges_at_density_zeros(self, params, consts):
        eta0 = ref.ROOT_ETAS[0]
        mid = 0.5 * (ref.ROOT_ETAS[0] + ref.ROOT_ETAS[1])
        q_mid = abs(q9(mid, params, consts))
        for side in (-1e-4, 1e-4):
            q_near = abs(q9(eta0 + side, params, consts))
            assert q_near > 1e3 * q_mid

    def test_bracket_sign_change_across_pole(self, params, consts):
        # the differentiated bracket -eta^2 m^2 / (8 (c1 J - c2 Y)) crosses
        # zero of its denominator linearly, so it flips sign at the pole
        from madelung.specfun import BesselOrder, bessel_j, bessel_y

        eta0 = ref.ROOT_ETAS[0]
        p14 = BesselOrder(1)

        def bracket(eta):
            z = params.m * eta * eta / (4.0 * math.sqrt(2.0))
            d = consts.c1 * bessel_j(p14, z) - consts.c2 * bessel_y(p14, z)
            return -eta * eta * params.m**2 / (8.0 * d)

        assert bracket(eta0 - 1e-5) * bracket(eta0 + 1e-5) < 0.0

    def test_exclusion_radius(self, params, consts):
        # the root itself lies within _Q9_EXCLUSION of the pole: NaN, flagged
        q, excluded = quantum_potential_eq9_masked(
            [ref.ROOT_ETAS[0], 1.0], params, consts)
        assert excluded.tolist() == [True, False]
        assert math.isnan(q[0]) and math.isfinite(q[1])

    def test_rejects_nonpositive_eta(self, params, consts):
        with pytest.raises(DomainError):
            quantum_potential_eq9_masked(-1.0, params, consts)

    @pytest.mark.parametrize("lam", [1e-3, 1e3])
    def test_scales_inversely_with_the_bessel_weights(self, params, consts, lam):
        # (c1, c2) -> lam (c1, c2) scales rho by lam^2, which leaves a quantum
        # potential (sqrt rho)''/sqrt rho unchanged, as the direct reduction
        # is; eq. 9 scales as 1/lam instead
        from madelung.verify import quantum_potential_direct

        etas = np.linspace(0.4, 3.0, 14)  # the qpotential table's eta
        scaled = SolutionConstants(c1=lam * consts.c1, c2=lam * consts.c2)
        q, excluded = quantum_potential_eq9_masked(etas, params, scaled)
        q1, excluded1 = quantum_potential_eq9_masked(etas, params, consts)
        assert not excluded.any() and not excluded1.any()
        np.testing.assert_allclose(lam * q, q1, rtol=1e-14, atol=0.0)
        qd, _ = quantum_potential_direct(etas, params, scaled)
        qd1, _ = quantum_potential_direct(etas, params, consts)
        np.testing.assert_allclose(qd, qd1, rtol=0.0, atol=1e-6)


class TestFiniteParameterRecords:
    @pytest.mark.parametrize("kwargs", [
        {"m": math.inf}, {"m": math.nan}, {"m": 1.0, "hbar": math.inf},
        {"m": 1.0, "hbar": math.nan}])
    def test_params_reject_nonfinite(self, kwargs):
        with pytest.raises(DomainError, match="finite"):
            PhysicalParams(**kwargs)

    @pytest.mark.parametrize("kwargs", [
        {"c1": math.inf, "c2": 1.0}, {"c1": -math.inf, "c2": 1.0},
        {"c1": 1.0, "c2": math.nan}, {"c1": 1.0, "c2": 1.0, "c0": math.inf},
        # nan compares unequal to zero, so it used to pass the vanishing check
        {"c1": math.nan, "c2": 0.0}])
    def test_constants_reject_nonfinite(self, kwargs):
        with pytest.raises(DomainError, match="finite"):
            SolutionConstants(**kwargs)


class TestSimilarityConstants:
    # (m, hbar): the masses of the five acceptance sets, and one hbar != 1
    CASES = [(m, hbar, d) for m, hbar in ((1.0, 1.0), (0.5, 1.0), (2.0, 1.0), (1.5, 0.7))
             for d in (1, 2, 3)]

    @pytest.mark.parametrize("m,hbar,d", CASES)
    def test_properties_bit_equal_to_their_formulas(self, m, hbar, d):
        p = PhysicalParams(m=m, hbar=hbar, dimension=d)
        assert p.z_scale == 4.0 * hbar * math.sqrt(d)
        assert p.k == m / (4.0 * hbar * math.sqrt(d))
        assert p.mass_scale == m * math.sqrt(2.0 / d) / hbar
        assert p.q_prefactor == np.float64(hbar) ** 2 / (2.0 * np.float64(m) ** 2)

    @pytest.mark.parametrize("m,hbar,d", CASES)
    def test_z_arg_bit_equal_to_its_formula(self, m, hbar, d):
        # the 14 eta of the qpotential table
        eta = np.linspace(0.4, 3.0, 14)
        z = core._z_arg(eta, PhysicalParams(m=m, hbar=hbar, dimension=d))
        assert z.tobytes() == (m * eta * eta / (4.0 * hbar * math.sqrt(d))).tobytes()

    def test_out_of_range_constants_build_without_warning(self):
        # each constant is formed on access, so M and hbar^2/(2 m^2) overflow
        # only where a caller reads them, under its own np.errstate
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            p = PhysicalParams(m=1e200, hbar=1e-200)
        with np.errstate(over="ignore"):
            assert (p.mass_scale, p.q_prefactor) == (math.inf, 0.0)

    def test_dimension_enters_only_through_physical_params(self):
        # a sqrt of the dimension outside PhysicalParams is a second copy of
        # a similarity constant
        inside, outside = [], []
        for path in sorted(pathlib.Path(core.__file__).parent.glob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            home = range(0)
            for node in ast.walk(tree):
                if isinstance(node, ast.ClassDef) and node.name == "PhysicalParams":
                    home = range(node.lineno, node.end_lineno + 1)
            for node in ast.walk(tree):
                if (isinstance(node, ast.Call) and "sqrt" in ast.unparse(node.func)
                        and "dimension" in ast.unparse(node)):
                    where = f"{path.name}:{node.lineno}"
                    (inside if node.lineno in home else outside).append(where)
        assert inside and outside == []


class TestLabFieldArray:
    XS = np.array([0.3, 1.7, 4.0, 9.5, 13.0])
    YS = np.array([[0.0], [0.6]])
    TS = np.array([[[0.8]], [[1.9]]])

    def test_broadcast_shape(self, params, consts):
        for name in LAB_FIELDS:
            out = lab_field(name, self.XS, self.YS, self.TS, params, consts)
            assert out.shape == (2, 2, 5)

    @pytest.mark.parametrize("name", LAB_FIELDS)
    def test_scalar_api_is_one_element_call(self, params, consts, name):
        # the scalar API wraps lab_field on 1-element arrays, bit for bit
        for x, y, t in [(0.5, 0.5, 1.0), (1.0, 2.0, 0.7), (3.0, 1.0, 5.0), (9.0, 4.0, 1.1)]:
            p = LabPoint(x, y, t)
            scalar = {"rho": density(p, params, consts),
                      "u": velocity(p, params, consts)[0],
                      "v": velocity(p, params, consts)[1],
                      "S": phase(p, params),
                      "psi_re": wavefunction_canonical(p, params, consts).real,
                      "psi_im": wavefunction_canonical(p, params, consts).imag}[name]
            arr = lab_field(name, np.array([x]), np.array([y]), np.array([t]), params, consts)
            assert arr.shape == (1,)
            assert float(arr[0]) == scalar

    def test_exact_fields_match_scalar_api_on_grid(self, params):
        consts = SolutionConstants(c1=0.4, c2=-1.2, c0=0.3)
        x, y, t = np.broadcast_arrays(self.XS, self.YS, self.TS)
        for name, fn in (("u", lambda p: velocity(p, params, consts)[0]),
                         ("v", lambda p: velocity(p, params, consts)[1]),
                         ("S", lambda p: phase(p, params))):
            out = lab_field(name, x, y, t, params, consts)
            want = [fn(LabPoint(*pt)) for pt in zip(x.ravel(), y.ravel(), t.ravel())]
            assert out.ravel().tolist() == want

    # the points and parameters the scalar velocity and phase tests use
    POINTS = [(1.0, 1.0, 1.0), (1.2, 2.3, 2.0), (1.0, 1.0, 1e12), (1.5, 0.5, 1.0),
              (0.4, 0.6, 0.7), (0.8, 1.2, 2.8), (0.5, 0.5, 1.0), (1.0, 2.0, 0.7),
              (3.0, 1.0, 5.0), (9.0, 4.0, 1.1), (0.3, 0.6, 1.9), (13.0, 0.0, 0.8)]
    PARAMS = [PhysicalParams(m=1.0), PhysicalParams(m=3.0), PhysicalParams(m=1.0, hbar=2.0),
              PhysicalParams(m=1.5, hbar=0.7, dimension=3)]
    CONSTS = [SolutionConstants(1.0, 1.0), SolutionConstants(c1=0.4, c2=-1.2, c0=0.3),
              SolutionConstants(1.0, 1.0, c0=2.0)]

    def test_scalar_velocity_and_phase_bit_equal_to_lab_field(self):
        def hexes(name, pt, prm, cst):
            x, y, t = (np.array([v]) for v in pt)
            return float(lab_field(name, x, y, t, prm, cst)[0]).hex()

        for pt in self.POINTS + [(1.0, -1.0, 3.0), (-2.0, 0.5, 1.0)]:
            for prm in self.PARAMS:
                assert phase(LabPoint(*pt), prm).hex() == hexes("S", pt, prm, None)
                for cst in self.CONSTS:
                    if pt[0] + pt[1] <= 0.0:
                        with pytest.raises(DomainError, match="x \\+ y must be positive"):
                            velocity(LabPoint(*pt), prm, cst)
                        with pytest.raises(DomainError, match="x \\+ y must be positive"):
                            lab_field("u", *pt, prm, cst)
                        continue
                    u, v = velocity(LabPoint(*pt), prm, cst)
                    assert (u.hex(), v.hex()) == (hexes("u", pt, prm, cst),
                                                  hexes("v", pt, prm, cst))

    def test_scalar_api_bit_equal_to_lab_field_across_regimes(self):
        # z = m (x + y)^2 / (4 sqrt(2) t) runs from 0.03 to 52, across the
        # series/recurrence switch at 8 and the Hankel switch at 20
        params = PhysicalParams(m=1.0)
        consts = SolutionConstants(c1=0.4, c2=-1.2, c0=0.3)
        x, y, t = np.meshgrid(np.linspace(0.2, 13.0, 81), [0.3], [0.6, 1.0, 1.7],
                              indexing="ij")
        scalar = {"rho": lambda p: density(p, params, consts),
                  "u": lambda p: velocity(p, params, consts)[0],
                  "v": lambda p: velocity(p, params, consts)[1],
                  "S": lambda p: phase(p, params),
                  "psi_re": lambda p: wavefunction_canonical(p, params, consts).real,
                  "psi_im": lambda p: wavefunction_canonical(p, params, consts).imag}
        points = [LabPoint(*pt) for pt in zip(x.ravel(), y.ravel(), t.ravel())]
        for name in LAB_FIELDS:
            arr = lab_field(name, x, y, t, params, consts).ravel()
            assert [v.hex() for v in arr.tolist()] == [scalar[name](p).hex() for p in points]

    @pytest.mark.parametrize("dimension", [1, 2, 3])
    def test_scalar_api_bit_equal_to_lab_field_at_random_points(self, dimension):
        # density, velocity and wavefunction_canonical are each one array call
        rng = np.random.default_rng(dimension)
        params = PhysicalParams(m=1.3, hbar=0.9, dimension=dimension)
        consts = SolutionConstants(c1=0.4, c2=-1.2, c0=0.7)
        n = 60
        s = rng.uniform(0.05, 15.0, n)
        y = rng.uniform(-3.0, 3.0, n)
        x, t = s - y, rng.uniform(0.2, 4.0, n)
        field = {name: lab_field(name, x, y, t, params, consts).tolist()
                 for name in ("rho", "u", "v", "psi_re", "psi_im")}
        for i, p in enumerate(LabPoint(*pt) for pt in zip(x, y, t)):
            u, v = velocity(p, params, consts)
            w = wavefunction_canonical(p, params, consts)
            got = (density(p, params, consts), u, v, w.real, w.imag)
            want = tuple(field[name][i] for name in ("rho", "u", "v", "psi_re", "psi_im"))
            assert [g.hex() for g in got] == [f.hex() for f in want]

    def test_psi_modulus_squared_is_rho(self, params, consts):
        rho = lab_field("rho", self.XS, self.YS, self.TS, params, consts)
        re = lab_field("psi_re", self.XS, self.YS, self.TS, params, consts)
        im = lab_field("psi_im", self.XS, self.YS, self.TS, params, consts)
        assert np.allclose(re * re + im * im, rho, rtol=1e-12, atol=0.0)

    def test_domain_checks(self, params, consts):
        with pytest.raises(DomainError, match="unknown lab field"):
            lab_field("f", 1.0, 1.0, 1.0, params, consts)
        for name in LAB_FIELDS:
            with pytest.raises(DomainError, match="t must be positive"):
                lab_field(name, self.XS, 0.0, np.array([1.0, 0.0]).reshape(2, 1),
                          params, consts)
        for name in set(LAB_FIELDS) - {"S"}:
            with pytest.raises(DomainError, match="x \\+ y must be positive"):
                lab_field(name, np.array([1.0, -1.0]), 0.5, 1.0, params, consts)
        s = lab_field("S", np.array([1.0, -1.0]), 0.5, 1.0, params, consts)
        assert s.tolist() == [0.5625, 0.0625]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nonfinite_psi_names_first_point(self, consts):
        huge = PhysicalParams(m=1e300)
        rho = lab_field("rho", [0.5, 1.0], 0.0, 2.0, huge, consts)
        assert np.all(np.isnan(rho))
        with pytest.raises(NonFiniteOutput,
                           match="psi_im is not finite at x = 0.5, y = 0.0, t = 2.0"):
            lab_field("psi_im", [0.5, 1.0], 0.0, 2.0, huge, consts)
