"""Acceptance criteria, one test per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.  Every tolerance is pinned here; nothing is calibrated at
run time.
"""

import math
import time

import numpy as np

from madelung import analysis, cli, core, specfun, verify
from madelung.core import PhysicalParams, SolutionConstants
from madelung.specfun import cross_product
from madelung.verify import GridSpec

import reference_values as ref
import rk_oracle

PARAMS = PhysicalParams(m=1.0)
CONSTS = SolutionConstants(c1=1.0, c2=1.0)

ODE_GRID = GridSpec(0.1, 50.0, 2000, "log")
PARAM_SETS = ((1.0, 1.0, 1.0), (0.5, 1.0, 1.0), (1.0, 1.0, 0.0),
              (1.0, 0.0, 1.0), (2.0, 3.0, -1.0))


def report(number, description, passed, runtime, budget):
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {number:2d} [{status}] {description} "
          f"({runtime:.2f}s / budget {budget:.0f}s)")
    assert runtime < budget, f"criterion {number} exceeded its runtime budget"
    assert passed, f"criterion {number}: {description}"


def test_criterion_01_ode5_back_substitution():
    t0 = time.time()
    worst = 0.0
    for m, c1, c2 in PARAM_SETS:
        rep = verify.residual_ode5(ODE_GRID, PhysicalParams(m=m),
                                   SolutionConstants(c1=c1, c2=c2))
        worst = max(worst, rep.max_rel)
    report(1, f"decoupled-density-equation residual <= 1e-8 over five "
              f"parameter sets (worst {worst:.2e})", worst <= 1e-8,
           time.time() - t0, 5.0)


def test_criterion_02_cross_product_identity():
    t0 = time.time()
    zs = np.geomspace(1e-3, 1e4, 1000)
    dev = np.max(np.abs(zs * cross_product(zs) + 2.0 / math.pi))
    report(2, f"|z*(J_-3/4 Y_1/4 - J_1/4 Y_-3/4) + 2/pi| <= 1e-10 on 1000 "
              f"log points (worst {dev:.2e})", dev <= 1e-10,
           time.time() - t0, 1.0)


def test_criterion_03_simplification_equivalence():
    t0 = time.time()
    etas = np.geomspace(1e-2, 1e3, 1000)
    direct = core.shape_density(etas, PARAMS, CONSTS)
    reduced = core.simplified_shape_density(etas, PARAMS, CONSTS)
    mask = reduced > 1e-300
    dev = np.max(np.abs(direct[mask] / reduced[mask] - 1.0))
    report(3, f"literal and reduced density shapes agree to 1e-9 relative "
              f"(worst {dev:.2e})", dev <= 1e-9, time.time() - t0, 1.0)


def test_criterion_04_runge_kutta_oracle_equivalence():
    t0 = time.time()
    margins = 0.05
    arch_bounds = [(0.5, ref.ROOT_ETAS[0] - margins),
                   (ref.ROOT_ETAS[0] + margins, ref.ROOT_ETAS[1] - margins),
                   (ref.ROOT_ETAS[1] + margins, ref.ROOT_ETAS[2] - margins)]
    worst = 0.0
    for eta0, eta1 in arch_bounds:
        series = rk_oracle.ode5_oracle_march(eta0, eta1, PARAMS, CONSTS, tol=1e-10)
        f_num = series.column("f")
        f_ref = core.simplified_shape_density(series.column("eta"), PARAMS, CONSTS)
        worst = max(worst, float(np.max(np.abs(f_num - f_ref))
                                 / np.max(np.abs(f_ref))))
    report(4, f"adaptive RK march matches the closed form to 1e-6 on the "
              f"first three arches (worst {worst:.2e})", worst <= 1e-6,
           time.time() - t0, 5.0)


def _free_propagator(x, y, t):
    # conjugated free propagator; solves the harness's time-reversed form
    s = x + y
    return t**-0.5 * np.exp(-1j * PARAMS.m * s * s / (4.0 * PARAMS.hbar * t))


def _self_similar_bessel(x, y, t):
    # conjugated t^(-1/4) F(eta) solution: with laplacian = 2 d^2/ds^2 the
    # modulus g = sqrt(eta) (c2 Y_1/4 - c1 J_1/4)(zeta) solves
    # g'' + (m/4hbar)^2 eta^2 g = 0, zeta = m eta^2/(8 hbar)
    s = x + y
    eta = s / np.sqrt(t)
    zeta = PARAMS.m * eta * eta / (8.0 * PARAMS.hbar)
    quarter = specfun.BesselOrder(1)
    g = np.sqrt(eta) * (CONSTS.c2 * specfun.bessel_y(quarter, zeta)
                        - CONSTS.c1 * specfun.bessel_j(quarter, zeta))
    return (t**-0.25 * g
            * np.exp(-1j * PARAMS.m * s * s / (8.0 * PARAMS.hbar * t)))


def test_criterion_05_schrodinger_end_to_end():
    t0 = time.time()
    space = GridSpec(1.0, 5.0, 21)
    times = GridSpec(1.0, 2.0, 7)

    # (a) positive controls: exact solutions of the evaluated equation must
    # pass at both steps, with second-order decay where truncation dominates
    controls_ok = True
    control_notes = []
    for name, psi in (("propagator", _free_propagator),
                      ("bessel", _self_similar_bessel)):
        fine = verify.residual_schrodinger(space, times, PARAMS, CONSTS,
                                           fd_step=1e-4, psi=psi)
        coarse = verify.residual_schrodinger(space, times, PARAMS, CONSTS,
                                             fd_step=1e-3, psi=psi)
        decay = coarse.extras["richardson_ratio"]
        controls_ok = (controls_ok and fine.max_rel <= 1e-4
                       and coarse.max_rel <= 1e-4 and decay >= 3.0)
        control_notes.append(f"{name} {max(fine.max_rel, coarse.max_rel):.1e}"
                             f"/{decay:.2f}x")

    # (b) the paper's wave function: the residual is the analytic defect
    # psi (-5/4 k^2 s^2/t^2 + i 3/2 (k/t)(1 + eta f'/f)) with k = m/hbar,
    # and it does not change with the step
    rep = verify.residual_schrodinger(space, times, PARAMS, CONSTS, fd_step=1e-4)
    ratio = rep.extras["richardson_ratio"]
    x = rep.points.column("x")
    y = rep.points.column("y")
    t = rep.points.column("t")
    res = rep.points.column("residual_abs")
    ok = ~np.isnan(res)
    s = x + y
    eta = s / np.sqrt(t)
    f, f1 = verify.shape_derivatives(eta, PARAMS, CONSTS, upto=1)
    amp = np.sqrt(core.simplified_shape_density(eta, PARAMS, CONSTS) / np.sqrt(t))
    k = PARAMS.m / PARAMS.hbar
    defect = amp * np.hypot(-1.25 * k * k * s * s / (t * t),
                            1.5 * k / t * (1.0 + eta * f1 / f))
    dev = float(np.max(np.abs(res[ok] - defect[ok]) / defect[ok]))
    canonical_ok = dev <= 1e-3 and 0.9 <= ratio <= 1.1

    report(5, f"exact free solutions pass the Schrodinger harness to 1e-4 "
              f"with >=3x decay ({', '.join(control_notes)}); canonical "
              f"psi leaves the analytic defect (max_rel {rep.max_rel:.2e}, "
              f"match {dev:.1e}, decay {ratio:.2f}x)",
           controls_ok and canonical_ok, time.time() - t0, 20.0)


def test_criterion_06_zero_pole_coincidence():
    t0 = time.time()
    roots = analysis.find_zeros((0.1, 30.0), PARAMS, CONSTS, max_roots=11)
    matched = analysis.match_poles(roots, PARAMS, CONSTS)
    seps = [sep for _, _, sep in matched.matched_poles[:10]]
    magnitudes_ok = True
    etas = roots.etas()
    for i in range(10):
        mid = 0.5 * (etas[i] + etas[i + 1])
        q_mid, q_below, q_above = np.abs(core.quantum_potential_eq9_masked(
            [mid, etas[i] - 1e-4, etas[i] + 1e-4], PARAMS, CONSTS)[0])
        q_near = min(q_below, q_above)
        if not q_near > 1e3 * q_mid:
            magnitudes_ok = False
    passed = max(seps) <= 1e-8 and magnitudes_ok
    report(6, f"first 10 density zeros match potential poles to 1e-8 "
              f"(worst {max(seps):.2e}) with >1e3x divergence nearby",
           passed, time.time() - t0, 5.0)


def test_criterion_07_zero_compression():
    t0 = time.time()
    roots = analysis.find_zeros((0.1, 30.0), PARAMS, CONSTS, max_roots=12)
    spacings = np.diff(roots.etas())
    passed = bool(np.all(np.diff(spacings) < 0.0))
    report(7, "consecutive root spacings strictly decreasing from the "
              "second root onward", passed, time.time() - t0, 1.0)


def test_criterion_08_positivity():
    t0 = time.time()
    etas = np.geomspace(1e-3, 1e3, 20000)
    passed = True
    for m, c1, c2 in PARAM_SETS:
        f = core.simplified_shape_density(etas, PhysicalParams(m=m),
                                          SolutionConstants(c1=c1, c2=c2))
        passed = passed and bool(np.all(f >= 0.0))
    report(8, "density shape nonnegative at every evaluated point across "
              "all parameter sets", passed, time.time() - t0, 5.0)


def test_criterion_09_integrability_report(capsys, tmp_path):
    t0 = time.time()
    out_path = tmp_path / "integrals.csv"
    code = cli.main(["integrate", "--limits", "10,100,1000,10000",
                     "--output", str(out_path)])
    text = capsys.readouterr().out
    rows = out_path.read_text().strip().split("\n")[1:]
    fs = [float(r.split(",")[1]) for r in rows]
    errs = [float(r.split(",")[2]) for r in rows]
    # self-consistency: halving the tolerance moves F by less than err
    halved = analysis.integrate_density([10.0, 100.0, 1000.0, 10000.0],
                                        PARAMS, CONSTS, tol=0.5e-9)
    within = all(abs(f - p[1]) < e for f, e, p in
                 zip(fs, errs, halved.partial_integrals))
    passed = (code == 0 and len(fs) == 4
              and all(b >= a for a, b in zip(fs, fs[1:]))
              and within
              and "tail fit (log):" in text
              and "tail fit (1/H):" in text
              and "verdict:" in text)
    with capsys.disabled():
        report(9, "partial integrals at H = 10..10^4 self-consistent, both "
                  "tail fits emitted, verdict recorded (not asserted)",
               passed, time.time() - t0, 30.0)


def test_criterion_10_discrepancy_reports(capsys):
    t0 = time.time()
    code_phase = cli.main(["verify", "--which", "phase"])
    out_phase = capsys.readouterr().out
    code_q = cli.main(["verify", "--which", "qpotential"])
    out_q = capsys.readouterr().out
    passed = (code_phase == 0 and code_q == 0
              and "gradient_over_velocity_mean = 2" in out_phase
              and "eq9/direct ratio" in out_q)
    with capsys.disabled():
        report(10, "phase-gradient and quantum-potential comparative runs "
                   "exit 0 and emit measured ratios", passed,
               time.time() - t0, 10.0)
