"""One evaluator call per finite-difference stencil and per Gauss level.

The lab residuals evaluate every stencil set of a difference step, and the
quadrature every node of a two-level Gauss step, in one call.  Each field
value depends on its own point alone, so the stacked call must give the
bits of one call per set.  The oracles below are the per-set code these
functions replaced, kept verbatim; every reduction still runs on the
per-set shapes, since matmul is not row-invariant.
"""

import os
import subprocess
import sys
from functools import partial

import numpy as np
import pytest

from madelung import analysis, cli, core, specfun, verify
from madelung.core import PhysicalParams, SolutionConstants
from madelung.verify import GridSpec

from test_acceptance import _free_propagator, _self_similar_bessel

SPACE = GridSpec(1.0, 5.0, 21)
TIME = GridSpec(1.0, 2.0, 7)
ACCEPTANCE_SETS = ((1.0, 1.0, 1.0), (0.5, 1.0, 1.0), (1.0, 1.0, 0.0),
                   (1.0, 0.0, 1.0), (2.0, 3.0, -1.0))
CASES = [(m, c1, c2, d) for m, c1, c2 in ACCEPTANCE_SETS for d in (1, 2, 3)]
STEPS = (1e-4, 1e-3)


# ---------------------------------------------------------------------------
# oracles: one evaluator call per stencil set or Gauss level


def _oracle_continuity_euler(x, y, t, params, consts, h, hq):
    _lab_fields = verify._lab_fields
    _q_prefactor = core._q_prefactor

    def diffs(dx, dy, dt):
        # central differences of rho, rho u and u along (dx, dy, dt)
        (rp, up), (rm, um) = (
            _lab_fields(("rho", "u"), x + e * dx, y + e * dy, t + e * dt, params, consts)
            for e in (1.0, -1.0))
        return (rp - rm) / (2 * h), (rp * up - rm * um) / (2 * h), (up - um) / (2 * h)

    rho_t, _, u_t = diffs(0.0, 0.0, h)
    _, flux_x, u_x = diffs(h, 0.0, 0.0)
    _, flux_y, u_y = diffs(0.0, h, 0.0)
    cont = rho_t + flux_x + flux_y
    cont_scale = np.maximum.reduce([np.abs(rho_t), np.abs(flux_x), np.abs(flux_y)])

    # quantum term by nested differences of sqrt(rho); the inner Laplacian
    # uses the wider step hq to keep its rounding noise below the budget
    def sq(xx, yy, tt_):
        return np.sqrt(_lab_fields(("rho",), xx, yy, tt_, params, consts)[0])

    def g_of(xx):
        ctr = sq(xx, y, t)
        lap = ((sq(xx + hq, y, t) - 2 * ctr + sq(xx - hq, y, t))
               + (sq(xx, y + hq, t) - 2 * ctr + sq(xx, y - hq, t))) / (hq * hq)
        return lap / ctr

    q_x = _q_prefactor(params) * (g_of(x + h) - g_of(x - h)) / (2 * h)

    [u] = _lab_fields(("u",), x, y, t, params, consts)
    adv_x = u * u_x
    adv_y = u * u_y
    euler = u_t + adv_x + adv_y - q_x
    euler_scale = np.maximum.reduce(
        [np.abs(u_t), np.abs(adv_x), np.abs(adv_y), np.abs(q_x)])
    return cont, cont_scale, euler, euler_scale


def _oracle_schrodinger_residual(x, y, t, params, h, psi):
    ctr = psi(x, y, t)
    lap = ((psi(x + h, y, t) - 2 * ctr + psi(x - h, y, t))
           + (psi(x, y + h, t) - 2 * ctr + psi(x, y - h, t))) / (h * h)
    psi_t = (psi(x, y, t + h) - psi(x, y, t - h)) / (2 * h)
    coeff = 2.0 * params.m / params.hbar
    res = lap - 1j * coeff * psi_t
    scale = np.abs(lap) + coeff * np.abs(psi_t)
    return res, scale


def _oracle_two_level(fn, a, b, nodes, weights):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    mid = 0.5 * (a + b)

    def gl(aa, bb):
        h = 0.5 * (bb - aa)
        c = 0.5 * (aa + bb)
        pts = c[:, None] + h[:, None] * nodes[None, :]
        vals = fn(pts.ravel()).reshape(pts.shape)
        return (vals @ weights) * h

    coarse = gl(a, b)
    fine = gl(a, mid) + gl(mid, b)
    return fine, np.abs(fine - coarse)


def _bits(arrays):
    return [np.asarray(a).tobytes() for a in arrays]


def _case(m, c1, c2, d):
    return PhysicalParams(m=m, dimension=d), SolutionConstants(c1=c1, c2=c2)


# ---------------------------------------------------------------------------
# bit equality with the oracles


class TestBitEqualToOneCallPerSet:
    @pytest.mark.parametrize("m,c1,c2,d", CASES)
    def test_continuity_euler(self, m, c1, c2, d):
        params, consts = _case(m, c1, c2, d)
        for step in STEPS:
            hq = max(step, 1e-3)
            x, y, t = verify._stencil_mesh(SPACE, TIME, step + hq, step)
            for h in (step, step / 2.0):  # both Richardson steps
                got = verify._continuity_euler(x, y, t, params, consts, h, hq)
                want = _oracle_continuity_euler(x, y, t, params, consts, h, hq)
                assert _bits(got) == _bits(want), (step, h)

    @pytest.mark.parametrize("m,c1,c2,d", CASES)
    def test_schrodinger_residual(self, m, c1, c2, d):
        # the canonical and eq. 8 wave functions of the case, and the two
        # exact free solutions that criterion 5 uses as positive controls
        params, consts = _case(m, c1, c2, d)
        psis = {
            "canonical": partial(verify._psi_canonical, params=params, consts=consts),
            "eq8": lambda x, y, t: core._psi_eq8(x, y, t, params, consts),
            "propagator": _free_propagator,
            "bessel": _self_similar_bessel,
        }
        for step in STEPS:
            x, y, t = verify._stencil_mesh(SPACE, TIME, step, step)
            for h in (step, step / 2.0):
                for name, psi in psis.items():
                    got = verify._schrodinger_residual(x, y, t, params, h, psi)
                    want = _oracle_schrodinger_residual(x, y, t, params, h, psi)
                    assert _bits(got) == _bits(want), (name, step, h)

    @pytest.mark.parametrize("m,c1,c2,d", CASES)
    def test_two_level(self, m, c1, c2, d):
        # panels between the first zeros of w, and the z = u^2 leading panel
        params, consts = _case(m, c1, c2, d)
        w = analysis._c_fn(consts)
        edges = np.concatenate([[1e-8], np.linspace(0.5, 60.0, 37)])
        fns = (lambda z: w(z) ** 2, lambda u: w(u * u) ** 2 * 2.0 * u)
        for fn, (a, b) in zip(fns, ((edges[:-1], edges[1:]), ([0.0], [1.3]))):
            a, b = np.asarray(a), np.asarray(b)
            assert _bits(analysis._two_level(fn, a, b)) == _bits(_oracle_two_level(
                fn, a, b, analysis._GAUSS_NODES, analysis._GAUSS_WEIGHTS))

    @pytest.mark.parametrize("m,c1,c2,d", CASES)
    def test_integrate_density_with_bisected_panels(self, m, c1, c2, d, monkeypatch):
        # at tol 1e-14 _adaptive_panel bisects one-panel calls of _two_level;
        # for m = 2, c1 = 3, c2 = -1 it gives up, and the message must match
        params, consts = _case(m, c1, c2, d)

        def outcome():
            try:
                result = analysis.integrate_density([10.0, 100.0], params, consts, tol=1e-14)
            except analysis.ToleranceNotMet as exc:
                return str(exc)
            return result.partial_integrals

        got = outcome()
        monkeypatch.setattr(analysis, "_two_level", lambda fn, a, b: _oracle_two_level(
            fn, a, b, analysis._GAUSS_NODES, analysis._GAUSS_WEIGHTS))
        assert got == outcome()


# ---------------------------------------------------------------------------
# call counts


def _spy(monkeypatch, owner, name):
    calls = []
    real = getattr(owner, name)

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, spy)
    return calls


class TestEvaluatorCallCounts:
    def test_verify_all_jy_calls(self, monkeypatch):
        # ode5 1, ode_system4 2, and per lab report one call per difference
        # step plus one for the exclusion mask: 1 + 2 + 3 + 3 = 9
        calls = _spy(monkeypatch, specfun, "_jy")
        assert cli.main(["verify", "--which", "all"]) == 3
        assert len(calls) <= 10

    def test_continuity_euler_one_lab_fields_call(self, monkeypatch, params, consts):
        x, y, t = verify._stencil_mesh(SPACE, TIME, 1e-4 + 1e-3, 1e-4)
        calls = _spy(monkeypatch, verify, "_lab_fields")
        verify._continuity_euler(x, y, t, params, consts, 1e-4, 1e-3)
        assert len(calls) == 1
        assert calls[0][1].shape == (17, x.size)

    def test_schrodinger_residual_one_psi_call(self, params, consts):
        x, y, t = verify._stencil_mesh(SPACE, TIME, 1e-4, 1e-4)
        shapes = []

        def psi(xx, yy, tt):
            shapes.append(xx.shape)
            return verify._psi_canonical(xx, yy, tt, params, consts)

        verify._schrodinger_residual(x, y, t, params, 1e-4, psi)
        assert shapes == [(7, x.size)]

    def test_two_level_one_fn_call(self, consts):
        sizes = []
        w = analysis._c_fn(consts)

        def fn(z):
            sizes.append(z.size)
            return w(z) ** 2

        edges = np.linspace(0.5, 30.0, 12)
        analysis._two_level(fn, edges[:-1], edges[1:])
        assert sizes == [3 * 11 * 10]

    def test_non_finite_psi_names_the_first_stencil_point(self, capsys):
        # the stacked call names the point a call per set names first
        code = cli.main(["verify", "--which", "schrodinger", "--m", "1e300", "--hbar", "1e-10"])
        assert code == 3
        assert capsys.readouterr().err == (
            "error: psi_re is not finite at x = 0.375, y = 0.625, t = 1.0\n")


class TestParserBuiltOnce:
    def test_same_parser_object(self):
        assert cli._build_parser() is cli._build_parser()

    def test_repeated_main_calls_match_fresh_processes(self, capsys, monkeypatch):
        # a usage error between two commands leaves the cached parser as it
        # was: every call prints the bytes of its own fresh process
        monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage text to it
        argvs = [["eval", "--field", "f", "--eta", "1:2:5"],
                 ["eval", "--field", "nope"],
                 ["zeros", "--range", "0.1:10", "--max-roots", "3", "--m", "2"]]
        env = dict(os.environ, COLUMNS="80",
                   PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
        for argv in argvs:
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse usage errors
                code = exc.code
            out, err = capsys.readouterr()
            fresh = subprocess.run([sys.executable, "-m", "madelung.cli", *argv], env=env,
                                   capture_output=True, text=True, check=False)
            assert (code, out, err) == (fresh.returncode, fresh.stdout, fresh.stderr)
