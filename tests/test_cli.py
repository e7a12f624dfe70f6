import hashlib
import math
import tracemalloc

import numpy as np
import pytest

from madelung import cli, core
from madelung.cli import CsvTable, RunConfig, emit, main, parse_grid
from madelung.errors import DomainError
from madelung.specfun import DEFAULT_ACCURACY

import reference_values as ref


def run_cli(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCsvTable:
    def test_round_trip_17_digits(self):
        values = [0.1, 1.0 / 3.0, math.pi, 1e-300, 6.0002282242149123, -2.5e17]
        table = CsvTable(["v"], [values])
        lines = table.render().strip().split("\n")[1:]
        for line, v in zip(lines, values):
            assert float(line) == v

    def test_sentinel_and_flags(self):
        table = CsvTable(["a", "b", "flag"], [[1.0], [None], ["near_pole"]])
        assert table.render() == "a,b,flag\n1,,near_pole\n"

    def test_ragged_rejected(self):
        with pytest.raises(ValueError):
            CsvTable(["a", "b"], [[1.0]]).render()


def reference_csv(header, columns):
    """Cell-by-cell formatter: format(v, ".17g"), and "" for None or NaN."""
    def cell(v):
        if v is None:
            return ""
        if isinstance(v, str):
            return v
        v = float(v)
        return "" if math.isnan(v) else format(v, ".17g")

    lines = [",".join(header)] + [",".join(cell(v) for v in row) for row in zip(*columns)]
    return "\n".join(lines) + "\n"


class TestCsvWriter:
    SPECIALS = [-0.0, 0.0, math.inf, -math.inf, 5e-324, -5e-324, 1.7976931348623157e308,
                2.2250738585072014e-308, 3.0, -7.0, 1e16, 0.1, 1.0 / 3.0, -2.5e17]

    @staticmethod
    def file_config(path):
        return RunConfig(core.PhysicalParams(m=1.0), core.SolutionConstants(c1=1.0, c2=1.0),
                         DEFAULT_ACCURACY, output_path=str(path))

    def columns(self, n):
        chunk = cli.CHUNK_ROWS
        rng = np.random.default_rng(n)
        a = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
        a[:min(n, len(self.SPECIALS))] = self.SPECIALS[:n]
        # blank cells at both ends and on both sides of the first chunk boundary
        blanks = sorted({i for i in (0, chunk - 1, chunk, n - 1) if 0 <= i < n})
        b = [float(v) for v in rng.uniform(-1.0, 1.0, n)]
        c = np.arange(n, dtype=float)
        flag = [""] * n
        for i in blanks:
            b[i] = None
            c[i] = np.nan
            flag[i] = "near_pole"
        return ["a", "b", "index", "flag"], [a, b, c, flag]

    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_matches_reference_at_chunk_edges(self, tmp_path, offset):
        header, cols = self.columns(cli.CHUNK_ROWS + offset)
        expected = reference_csv(header, cols)
        assert CsvTable(header, cols).render() == expected
        out = tmp_path / "t.csv"
        emit(CsvTable(header, cols), self.file_config(out))
        assert out.read_bytes() == expected.encode()

    @pytest.mark.parametrize("n", [0, 1, len(SPECIALS)])
    def test_short_tables(self, n):
        header, cols = self.columns(n)
        assert CsvTable(header, cols).render() == reference_csv(header, cols)

    def test_columns_of_unequal_length_rejected(self):
        with pytest.raises(ValueError):
            CsvTable(["a", "b"], [[1.0, 2.0], [1.0]]).render()

    def test_emit_memory_bounded_by_chunks(self, tmp_path):
        # 2e5 x 2 rows make ~7.9 MB of text; the writer may hold a few
        # chunks at ~64 bytes per cell (list slot, float object, text), not
        # the document
        n = 200_000
        eta = np.geomspace(0.1, 50.0, n)
        f = np.sin(eta)
        cfg = self.file_config(tmp_path / "big.csv")
        tracemalloc.start()
        try:
            emit(CsvTable(["eta", "f"], [eta, f]), cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (tmp_path / "big.csv").stat().st_size > 7_000_000
        assert peak <= 4 * cli.CHUNK_ROWS * 2 * 64


class TestGridGrammar:
    def test_parse(self):
        g = parse_grid("0.1:50:1000:log")
        assert (g.start, g.stop, g.count, g.spacing) == (0.1, 50.0, 1000, "log")
        assert parse_grid("1:2:5").spacing == "uniform"

    @pytest.mark.parametrize("text", ["1:2", "1:2:3:cubic", "1:2:3:4:5"])
    def test_rejects_bad_specs(self, text):
        with pytest.raises(DomainError):
            parse_grid(text)


class TestEval:
    def test_f_contract(self, capsys):
        code, out, _ = run_cli(capsys, [
            "eval", "--field", "f", "--m", "1", "--c1", "1", "--c2", "1",
            "--eta", "0.1:50:1000:log"])
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "eta,f"
        assert len(lines) == 1001
        first = lines[1].split(",")
        assert float(first[0]) == pytest.approx(0.1)
        assert float(first[1]) > 0.0

    def test_deterministic_output(self, capsys):
        argv = ["eval", "--field", "f", "--eta", "0.5:5:50:log"]
        _, out1, _ = run_cli(capsys, argv)
        _, out2, _ = run_cli(capsys, argv)
        assert out1 == out2

    def test_q_rows_near_pole_flagged(self, capsys):
        eta0 = ref.ROOT_ETAS[0]
        code, out, _ = run_cli(capsys, [
            "eval", "--field", "Q", "--eta", f"{eta0!r}:4.0:2"])
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "eta,Q,flag"
        cells = lines[1].split(",")
        assert cells[1] == ""
        assert cells[2] == "near_pole"
        assert lines[2].split(",")[2] == ""

    def test_lab_field(self, capsys):
        code, out, _ = run_cli(capsys, [
            "eval", "--field", "S", "--x", "1.0", "--y", "1.0", "--t", "1.0"])
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "x,y,t,S"
        assert float(lines[1].split(",")[3]) == 1.0

    def test_domain_violation_exit_2(self, capsys):
        code, _, err = run_cli(capsys, [
            "eval", "--field", "f", "--eta=-1:5:10"])
        assert code == 2
        assert "error" in err


class TestVerifyCommand:
    def test_ode5_passes(self, capsys):
        code, out, _ = run_cli(capsys, ["verify", "--which", "ode5"])
        assert code == 0
        assert "equation=ode5" in out
        assert "status=pass" in out

    def test_phase_reports_without_failing(self, capsys):
        code, out, _ = run_cli(capsys, ["verify", "--which", "phase"])
        assert code == 0
        assert "equation=phase_gradient" in out
        assert "status=report" in out
        assert "gradient_over_velocity_mean = 2" in out

    def test_qpotential_reports_without_failing(self, capsys):
        code, out, _ = run_cli(capsys, ["verify", "--which", "qpotential"])
        assert code == 0
        assert "eq9/direct ratio" in out

    def test_all_aggregates_seven_reports_and_flags_lab_frame(self, capsys):
        code, out, _ = run_cli(capsys, ["verify", "--which", "all"])
        assert out.count("equation=") == 7
        for eq in ("ode5", "ode_system4", "continuity", "euler_x", "euler_y",
                   "schrodinger", "phase_gradient"):
            assert f"equation={eq}" in out
        # the lab-frame momentum and wave equations are genuinely violated
        # by the printed closed forms, so the aggregate run fails honestly
        assert code == 3
        assert "equation=euler_x" in out and "status=fail" in out

    def test_output_csv(self, capsys, tmp_path):
        path = tmp_path / "points.csv"
        code, out, _ = run_cli(capsys, [
            "verify", "--which", "ode5", "--output", str(path)])
        assert code == 0
        header = path.read_text().split("\n", 1)[0]
        assert header.startswith("equation,eta,residual")


class TestZerosCommand:
    def test_default_run(self, capsys):
        code, out, _ = run_cli(capsys, ["zeros", "--range", "0.1:30"])
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "index,eta_star,q_pole_eta,separation"
        assert len(lines) >= 6
        for line in lines[1:]:
            cells = line.split(",")
            assert float(cells[3]) <= 1e-8

    def test_c2_zero_pole_structure(self, capsys):
        code, out, _ = run_cli(capsys, [
            "zeros", "--c2", "0", "--range", "0.1:10", "--max-roots", "1"])
        assert code == 0
        eta1 = float(out.strip().split("\n")[1].split(",")[1])
        assert eta1**2 / (4.0 * math.sqrt(2.0)) == pytest.approx(
            ref.FIRST_ZERO_J14, abs=1e-9)

    def test_empty_range_diagnostic(self, capsys):
        code, _, err = run_cli(capsys, ["zeros", "--range", "0.1:1.0"])
        assert code == 3
        assert "no density zero" in err


class TestIntegrateCommand:
    def test_contract(self, capsys):
        code, out, _ = run_cli(capsys, ["integrate", "--limits", "10,100"])
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "H,F,err"
        f10 = float(lines[1].split(",")[1])
        f100 = float(lines[2].split(",")[1])
        assert f10 == pytest.approx(ref.F_INTEGRALS[10.0], abs=1e-9)
        assert f100 >= f10
        assert "tail fit (log):" in out
        assert "tail fit (1/H):" in out
        assert "verdict:" in out


class TestFigureCommand:
    def test_fig1_header(self, capsys):
        code, out, _ = run_cli(capsys, ["figure", "fig1"])
        assert code == 0
        assert out.split("\n", 1)[0] == "eta,f_m1,f_m0p5"

    def test_fig2_header(self, capsys):
        code, out, _ = run_cli(capsys, ["figure", "fig2"])
        assert code == 0
        assert out.split("\n", 1)[0] == "x,t,re_psi"

    def test_fig3_header_and_pole_sentinel(self, capsys):
        eta0 = ref.ROOT_ETAS[0]
        code, out, _ = run_cli(capsys, [
            "figure", "fig3", "--config", "/dev/null"])
        assert code == 0
        assert out.split("\n", 1)[0] == "eta,f,Q"

    def test_unknown_figure_usage_error(self, capsys):
        code, _, err = run_cli(capsys, ["figure", "fig9"])
        assert code == 2
        assert "invalid choice" in err


class TestConfigFile:
    def test_file_values_and_flag_override(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# sample configuration\n"
            "m = 2.0\n"
            "c1 = 1.0  # weight\n"
            "c2 = 0.5\n"
            "grid.eta = 1:2:4\n")
        code, out_file, _ = run_cli(capsys, [
            "eval", "--field", "f", "--config", str(cfg)])
        assert code == 0
        lines = out_file.strip().split("\n")
        assert len(lines) == 5  # header + 4 grid points from the config grid
        code, out_flag, _ = run_cli(capsys, [
            "eval", "--field", "f", "--config", str(cfg), "--m", "1.0"])
        assert out_flag != out_file  # flag overrides the file mass

    def test_unknown_key_exit_2(self, capsys, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("masses = 2.0\n")
        code, _, err = run_cli(capsys, ["eval", "--field", "f", "--config", str(cfg)])
        assert code == 2
        assert "unknown config keys" in err

    def test_output_file_matches_stdout(self, capsys, tmp_path):
        argv = ["eval", "--field", "f", "--eta", "0.5:5:20"]
        _, stdout_text, _ = run_cli(capsys, argv)
        path = tmp_path / "out.csv"
        code, _, _ = run_cli(capsys, argv + ["--output", str(path)])
        assert code == 0
        assert path.read_text() == stdout_text


# raster whose eta = (x + y)/sqrt(t) runs from ~0.2 to 14.5, so that
# z = eta^2/(4 sqrt(2)) crosses the Bessel switch points z = 8, 12 and 20
LAB_RASTER = ["--x", "0.25:14:56", "--y", "0:0.5:2", "--t", "1:1.5:3"]


def lab_rows(out):
    lines = out.strip().split("\n")
    return lines[0], [tuple(float(c) for c in line.split(",")) for line in lines[1:]]


class TestLabEvalVectorized:
    """CLI lab eval against the scalar core API, point by point, as the reference."""

    @staticmethod
    def scalar(name, x, y, t, params, consts):
        p = core.LabPoint(x, y, t)
        if name == "rho":
            return core.density(p, params, consts)
        if name in ("u", "v"):
            return core.velocity(p, params, consts)["uv".index(name)]
        if name == "S":
            return core.phase(p, params)
        w = core.wavefunction_canonical(p, params, consts)
        return w.re if name == "psi_re" else w.im

    @pytest.mark.parametrize("name", ["rho", "u", "v", "S", "psi_re", "psi_im"])
    def test_matches_scalar_api(self, capsys, params, consts, name):
        code, out, _ = run_cli(capsys, ["eval", "--field", name] + LAB_RASTER)
        assert code == 0
        header, rows = lab_rows(out)
        assert header == f"x,y,t,{name}"
        xs = np.linspace(0.25, 14.0, 56)
        order = [(x, y, t) for t in (1.0, 1.25, 1.5) for y in (0.0, 0.5) for x in xs]
        assert [r[:3] for r in rows] == order
        got = np.array([r[3] for r in rows])
        want = np.array([self.scalar(name, x, y, t, params, consts) for x, y, t in order])
        if name in ("u", "v", "S"):
            assert np.array_equal(got, want)
        else:
            # the array kernels sum and recur per array, not per point, so
            # values differ at rounding level; measured against the largest
            # magnitude of the same (t, y) row
            envelope = np.abs(want).reshape(6, 56).max(axis=1).repeat(56)
            assert np.max(np.abs(got - want) / envelope) <= 1e-11

    @pytest.mark.parametrize("name", ["rho", "u", "v", "S", "psi_re", "psi_im"])
    def test_nonpositive_t_exit_2(self, capsys, name):
        code, _, err = run_cli(capsys, [
            "eval", "--field", name, "--x", "1:2:3", "--t", "0:1:2"])
        assert code == 2
        assert "t must be positive" in err

    @pytest.mark.parametrize("name", ["rho", "u", "v", "psi_re", "psi_im"])
    def test_nonpositive_sum_exit_2(self, capsys, name):
        code, _, err = run_cli(capsys, [
            "eval", "--field", name, "--x=-2:2:5", "--y", "0.5", "--t", "1"])
        assert code == 2
        assert "x + y must be positive" in err

    def test_phase_evaluates_at_nonpositive_sum(self, capsys, params):
        code, out, _ = run_cli(capsys, [
            "eval", "--field", "S", "--x=-2:2:5", "--y", "0.5", "--t", "1"])
        assert code == 0
        _, rows = lab_rows(out)
        assert [r[3] for r in rows] == [
            self.scalar("S", x, 0.5, 1.0, params, None) for x in (-2.0, -1.0, 0.0, 1.0, 2.0)]

    # SHA-256 of the CSV written by the per-point implementation; u, v and S
    # involve only IEEE + - * / and sqrt, so the digests are portable
    GOLDEN = {
        ("u", "default"): "03e0bbfba973af9622ea4858986266164fe86bd29f0a70f81e5886d7a942911b",
        ("v", "default"): "8de7a93fbee62f3994f661a36b7274a079df2b233868e4eb15afd8fde6f6527a",
        ("S", "default"): "1af25116c50e4ccb79e3293dc51748957daf3563d074ddbab9a04887a21c0ed1",
        ("u", "params"): "9523669f16278cc21a790fde6d7e97b4cbcfaaa90b739d2ee026336c7c2465f3",
        ("v", "params"): "991043a25cc3f39d241cd48a42fec347ccedefe50a99dbc6256449ad9f28499d",
        ("S", "params"): "740a8e65cb1af3b4f2d0637dcbda40e7a5588be29eaa59325bdf12dcfe4f8735",
    }
    PARAMS = ["--m", "1.5", "--hbar", "0.7", "--c0", "0.3", "--c1", "0.4",
              "--c2", "-1.2", "--dim", "3"]

    @pytest.mark.parametrize("name,variant", list(GOLDEN))
    def test_golden_digest(self, capsys, name, variant):
        extra = self.PARAMS if variant == "params" else []
        code, out, _ = run_cli(capsys, ["eval", "--field", name] + LAB_RASTER + extra)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == self.GOLDEN[(name, variant)]

    def test_golden_digest_negative_grid_start(self, capsys):
        code, out, _ = run_cli(capsys, [
            "eval", "--field", "S", "--x=-3:1:5", "--y", "0.5", "--t", "0.5:2:2"])
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "d6b69d2518d96a53b9a30bbc6847a282a18e94635cc72b879713a9ef8a7813cc")


class TestInputContract:
    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_nonfinite_c1_exit_2(self, capsys, value):
        code, out, err = run_cli(capsys, [
            "eval", "--field", "f", "--eta", "1:2:2", "--c1", value])
        assert code == 2
        assert out == ""
        assert "must be finite" in err

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("argv,where", [
        (["--field", "rho", "--x", "0.5:1:3", "--t", "1"],
         "rho is not finite at x = 0.5, y = 0.0, t = 1.0"),
        (["--field", "psi_re", "--x", "0.5:1:3", "--t", "1"], "psi_re is not finite at x = 0.5"),
        (["--field", "f", "--eta", "1:2:2"], "f is not finite at eta = 1.0"),
        (["--field", "Q", "--eta", "1:2:2"], "Q is not finite at eta = 1.0"),
    ])
    def test_nonfinite_output_exit_3_names_row(self, capsys, argv, where):
        code, out, err = run_cli(capsys, ["eval"] + argv + ["--m", "1e300"])
        assert code == 3
        assert out == ""
        assert where in err

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("argv,line", [
        (["--field", "Q", "--m", "1e200"], "error: Q is not finite at eta = 0.5\n"),
        (["--field", "f", "--m", "1e300"], "error: f is not finite at eta = 0.5\n"),
    ], ids=["Q", "f"])
    def test_nonfinite_output_leaves_only_the_error_line(self, capsys, argv, line):
        # numpy's overflow and divide-by-zero warnings must not reach stderr
        code, out, err = run_cli(capsys, ["eval", "--eta", "0.5:10:20"] + argv)
        assert code == 3
        assert out == ""
        assert err == line

    @pytest.mark.parametrize("field", ["f", "Q"])
    def test_eta_underflowing_z_exit_2(self, capsys, field):
        code, out, err = run_cli(capsys, [
            "eval", "--field", field, "--eta", "1e-200:1e-199:3"])
        assert code == 2
        assert out == ""
        assert "underflows to 0 at eta = 1e-200" in err

    def test_fd_step_zero_exit_2(self, capsys):
        code, _, err = run_cli(capsys, ["verify", "--which", "pde", "--fd-step", "0"])
        assert code == 2
        assert "--fd-step must be finite and positive" in err

    @pytest.mark.parametrize("tol", ["0", "-1", "inf", "nan"])
    def test_nonpositive_tol_exit_2(self, capsys, tol):
        code, _, err = run_cli(capsys, ["integrate", "--limits", "10", "--tol", tol])
        assert code == 2
        assert "--tol must be finite and positive" in err
