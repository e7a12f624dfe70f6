import contextlib
import hashlib
import io
import math
import os
import signal
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from madelung import cli, core, specfun
from madelung.cli import CsvTable, RunConfig, emit, main, parse_grid
from madelung.errors import DomainError

import reference_values as ref


def render(table):
    """The text CsvTable.write gives, as one string."""
    buf = io.StringIO()
    table.write(buf)
    return buf.getvalue()


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
        lines = render(table).strip().split("\n")[1:]
        for line, v in zip(lines, values):
            assert float(line) == v

    def test_sentinel_and_flags(self):
        table = CsvTable(["a", "b", "flag"], [[1.0], [None], ["near_pole"]])
        assert render(table) == "a,b,flag\n1,,near_pole\n"

    def test_ragged_rejected(self):
        with pytest.raises(ValueError):
            render(CsvTable(["a", "b"], [[1.0]]))


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
                         output_path=str(path))

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
        assert render(CsvTable(header, cols)) == expected
        out = tmp_path / "t.csv"
        emit(CsvTable(header, cols), self.file_config(out))
        assert out.read_bytes() == expected.encode()

    @pytest.mark.parametrize("n", [0, 1, len(SPECIALS)])
    def test_short_tables(self, n):
        header, cols = self.columns(n)
        assert render(CsvTable(header, cols)) == reference_csv(header, cols)

    @pytest.mark.parametrize("n", [cli.CHUNK_ROWS + 300, 2 * cli.CHUNK_ROWS + 1])
    def test_blank_patterns_changing_within_and_across_chunks(self, n):
        # runs of rows share a blank pattern: single rows, short and long
        # runs, one run straddling the first chunk boundary, rows with no
        # blank and rows with every number blank
        rng = np.random.default_rng(n)
        nums = [rng.standard_normal(n) * 10.0 ** rng.integers(-30, 30, n) for _ in range(4)]
        masks = np.zeros((n, 4), dtype=bool)
        row = 0
        while row < n:
            run = int(rng.choice([1, 1, 2, 3, 17, 600]))
            masks[row:row + run] = rng.integers(0, 2, 4).astype(bool)
            row += run
        masks[cli.CHUNK_ROWS - 40:cli.CHUNK_ROWS + 40] = [True, False, True, False]
        masks[5:8] = True
        masks[8:11] = False
        for col, mask in zip(nums, masks.T):
            col[mask] = np.nan
        listed = [None if v != v else float(v) for v in nums[1]]
        equation = [("ode5", "continuity", "euler_x")[i % 3] for i in range(n)]
        header = ["equation", "a", "b", "c", "d"]
        cols = [equation, nums[0], listed, nums[2], nums[3]]
        assert render(CsvTable(header, cols)) == reference_csv(header, cols)

    def test_columns_of_unequal_length_rejected(self):
        with pytest.raises(ValueError):
            render(CsvTable(["a", "b"], [[1.0, 2.0], [1.0]]))

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

    def test_wide_mostly_blank_table_memory_bounded_by_cells(self, tmp_path):
        # the shape of the stacked `verify --which all` table: 4735 rows of a
        # text column and 16 float columns, each report filling a few; a
        # write formats at most CHUNK_CELLS cells, so the two-column bound
        # holds (CHUNK_ROWS rows of all 17 columns at a time peak at ~5 MB)
        rng = np.random.default_rng(4735)
        edges = [0, 2000, 4000, 4147, 4294, 4441, 4588, 4735]
        equation = np.repeat(["ode5", "ode_system4", "continuity", "euler_x", "euler_y",
                              "schrodinger", "phase_gradient"], np.diff(edges))
        nums = [np.full(edges[-1], np.nan) for _ in range(16)]
        for lo, hi in zip(edges[:-1], edges[1:]):
            for j in rng.choice(16, 5, replace=False):
                nums[j][lo:hi] = rng.standard_normal(hi - lo) * 10.0 ** rng.integers(-20, 20)
        header = ["equation"] + [f"c{j}" for j in range(16)]
        table = CsvTable(header, [equation] + nums)
        cfg = self.file_config(tmp_path / "wide.csv")
        tracemalloc.start()
        try:
            emit(table, cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (tmp_path / "wide.csv").read_text() == reference_csv(header, [equation] + nums)
        assert peak <= 4 * cli.CHUNK_ROWS * 2 * 64

    # the parallel path: forked workers write all parts of a table but the first

    @staticmethod
    def force_parts(monkeypatch, cpus, min_chunks=1):
        """Report `cpus` usable CPUs and a threshold of `min_chunks` chunks per
        process; returns the list that counts the writer's forks."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        monkeypatch.setattr(cli, "PARALLEL_MIN_CHUNKS", min_chunks)
        forks = []
        fork = os.fork

        def counting_fork():
            forks.append(1)
            return fork()

        monkeypatch.setattr(os, "fork", counting_fork)
        return forks

    @staticmethod
    def assert_no_children():
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @staticmethod
    def serial(monkeypatch, write):
        with monkeypatch.context() as m:
            m.setattr(cli, "PARALLEL_MIN_CHUNKS", 10**9)
            return write()

    def boundary_columns(self, n, bounds):
        # blank cells and near_pole flags on both sides of every part
        # boundary, and a blank run that straddles each of them
        header, cols = self.columns(n)
        a, b, c, flag = cols
        for edge in bounds[1:-1]:
            for i in (edge - 2, edge - 1, edge, edge + 1):
                b[i] = None
                flag[i] = "near_pole"
            c[edge - 5:edge + 5] = np.nan
        return header, cols

    @pytest.mark.parametrize("cpus,nrows", [
        (3, 3 * cli.CHUNK_ROWS + 1000),  # a row count off the chunk grid
        (3, 3 * cli.CHUNK_ROWS),
        (4, 9 * cli.CHUNK_ROWS - 1),
        (2, 2 * cli.CHUNK_ROWS + 1),
    ])
    def test_forked_parts_match_serial(self, monkeypatch, cpus, nrows):
        forks = self.force_parts(monkeypatch, cpus)
        bounds = cli._part_bounds(nrows)
        nchunks = -(-nrows // cli.CHUNK_ROWS)
        assert len(bounds) - 1 == min(cpus, nchunks)
        assert all(b % cli.CHUNK_ROWS == 0 for b in bounds[:-1]) and bounds[-1] == nrows
        header, cols = self.boundary_columns(nrows, bounds)
        expected = self.serial(monkeypatch, lambda: render(CsvTable(header, cols)))
        assert expected == reference_csv(header, cols)
        assert render(CsvTable(header, cols)) == expected
        assert len(forks) == len(bounds) - 2
        self.assert_no_children()

    @pytest.mark.parametrize("min_chunks", [1, 3])
    def test_threshold_in_chunks_per_process(self, monkeypatch, min_chunks):
        forks = self.force_parts(monkeypatch, 2, min_chunks)
        below = (2 * min_chunks - 1) * cli.CHUNK_ROWS  # one chunk short of two parts
        assert cli._part_bounds(below) == [0, below]
        for nrows in (below + 1, 2 * min_chunks * cli.CHUNK_ROWS):
            assert cli._part_bounds(nrows) == [0, min_chunks * cli.CHUNK_ROWS, nrows]
        for nrows in (below, below + 1):
            header, cols = self.columns(nrows)
            before = len(forks)
            text = render(CsvTable(header, cols))
            assert len(forks) - before == (nrows > below)
            assert text == reference_csv(header, cols)
        self.assert_no_children()

    def test_one_cpu_or_live_thread_stays_serial(self, monkeypatch):
        nrows = 4 * cli.CHUNK_ROWS
        forks = self.force_parts(monkeypatch, 4)
        assert len(cli._part_bounds(nrows)) == 5
        with monkeypatch.context() as m:
            m.setattr(os, "sched_getaffinity", lambda pid: {0})
            assert cli._part_bounds(nrows) == [0, nrows]
        stop = threading.Event()
        thread = threading.Thread(target=stop.wait)
        thread.start()
        try:
            assert cli._part_bounds(nrows) == [0, nrows]
            header, cols = self.columns(nrows)
            render(CsvTable(header, cols))
        finally:
            stop.set()
            thread.join(timeout=10)
        assert not thread.is_alive()
        assert forks == []

    ETA_ARGV = ["eval", "--field", "f", "--eta", "0.1:50:20000:log"]

    def test_stdout_target_carries_the_header_once(self, monkeypatch, tmp_path):
        # a real buffered stdout: a worker that flushed its copy of the
        # parent's buffer would repeat the header
        def run(path):
            with open(path, "w", encoding="utf-8") as fh, monkeypatch.context() as m:
                m.setattr(sys, "stdout", fh)
                code = main(self.ETA_ARGV)
            return code, path.read_text(encoding="utf-8")

        code, serial_text = self.serial(monkeypatch, lambda: run(tmp_path / "serial.csv"))
        forks = self.force_parts(monkeypatch, 3)
        assert run(tmp_path / "forked.csv") == (0, serial_text)
        assert len(forks) == 2
        assert serial_text.count("eta,f") == 1 and serial_text.startswith("eta,f\n")
        self.assert_no_children()

    def test_failing_worker_exit_2(self, capsys, monkeypatch, tmp_path):
        forks = self.force_parts(monkeypatch, 3)
        write_rows = cli._write_rows

        def failing_in_workers(fh, cols, fmts, lo, hi):
            if lo > 0:
                raise OSError("disk full")
            write_rows(fh, cols, fmts, lo, hi)

        monkeypatch.setattr(cli, "_write_rows", failing_in_workers)
        code, _, err = run_cli(capsys, self.ETA_ARGV + ["--output", str(tmp_path / "t.csv")])
        assert code == 2
        assert err == ("error: csv writer worker for rows 4096:12288 failed "
                       "with status 1: OSError: disk full\n")
        assert len(forks) == 2
        self.assert_no_children()

    def test_killed_worker_exit_2(self, capsys, monkeypatch, tmp_path):
        self.force_parts(monkeypatch, 2)
        write_rows = cli._write_rows

        def killed_in_workers(fh, cols, fmts, lo, hi):
            if lo > 0:
                os.kill(os.getpid(), signal.SIGKILL)
            write_rows(fh, cols, fmts, lo, hi)

        monkeypatch.setattr(cli, "_write_rows", killed_in_workers)
        code, _, err = run_cli(capsys, self.ETA_ARGV + ["--output", str(tmp_path / "t.csv")])
        assert code == 2
        assert err.startswith("error: csv writer worker for rows 8192:20000 failed")
        assert err.endswith(f"with status {-signal.SIGKILL}\n")
        self.assert_no_children()

    def test_broken_pipe_as_in_serial(self, capsys, monkeypatch):
        # the reader of stdout has gone away, as after `| head`
        def run():
            read_end, write_end = os.pipe()
            os.close(read_end)
            fh = os.fdopen(write_end, "w", encoding="utf-8")
            try:
                with monkeypatch.context() as m:
                    m.setattr(sys, "stdout", fh)
                    code = main(self.ETA_ARGV)
            finally:
                with contextlib.suppress(BrokenPipeError):
                    fh.close()
            return code, capsys.readouterr().err

        serial = self.serial(monkeypatch, run)
        assert serial == (2, "error: [Errno 32] Broken pipe\n")
        forks = self.force_parts(monkeypatch, 3)
        assert run() == serial
        assert len(forks) == 2
        self.assert_no_children()


SPECIAL_BITS = [0, 1 << 63, 1, 0x000F_FFFF_FFFF_FFFF, 0x0010_0000_0000_0000,
                0x7FEF_FFFF_FFFF_FFFF, 0x7FF0_0000_0000_0000, 0xFFF0_0000_0000_0000,
                0x7FF8_0000_0000_0000, 0xFFF8_0000_0000_0000, 0x7FF0_0000_0000_0001]


def signed(value_strategy):
    return st.tuples(value_strategy, st.booleans()).map(lambda t: -t[0] if t[1] else t[0])


def bits_to_floats(bits):
    return np.array(bits, dtype=np.uint64).view(np.float64)


# any 64-bit pattern, with extra weight on the special values and subnormals
BITS = st.one_of(st.integers(0, 2 ** 64 - 1), st.sampled_from(SPECIAL_BITS),
                 st.tuples(st.integers(1, 2 ** 52 - 1), st.booleans()).map(
                     lambda t: t[0] | (t[1] << 63)))


@st.composite
def eighteen_digit_ties(draw):
    # m 2**-k with m odd is exactly m 5**k 10**-k, a tie of the 17-digit
    # rounding when m 5**k has 18 digits; m < 2**53 keeps it a double
    k = draw(st.integers(2, 25))
    lo, hi = -(-10 ** 17 // 5 ** k), min((10 ** 18 - 1) // 5 ** k, 2 ** 53 - 1)
    m = 2 * draw(st.integers(lo // 2, (hi - 1) // 2)) + 1
    assert len(str(m * 5 ** k)) == 18
    return m / 2 ** k


# where %g switches between the fixed and the exponent form, and a value
# that rounds up to the next power of ten
FORM_EDGES = [1e-5, 1e-4, 1e16, 1e17, 99999999999999999.0]


@st.composite
def near_form_edges(draw):
    edge = np.float64(draw(st.sampled_from(FORM_EDGES))).view(np.int64)
    return float((edge + draw(st.integers(-3000, 3000))).view(np.float64))


class TestFloatText:
    """The vectorized %.17g text, byte for byte against reference_csv."""

    @staticmethod
    def assert_renders(values, text=None):
        header, cols = ["v"], [np.asarray(values, dtype=float)]
        if text is not None:
            header, cols = ["v", "s"], cols + [np.asarray(text, dtype=str)]
        assert render(CsvTable(header, cols)) == reference_csv(header, cols)

    @given(st.lists(BITS, min_size=1, max_size=64))
    @settings(max_examples=300, deadline=None)
    def test_raw_bit_patterns(self, bits):
        # subnormals, +-0 and +-inf print as %.17g does; NaN is blank
        self.assert_renders(bits_to_floats(bits))

    @staticmethod
    def powers_of_ten_and_neighbours():
        tens = np.array([float(f"1e{k}") for k in range(-323, 309)])
        values = np.concatenate([tens, np.nextafter(tens, 0.0), np.nextafter(tens, np.inf)])
        return np.concatenate([values, -values])

    def test_every_power_of_ten_and_its_neighbours(self):
        self.assert_renders(self.powers_of_ten_and_neighbours())

    @pytest.mark.parametrize("error", [-1e-9, 1e-9])
    def test_misestimated_exponents_take_the_fallback(self, monkeypatch, error):
        # a log10 a few ulps off puts e one off next to a power of ten; such
        # a cell must take the slow path, not print its digits a place off
        from madelung import csvtext

        class SkewedNumpy:
            def __getattr__(self, name):
                return getattr(np, name)

            @staticmethod
            def log10(x):
                return np.log10(x) + error

        monkeypatch.setattr(csvtext, "np", SkewedNumpy())
        self.assert_renders(self.powers_of_ten_and_neighbours())

    @given(st.lists(signed(eighteen_digit_ties()), min_size=1, max_size=32))
    @settings(max_examples=200, deadline=None)
    def test_exact_ties_at_the_18th_digit(self, values):
        self.assert_renders(values)

    @given(st.lists(signed(near_form_edges()), min_size=1, max_size=32))
    @settings(max_examples=200, deadline=None)
    def test_fixed_and_exponent_form_edges(self, values):
        self.assert_renders(values)

    @given(st.lists(st.tuples(st.floats(allow_nan=True, allow_infinity=True),
                              st.text(st.characters(blacklist_categories=("Cs",),
                                                    blacklist_characters="\0"),
                                      max_size=12)),
                    min_size=1, max_size=32))
    @settings(max_examples=200, deadline=None)
    def test_text_column_of_any_characters(self, rows):
        values, text = zip(*rows)
        self.assert_renders(values, text)

    def test_few_cells_of_a_tabulate_grid_take_the_fallback(self):
        # an `eval --field f` table of the benchmark's kind: a log eta grid
        # from z = 1e-3 to z = 66 and its f
        from madelung import csvtext

        params = core.PhysicalParams(m=1.3, dimension=2)
        consts = core.SolutionConstants(c1=0.7, c2=-1.2)
        k = params.m / (4.0 * math.sqrt(2.0))
        eta = np.geomspace(math.sqrt(1e-3 / k), math.sqrt(66.0 / k), 100_000)
        cells = np.concatenate([eta, core.shape_density(eta, params, consts)])
        slow = np.count_nonzero(~csvtext._digits(cells)[2])
        assert slow < 0.01 * len(cells)


class TestLazyImports:
    def test_eval_imports_neither_analysis_nor_verify(self):
        # each costs ~12 ms to import without bytecode caches; only the
        # subcommands that use them import them
        code = ("import contextlib, io, sys\n"
                "from madelung import cli\n"
                "def loaded():\n"
                "    return [m for m in ('madelung.analysis', 'madelung.verify')\n"
                "            if m in sys.modules]\n"
                "print(loaded())\n"
                "with contextlib.redirect_stdout(io.StringIO()):\n"
                "    cli.main(['eval', '--field', 'f', '--eta', '0.5:5:30'])\n"
                "    cli.main(['eval', '--field', 'rho', '--x', '1:2:3'])\n"
                "print(loaded())\n"
                "with contextlib.redirect_stdout(io.StringIO()):\n"
                "    cli.main(['verify', '--which', 'ode5'])\n"
                "print(loaded())\n")
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True)
        assert out.stdout.splitlines() == ["[]", "[]", "['madelung.verify']"]

    def test_cli_import_loads_no_csv_kernel(self):
        # the CSV kernel's module, which builds its tables on import, loads
        # with the first table written, so start-up pays for neither; and
        # nothing loads fractions or decimal
        code = ("import io, sys\n"
                "from madelung import cli\n"
                "mods = ('madelung.csvtext', 'fractions', 'decimal')\n"
                "print([m for m in mods if m in sys.modules])\n"
                "cli.CsvTable(['v'], [[0.5]]).write(io.StringIO())\n"
                "print([m for m in mods if m in sys.modules])\n")
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True)
        assert out.stdout.splitlines() == ["[]", "['madelung.csvtext']"]

    def test_grid_spec_is_one_class(self):
        from madelung import analysis, verify

        assert verify.GridSpec is core.GridSpec is analysis.GridSpec
        assert isinstance(parse_grid("1:2:3"), verify.GridSpec)


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

    def test_q_at_large_eta_matches_mpmath_or_exits_nonzero(self, capsys, params):
        # z reaches 7e17 here, where a phase z - nu pi/2 - pi/4 rounded in
        # double precision loses nu; Q is compared at the z the program
        # forms from each eta, since z itself carries a rounding of ~10
        mp = pytest.importorskip("mpmath")
        code, out, _ = run_cli(capsys, ["eval", "--field", "Q", "--eta", "1e9:2e9:3"])
        if code != 0:
            assert out == ""
            return
        rows = [line.split(",") for line in out.strip().split("\n")[1:]]
        assert len(rows) == 3
        with mp.workdps(30):
            for eta_cell, q_cell, flag in rows:
                eta = float(eta_cell)
                z = mp.mpf(float(core._z_arg(eta, params)))
                d = mp.besselj(0.25, z) - mp.bessely(0.25, z)
                dprime = mp.besselj(0.25, z, 1) - mp.bessely(0.25, z, 1)
                if flag == "near_pole":
                    assert q_cell == ""
                    assert abs(d / (dprime * 2 * z / eta)) < 1e-9
                    continue
                q = -mp.mpf(eta) / 8 * (1 - z * dprime / d) / d
                assert abs(float(q_cell) - q) <= 1e-10 * abs(q)

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

    @pytest.mark.parametrize("grid", ["-1:1:5", "-2:0:3"])
    def test_phase_nonpositive_space_grid_exit_2(self, capsys, tmp_path, grid):
        # s = x + y <= 0 is outside the lab fields' domain, as in lab eval
        cfg = tmp_path / "grid.cfg"
        cfg.write_text(f"grid.s = {grid}\n")
        code, out, err = run_cli(capsys, ["verify", "--which", "phase", "--config", str(cfg)])
        assert code == 2
        assert out == ""
        assert "x + y must be positive" in err

    def test_qpotential_reports_without_failing(self, capsys):
        code, out, _ = run_cli(capsys, ["verify", "--which", "qpotential"])
        assert code == 0
        assert "eq9/direct ratio" in out

    def test_qpotential_row_blank_when_either_side_excludes(self, capsys):
        # a density zero 1e-10 above eta = 1 lies inside eq. 9's 1e-9 radius
        # but outside the direct differences' guard at --fd-step 1e-13: the
        # row is blank in both columns
        z = core._z_arg(np.array([1.0 + 1e-10]), core.PhysicalParams(m=1.0))
        j, y = (float(v[0]) for v in specfun._jy(z, [("J", 0.25, 0), ("Y", 0.25, 0)]))
        code, out, _ = run_cli(capsys, ["verify", "--which", "qpotential", f"--c1={y!r}",
                                        f"--c2={j!r}", "--fd-step", "1e-13"])
        assert code == 0
        assert "over 13 points" in out and "\n1,,,\n" in out

    def test_qpotential_all_excluded_names_both_exclusions(self, capsys):
        # the eta grid is fixed, so the advice is the step: at --fd-step 0.01
        # every stencil reaches a density zero or leaves eta > 0
        code, out, err = run_cli(capsys, ["verify", "--which", "qpotential",
                                          "--fd-step", "0.01"])
        assert (code, err) == (0, "")
        message, header, *rows = out.strip().split("\n")
        assert "near a density zero" in message and "leaving eta > 0" in message
        assert "smaller --fd-step" in message and "grid" not in message
        assert header == "eta,q_eq9,q_direct,ratio"
        assert len(rows) == 14 and all(row.endswith(",,,") for row in rows)

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

    def test_empty_range_without_cap_writes_header_only(self, capsys):
        # max_roots = 0 sets no cap, so a range without zeros is not an error
        code, out, err = run_cli(capsys, ["zeros", "--range", "0.1:0.2", "--max-roots", "0"])
        assert (code, out, err) == (0, "index,eta_star,q_pole_eta,separation\n", "")

    def test_capped_scan_of_a_huge_range_builds_only_its_windows(self, capsys):
        # eta up to 1e5 is z up to 1.8e9, a 2.3e9-point mesh if built whole;
        # three roots need only the first window of it
        argv = ["zeros", "--max-roots", "3", "--range"]
        expected = run_cli(capsys, argv + ["0.1:30"])  # also imports what zeros needs
        tracemalloc.start()
        try:
            code, out, err = run_cli(capsys, argv + ["0.1:1e5"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, out, err) == expected
        assert len(out.strip().split("\n")) == 4
        assert peak < 1_000_000

    def test_scan_step_below_float_spacing_exit_2(self, capsys):
        # z = 1.8e17 has a float spacing of 32, far above the pi/4 scan step
        code, out, err = run_cli(capsys, ["zeros", "--range", "0.1:1e9", "--max-roots", "1"])
        assert (code, out) == (2, "")
        assert "too large to scan" in err


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

    @pytest.mark.parametrize("limits,why", [
        ("inf", "must be finite and positive"),
        ("nan", "must be finite and positive"),
        ("10,inf", "must be finite and positive"),
        ("1e200", "leaves the float range at H = 9.999999999999999e+198"),
    ])
    def test_nonfinite_or_overflowing_limit_exit_2(self, capsys, limits, why):
        # H = 1e200 is finite, but z = k H^2 is not
        code, out, err = run_cli(capsys, ["integrate", "--limits", limits])
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and why in err and err.count("\n") == 1

    def test_huge_limit_integrates_in_closed_form(self, capsys):
        # z = k H^2 = 1.8e159: the tail's remainder bound 1/(2 pi a^3) is 0
        code, out, err = run_cli(capsys, ["integrate", "--limits", "1e80"])
        assert (code, err) == (0, "")
        h, f, e = (float(v) for v in out.split("\n")[1].split(","))
        assert h == 1e80 and math.isfinite(f) and math.isfinite(e)
        # F grows like b ln H, with b = pi sqrt(2) (c1^2 + c2^2) hbar / (16 m)
        assert f == pytest.approx(1.0 + math.pi * math.sqrt(2.0) / 8.0 * math.log(1e80), rel=0.02)


    @pytest.mark.parametrize("flag", ["--c1", "--c2"])
    def test_overflowing_panel_is_nonfinite_f(self, capsys, flag):
        # w^2 overflows in the first Gauss panel: no bisection can resolve it,
        # so it is reported as the non-finite F it gives
        code, out, err = run_cli(capsys, ["integrate", flag, "1e200"])
        assert (code, out, err) == (3, "", "error: F is not finite at H = 10.0\n")

    def test_verdict_prints_the_fitted_coefficient(self, capsys):
        # b = 5.55e-201 by the integral law: the verdict prints it as the fit line does
        code, out, _ = run_cli(capsys, ["integrate", "--m", "1e200"])
        assert code == 0
        fit_b = out.split(" b=")[1].split()[0]
        verdict_b = out.split("F grows like ")[1].split()[0]
        assert verdict_b == fit_b and float(fit_b) > 0.0

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("m,c1,c2", [(1.0, 1.0, 1.0), (2.0, 3.0, -1.0)])
    def test_log_fit_gives_the_integral_law(self, capsys, m, c1, c2, dim):
        # b = pi sqrt(d) (c1^2 + c2^2) hbar / (16 m), over the default limits
        code, out, _ = run_cli(capsys, ["integrate", "--m", str(m), "--c1", str(c1),
                                        "--c2", str(c2), "--dim", str(dim)])
        assert code == 0
        b = float(out.split(" b=")[1].split()[0])
        law = math.pi * math.sqrt(dim) * (c1 * c1 + c2 * c2) / (16.0 * m)
        assert abs(b - law) <= 1e-5 * law


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
        return w.real if name == "psi_re" else w.imag

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
        # every value depends on its own point alone, so the whole raster
        # and the one-point scalar calls agree bit for bit
        assert np.array_equal(got, want)

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


class TestBlockSize:
    """Output bytes do not depend on the block size of core's array kernels.

    Block sizes 1 and 7 run on small grids, 4096 on grids that it splits;
    each is compared with the whole array in one block.
    """

    SMALL = {"f": ["--eta", "0.1:20:300:log"], "Q": ["--eta", "0.1:20:300:log"],
             "rho": ["--x", "0.2:12:60", "--y", "0.3", "--t", "0.5:2:3:log"],
             "psi_re": ["--x", "0.2:12:60", "--y", "0.3", "--t", "0.5:2:3:log"]}
    LARGE = {"f": ["--eta", "0.1:20:9000:log"], "Q": ["--eta", "0.1:20:9000:log"],
             "rho": ["--x", "0.2:12:3000", "--y", "0.3", "--t", "0.5:2:3:log"],
             "psi_re": ["--x", "0.2:12:3000", "--y", "0.3", "--t", "0.5:2:3:log"]}

    def digest(self, capsys, monkeypatch, name, grid, size):
        monkeypatch.setattr(core, "_BLOCK", size)
        code, out, _ = run_cli(capsys, ["eval", "--field", name] + grid)
        assert code == 0
        return hashlib.sha256(out.encode()).hexdigest()

    @pytest.mark.parametrize("name", list(SMALL))
    def test_same_bytes_at_every_block_size(self, capsys, monkeypatch, name):
        whole = 10**9
        small = {size: self.digest(capsys, monkeypatch, name, self.SMALL[name], size)
                 for size in (1, 7, whole)}
        assert len(set(small.values())) == 1
        large = {size: self.digest(capsys, monkeypatch, name, self.LARGE[name], size)
                 for size in (4096, whole)}
        assert len(set(large.values())) == 1


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

    @pytest.mark.parametrize("argv,line", [
        (["integrate", "--m", "1e200"], None),
        (["verify", "--which", "all", "--m", "1e200"],
         "error: ode5 residual is not finite at eta = 0.1\n"),
        (["verify", "--which", "ode5", "--hbar", "1e-200"],
         "error: ode5 residual is not finite at eta = 0.1\n"),
        (["verify", "--which", "qpotential", "--m", "1e200"],
         "error: q_eq9 is not finite at eta = 0.4\n"),
        (["figure", "fig3", "--m", "1e200"], "error: Q is not finite at eta = 0.05\n"),
        (["figure", "fig3", "--hbar", "1e-200"], "error: Q is not finite at eta = 0.05\n"),
        (["figure", "fig1", "--c1", "1e200"], "error: f_m1 is not finite at eta = 0.05\n"),
        (["eval", "--field", "Q", "--m", "1e-200"], "error: Q is not finite at eta = 0.1\n"),
        # z ~ 1e-202: the leading series term of J_{-9/4} overflows, which is
        # a non-finite residual, not a stalled series
        (["verify", "--which", "ode5", "--m", "1e-200"],
         "error: ode5 residual is not finite at eta = 0.1\n"),
        (["verify", "--which", "system4", "--m", "1e-200"],
         "error: ode_system4 residual is not finite at eta = 0.1\n"),
        (["verify", "--which", "all", "--m", "1e-200"],
         "error: ode5 residual is not finite at eta = 0.1\n"),
        (["verify", "--which", "ode5", "--hbar", "1e200"],
         "error: ode5 residual is not finite at eta = 0.1\n"),
        (["verify", "--which", "system4", "--hbar", "1e200"],
         "error: ode_system4 residual is not finite at eta = 0.1\n"),
        (["verify", "--which", "all", "--hbar", "1e200"],
         "error: ode5 residual is not finite at eta = 0.1\n"),
    ], ids=["integrate", "verify", "verify-hbar", "qpotential", "figure", "figure-hbar",
            "fig1-huge-c1", "eval",
            "ode5-tiny-m", "system4-tiny-m", "all-tiny-m",
            "ode5-huge-hbar", "system4-huge-hbar", "all-huge-hbar"])
    def test_huge_or_tiny_mass_and_hbar(self, capsys, argv, line):
        # a value that cannot be formed is non-finite: exit 3 with one error
        # line, never a traceback or blank cells; a finite run writes no blank
        code, out, err = run_cli(capsys, argv)
        if line is not None:
            assert (code, out, err) == (3, "", line)
            return
        assert (code, err) == (0, "")
        rows = [r.split(",") for r in out.strip().split("\n")[1:] if r[:1].isdigit()]
        assert rows and all(math.isfinite(float(cell)) for row in rows for cell in row)

    @pytest.mark.parametrize("command", [
        ["figure", "fig1"], ["figure", "fig2"], ["figure", "fig3"],
        ["eval", "--field", "f"], ["eval", "--field", "Q"], ["eval", "--field", "rho"]],
        ids=["fig1", "fig2", "fig3", "f", "Q", "rho"])
    @pytest.mark.parametrize("weight", ["--c1", "--c2"])
    def test_huge_bessel_weight(self, capsys, command, weight):
        # exit 3 with one error line, or exit 0 with only finite cells (the
        # flag column of eval Q holds text, blank off the poles)
        code, out, err = run_cli(capsys, command + [weight, "1e200"])
        if code == 3:
            assert out == "" and err.startswith("error: ") and err.count("\n") == 1
            return
        assert (code, err) == (0, "")
        header, *lines = out.strip().split("\n")
        numeric = [i for i, name in enumerate(header.split(",")) if name != "flag"]
        cells = [line.split(",")[i] for line in lines for i in numeric]
        assert cells and all(math.isfinite(float(cell)) for cell in cells)

    @pytest.mark.parametrize("argv,option,value", [
        (["zeros"], "--c2", "-1e-3"),
        (["eval", "--field", "S", "--y", "2"], "--x", "-1:1:3"),
        (["eval", "--field", "u", "--x", "3", "--y", "1"], "--c0", "-2.5E+0"),
        (["eval", "--field", "S", "--y", "2"], "--x", "-.5"),
    ], ids=["exponent", "range", "upper-exponent", "bare-decimal"])
    def test_negative_value_in_both_spellings(self, capsys, tmp_path, argv, option, value):
        # "--c2 -1e-3" is the value -1e-3, as "--c2=-1e-3" is
        runs = []
        for i, spelling in enumerate(([option, value], [f"{option}={value}"])):
            path = tmp_path / f"{i}.csv"
            code, out, err = run_cli(capsys, argv + spelling)
            assert run_cli(capsys, argv + spelling + ["--output", str(path)])[0] == code
            runs.append((code, out, err, path.read_text()))
        assert runs[0] == runs[1]
        assert runs[0][0] == 0 and runs[0][1]

    @pytest.mark.parametrize("field", ["f", "Q"])
    def test_eta_underflowing_z_exit_2(self, capsys, field):
        code, out, err = run_cli(capsys, [
            "eval", "--field", field, "--eta", "1e-200:1e-199:3"])
        assert code == 2
        assert out == ""
        assert "underflows to 0 at eta = 1e-200" in err

    def test_qpotential_underflowing_z_exit_2(self, capsys):
        # z = m eta^2/(4 hbar sqrt(d)) is 0 on the table's whole eta grid: a
        # usage error, not a table of blank rows
        code, out, err = run_cli(capsys, ["verify", "--which", "qpotential",
                                          "--m", "1e-200", "--hbar", "1e200"])
        assert (code, out) == (2, "")
        assert "underflows to 0 at eta = 0.4" in err

    def test_fd_step_zero_exit_2(self, capsys):
        code, _, err = run_cli(capsys, ["verify", "--which", "pde", "--fd-step", "0"])
        assert code == 2
        assert "--fd-step must be finite and positive" in err

    @pytest.mark.parametrize("tol", ["0", "-1", "inf", "nan"])
    def test_nonpositive_tol_exit_2(self, capsys, tol):
        code, _, err = run_cli(capsys, ["integrate", "--limits", "10", "--tol", tol])
        assert code == 2
        assert "--tol must be finite and positive" in err

    @pytest.mark.parametrize("argv,line", [
        (["zeros", "--range", "1:2:3"], "error: bad --range spec '1:2:3'; expected lo:hi\n"),
        (["zeros", "--range", "0.1:x"], "error: bad --range spec '0.1:x'; expected lo:hi\n"),
        (["integrate", "--limits", ""],
         "error: bad --limits spec ''; expected comma-separated numbers\n"),
        (["integrate", "--limits", "10,,100"],
         "error: bad --limits spec '10,,100'; expected comma-separated numbers\n"),
        (["eval", "--field", "f", "--eta", "1:2:1e9"],
         "error: bad --eta spec '1:2:1e9'; expected start:stop:count[:log]\n"),
        (["eval", "--field", "f", "--eta", "a:2:9"],
         "error: bad --eta spec 'a:2:9'; expected start:stop:count[:log]\n"),
        (["eval", "--field", "rho", "--x", "1:2:3.0"],
         "error: bad --x spec '1:2:3.0'; expected start:stop:count[:log]\n"),
        (["eval", "--field", "rho", "--t", "soon"],
         "error: bad --t spec 'soon'; expected a number or start:stop:count[:log]\n"),
    ], ids=["range-count", "range-float", "limits-empty", "limits-gap", "eta-count",
            "eta-start", "x-count", "t-scalar"])
    def test_malformed_spec_names_the_flag(self, capsys, argv, line):
        # exit 2 with the flag and its grammar, not a Python conversion error
        assert run_cli(capsys, argv) == (2, "", line)

    def test_malformed_config_grid_names_the_key(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("grid.eta = 0.1:2:ten\n")
        assert run_cli(capsys, ["eval", "--field", "f", "--config", str(cfg)]) == (
            2, "", "error: bad grid.eta spec '0.1:2:ten'; expected start:stop:count[:log]\n")
