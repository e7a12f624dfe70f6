"""Command-line front end: evaluation, verification, roots, quadrature, figures.

Exit status contract: 0 on success, 2 on usage or configuration errors,
3 on verification or analysis failures.  All numeric CSV output uses 17
significant digits, comma separators and no quoting, so identical
invocations produce byte-identical files.
"""

from __future__ import annotations

import argparse
import functools
import math
import re
import sys
from dataclasses import dataclass, field

import numpy as np

from . import core
from .errors import (
    DomainError,
    MadelungError,
    NonFiniteOutput,
    RangeTooNarrow,
    ToleranceNotMet,
    UnmatchedRoot,
    require_finite,
)

ETA_FIELDS = ("f", "g", "h", "Q")
LAB_FIELDS = core.LAB_FIELDS

# hard residual thresholds; phase and qpotential are comparative reports
# and never gate the exit status
THRESHOLDS = {
    "ode5": 1e-8,
    "ode_system4": 1e-6,
    "continuity": 1e-5,
    "euler_x": 1e-4,
    "euler_y": 1e-4,
    "schrodinger": 1e-4,
}


@dataclass
class RunConfig:
    params: core.PhysicalParams
    consts: core.SolutionConstants
    grids: dict = field(default_factory=dict)
    output_path: str | None = None
    tol: float = 1e-9
    fd_step: float = 1e-4


# rows formatted per write; bounds the writer's memory independently of the table
CHUNK_ROWS = 4096
# cells formatted per write: a table of more than two columns writes fewer rows
CHUNK_CELLS = 2 * CHUNK_ROWS
# a table is written by several processes only when each gets at least this
# many chunks; below that, forking costs more than it saves or wins too
# little to show (tests/oracle_dev/csv_writer_timing.py measures both)
PARALLEL_MIN_CHUNKS = 8
# characters per copy of a worker's text into the output
_COPY_BLOCK = 65536


@dataclass
class CsvTable:
    """A header plus one 1-D column per name.

    A column is a sequence of str (a text column such as ``flag``, with
    no NUL in its cells) or anything numpy reads as floats; a NaN or None
    cell renders as an empty field.
    """

    header: list
    columns: list

    def write(self, fh):
        """Write the table to a text stream, at most CHUNK_ROWS rows and
        CHUNK_CELLS cells per write, in the '%.17g' text of csvtext.

        A large table is written by one process per usable CPU: see
        _part_bounds and _write_parts.  The bytes are those of one process.
        """
        if len(self.columns) != len(self.header):
            raise ValueError("ragged csv table: one column per header name")
        cols = []
        for col in self.columns:
            arr = np.asarray(col)
            cols.append(arr if arr.dtype.kind == "U" else arr.astype(float, copy=False))
        nrows = len(cols[0]) if cols else 0
        if any(c.ndim != 1 or len(c) != nrows for c in cols):
            raise ValueError("ragged csv table: columns differ in length")
        fmts = ["%s" if c.dtype.kind == "U" else "%.17g" for c in cols]
        fh.write(",".join(self.header) + "\n")
        bounds = _part_bounds(nrows)
        if len(bounds) > 2:
            _write_parts(fh, cols, fmts, bounds)
        else:
            _write_rows(fh, cols, fmts, 0, nrows)


def _write_rows(fh, cols, fmts, lo, hi):
    """Format rows lo:hi of the columns into fh, at most CHUNK_ROWS rows and
    CHUNK_CELLS cells per write."""
    from . import csvtext

    step = max(1, min(CHUNK_ROWS, CHUNK_CELLS // max(1, len(cols))))
    for first in range(lo, hi, step):
        last = min(first + step, hi)
        fh.write(csvtext.rows([c[first:last] for c in cols], fmts))


def _part_bounds(nrows):
    """Row bounds [0, ..., nrows] of the parts a table is written in.

    One contiguous run of whole chunks per usable CPU, each of at least
    PARALLEL_MIN_CHUNKS chunks.  A single part, the serial loop, when that
    leaves fewer than two, or when this process cannot fork safely: no
    os.fork, or other live Python threads.
    """
    import os

    nchunks = -(-nrows // CHUNK_ROWS)
    threading = sys.modules.get("threading")
    if (nchunks < 2 * PARALLEL_MIN_CHUNKS or not hasattr(os, "fork")
            or (threading is not None and threading.active_count() > 1)):
        return [0, nrows]
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        cpus = os.cpu_count() or 1
    parts = min(cpus, nchunks // PARALLEL_MIN_CHUNKS)
    return [min(i * nchunks // parts * CHUNK_ROWS, nrows) for i in range(parts + 1)]


def _write_parts(fh, cols, fmts, bounds):
    """Write rows bounds[0]:bounds[-1] as the parts between adjacent bounds.

    One forked worker per part after the first formats its rows into its
    own unlinked temporary file, reading the columns this process shares
    with it copy-on-write, while this process formats the first part into
    fh.  The workers are then reaped in order, and each file is appended
    in blocks of _COPY_BLOCK characters.  Every worker is reaped on every
    path; one that fails raises ChildProcessError (exit status 2), which
    carries the "TypeName: message" of the worker's exception, sent back
    through a pipe.
    """
    import os
    import signal
    import tempfile

    # imported before the forks, so that every worker inherits the module
    # and its tables
    from . import csvtext  # noqa: F401

    parts = list(zip(bounds[1:-1], bounds[2:]))
    files, pipes, pids = [], [], []  # pids holds the workers not yet reaped, in row order
    try:
        for lo, hi in parts:
            files.append(tempfile.TemporaryFile("w+", encoding="utf-8", newline=""))
            r, w = os.pipe()
            pipes.append(os.fdopen(r, "rb"))
            try:
                pid = os.fork()
                if pid == 0:  # worker: never returns into the caller
                    code = 1
                    try:
                        _write_rows(files[-1], cols, fmts, lo, hi)
                        files[-1].flush()
                        code = 0
                    except Exception as exc:
                        os.write(w, f"{type(exc).__name__}: {exc}".encode())
                    finally:
                        os._exit(code)
            finally:
                os.close(w)  # the worker holds the only write end
            pids.append(pid)
        _write_rows(fh, cols, fmts, bounds[0], bounds[1])
        for tmp, pipe, (lo, hi) in zip(files, pipes, parts):
            reason = pipe.read().decode(errors="replace")  # EOF comes when the worker ends
            code = os.waitstatus_to_exitcode(os.waitpid(pids[0], 0)[1])
            del pids[0]
            if code != 0:
                why = f": {reason}" if code > 0 and reason else ""
                raise ChildProcessError(
                    f"csv writer worker for rows {lo}:{hi} failed with status {code}{why}")
            tmp.seek(0)
            while block := tmp.read(_COPY_BLOCK):
                fh.write(block)
    finally:
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        for f in files + pipes:
            f.close()


def _floats(text, sep, name, expected, count=None):
    # the sep-separated floats of a flag's (or config key's) value; a
    # malformed value is a usage error naming the flag
    try:
        values = [float(v) for v in text.split(sep)]
    except ValueError:
        values = None
    if values is None or count not in (None, len(values)):
        raise DomainError(f"bad {name} spec {text!r}; expected {expected}")
    return values


def parse_grid(text: str, name: str = "grid") -> core.GridSpec:
    """Grid grammar start:stop:count[:log]; errors name the flag or key `name`."""
    parts = text.split(":")
    spacing = parts[3] if len(parts) == 4 else "uniform"
    if spacing not in ("log", "uniform"):
        raise DomainError(f"bad {name} spacing {spacing!r}")
    try:
        if len(parts) not in (3, 4):
            raise ValueError
        start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise DomainError(f"bad {name} spec {text!r}; expected start:stop:count[:log]") from None
    return core.GridSpec(start, stop, count, spacing)


def parse_scalar_or_grid(text: str, name: str):
    if ":" in text:
        return parse_grid(text, name)
    return _floats(text, ":", name, "a number or start:stop:count[:log]")[0]


def read_config_file(path: str) -> dict:
    """Flat key = value lines; '#' starts a comment."""
    values = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise DomainError(f"{path}:{lineno}: expected 'key = value'")
            key, value = (part.strip() for part in line.split("=", 1))
            values[key] = value
    return values


_CONFIG_KEYS = ("m", "hbar", "c0", "c1", "c2", "dim", "tol", "fd_step", "output")


def build_config(args) -> RunConfig:
    file_vals = read_config_file(args.config) if args.config else {}
    grids = {}
    for key in list(file_vals):
        if key.startswith("grid."):
            grids[key[5:]] = parse_grid(file_vals.pop(key), key)
    unknown = set(file_vals) - set(_CONFIG_KEYS)
    if unknown:
        raise DomainError(f"unknown config keys: {sorted(unknown)}")

    def pick(name, flag_value, cast, default):
        if flag_value is not None:
            return flag_value
        if name in file_vals:
            return cast(file_vals[name])
        return default

    params = core.PhysicalParams(
        m=pick("m", args.m, float, 1.0),
        hbar=pick("hbar", args.hbar, float, 1.0),
        dimension=pick("dim", args.dim, int, 2),
    )
    consts = core.SolutionConstants(
        c1=pick("c1", args.c1, float, 1.0),
        c2=pick("c2", args.c2, float, 1.0),
        c0=pick("c0", args.c0, float, 0.0),
    )
    tol = pick("tol", args.tol, float, 1e-9)
    fd_step = pick("fd_step", getattr(args, "fd_step", None), float, 1e-4)
    for flag, value in (("--tol", tol), ("--fd-step", fd_step)):
        if not (math.isfinite(value) and value > 0.0):
            raise DomainError(f"{flag} must be finite and positive, got {value!r}")
    return RunConfig(
        params=params,
        consts=consts,
        grids=grids,
        output_path=pick("output", args.output, str, None),
        tol=tol,
        fd_step=fd_step,
    )


def emit(table: CsvTable, cfg: RunConfig):
    if cfg.output_path:
        with open(cfg.output_path, "w", encoding="utf-8", newline="") as fh:
            table.write(fh)
    else:
        table.write(sys.stdout)


# ---------------------------------------------------------------------------
# subcommands


def cmd_eval(cfg: RunConfig, args) -> int:
    name = args.field
    if name in ETA_FIELDS:
        grid = parse_grid(args.eta, "--eta") if args.eta else cfg.grids.get(
            "eta", core.GridSpec(0.1, 50.0, 500, "log"))
        etas = grid.points()
        if name == "f":
            vals = core.shape_density(etas, cfg.params, cfg.consts)
            require_finite(name, vals, eta=etas)
            table = CsvTable(["eta", "f"], [etas, vals])
        elif name in ("g", "h"):
            g, h = core.shape_velocity_split(etas, cfg.consts)
            vals = g if name == "g" else h
            require_finite(name, vals, eta=etas)
            table = CsvTable(["eta", name], [etas, vals])
        else:  # Q with sentinel flags near poles
            q, excluded = core.quantum_potential_eq9_masked(
                etas, cfg.params, cfg.consts)
            require_finite(name, np.where(excluded, 0.0, q), eta=etas)
            # q is NaN, so blank, at the flagged rows
            table = CsvTable(["eta", "Q", "flag"],
                             [etas, q, np.where(excluded, "near_pole", "")])
        emit(table, cfg)
        return 0

    xs = _axis_points(args.x, cfg, "x", core.GridSpec(0.5, 5.0, 100))
    ys = _axis_points(args.y, cfg, "y", 0.0)
    ts = _axis_points(args.t, cfg, "t", 1.0)
    # rows run t outer, then y, then x innermost
    t, y, x = np.meshgrid(ts, ys, xs, indexing="ij")
    vals = core.lab_field(name, x, y, t, cfg.params, cfg.consts)
    require_finite(name, vals, x=x, y=y, t=t)
    emit(CsvTable(["x", "y", "t", name], [a.ravel() for a in (x, y, t, vals)]), cfg)
    return 0


def _axis_points(flag_value, cfg, name, default):
    if flag_value is not None:
        spec = parse_scalar_or_grid(flag_value, f"--{name}")
    elif name in cfg.grids:
        spec = cfg.grids[name]
    else:
        spec = default
    if isinstance(spec, core.GridSpec):
        return spec.points()
    return np.array([float(spec)])


def _default_space_time(cfg):
    sg = cfg.grids.get("s", core.GridSpec(1.0, 5.0, 21))
    tg = cfg.grids.get("t", core.GridSpec(1.0, 2.0, 7))
    return sg, tg


def _report_status(rep):
    thr = THRESHOLDS.get(rep.equation_id)
    if thr is None:
        return "report", True
    return ("pass" if rep.max_rel <= thr else "fail"), rep.max_rel <= thr


def _print_report(rep):
    status, _ = _report_status(rep)
    thr = THRESHOLDS.get(rep.equation_id)
    thr_txt = f" threshold={thr:g}" if thr is not None else ""
    print(f"equation={rep.equation_id} points={len(rep.points)} "
          f"excluded={rep.excluded_points} max_abs={rep.max_abs:.6e} "
          f"max_rel={rep.max_rel:.6e}{thr_txt} status={status}")
    for key, val in sorted(rep.extras.items()):
        if isinstance(val, float):
            print(f"  {key} = {val:.6g}")
        else:
            print(f"  {key} = {val}")


def _qpotential_table(cfg) -> CsvTable:
    from . import verify

    etas = np.linspace(0.4, 3.0, 14)
    q9s, near_pole = core.quantum_potential_eq9_masked(etas, cfg.params, cfg.consts)
    qds, excluded = verify.quantum_potential_direct(etas, cfg.params, cfg.consts,
                                                    fd_step=cfg.fd_step)
    require_finite("q_eq9", np.where(near_pole, 0.0, q9s), eta=etas)
    excluded |= near_pole
    require_finite("q_direct", np.where(excluded, 0.0, qds), eta=etas)
    # a row is blank unless both columns are kept
    q9s, qds = (np.where(excluded, np.nan, q) for q in (q9s, qds))
    ratio = q9s / qds
    ratios = ratio[~np.isnan(ratio)].tolist()
    if ratios:
        print(f"qpotential comparative: eq9/direct ratio in "
              f"[{min(ratios):.6f}, {max(ratios):.6f}] over {len(ratios)} points "
              "(report only; no threshold)")
    else:
        print("qpotential comparative: every sample point lies near a density zero "
              "or has a direct-difference stencil leaving eta > 0; a smaller "
              "--fd-step narrows both exclusions (report only; no threshold)")
    return CsvTable(["eta", "q_eq9", "q_direct", "ratio"], [etas, q9s, qds, ratio])


def cmd_verify(cfg: RunConfig, args) -> int:
    from . import verify

    which = args.which
    reports = []
    tables = None
    ode_grid = cfg.grids.get("eta", core.GridSpec(0.1, 50.0, 2000, "log"))
    sg, tg = _default_space_time(cfg)

    if which in ("ode5", "all"):
        reports.append(verify.residual_ode5(ode_grid, cfg.params, cfg.consts))
    if which in ("system4", "all"):
        reports.append(verify.residual_ode_system4(ode_grid, cfg.params, cfg.consts))
    if which in ("pde", "all"):
        reports.extend(verify.residual_pde_lab(sg, tg, cfg.params, cfg.consts,
                                               fd_step=cfg.fd_step))
    if which in ("schrodinger", "all"):
        reports.append(verify.residual_schrodinger(sg, tg, cfg.params, cfg.consts,
                                                   fd_step=cfg.fd_step))
    if which in ("phase", "all"):
        reports.append(verify.residual_phase_gradient(sg, tg, cfg.params, cfg.consts))
    if which == "qpotential":
        tables = _qpotential_table(cfg)

    ok = True
    for rep in reports:
        _print_report(rep)
        _, good = _report_status(rep)
        ok = ok and good

    if cfg.output_path or which == "qpotential":
        emit(tables or _stack_reports(reports), cfg)
    return 0 if ok else 3


def _stack_reports(reports) -> CsvTable:
    all_names = []
    for rep in reports:
        for n in rep.points.names:
            if n not in all_names:
                all_names.append(n)
    equation = np.concatenate([np.full(len(rep.points), rep.equation_id)
                               for rep in reports])
    columns = [np.concatenate([rep.points.column(n) if n in rep.points.names
                               else np.full(len(rep.points), np.nan) for rep in reports])
               for n in all_names]
    return CsvTable(["equation"] + all_names, [equation] + columns)


def cmd_zeros(cfg: RunConfig, args) -> int:
    from . import analysis

    lo, hi = _floats(args.range, ":", "--range", "lo:hi", 2)
    roots = analysis.find_zeros((lo, hi), cfg.params, cfg.consts,
                                max_roots=args.max_roots)
    matched = ()
    if roots.roots:  # else --max-roots 0 on a range without zeros: header only
        matched = analysis.match_poles(roots, cfg.params, cfg.consts).matched_poles
    eta, pole, sep = zip(*matched) if matched else ((), (), ())
    index = np.arange(1, len(eta) + 1, dtype=float)
    emit(CsvTable(["index", "eta_star", "q_pole_eta", "separation"],
                  [index, eta, pole, sep]), cfg)
    return 0


def cmd_integrate(cfg: RunConfig, args) -> int:
    from . import analysis

    limits = _floats(args.limits, ",", "--limits", "comma-separated numbers")
    result = analysis.integrate_density(limits, cfg.params, cfg.consts,
                                        tol=cfg.tol)
    hs, fs, errs = zip(*result.partial_integrals)
    require_finite("F", fs, H=hs)
    require_finite("err", errs, H=hs)
    emit(CsvTable(["H", "F", "err"], [hs, fs, errs]), cfg)
    tm = result.tail_model
    print(f"tail fit (log):  F ~ a + b ln H with a={tm.log_offset:.9g} "
          f"b={tm.log_coefficient:.9g} rms={tm.log_rms:.3e}")
    print(f"tail fit (1/H):  F ~ a - c/H with a={tm.conv_limit:.9g} "
          f"c={tm.conv_rate:.9g} rms={tm.conv_rms:.3e}")
    print(f"tail model: {tm.kind}")
    print(f"verdict: {result.verdict_note}")
    return 0


def cmd_figure(cfg: RunConfig, args) -> int:
    from . import analysis

    fig = args.figure_id
    grid = cfg.grids.get("eta") if fig in ("fig1", "fig3") else cfg.grids.get("x")
    series = analysis.figure_series(fig, cfg.params, cfg.consts,
                                    grid=grid, time_grid=cfg.grids.get("t"))
    emit(CsvTable(list(series.names), list(series.values.T)), cfg)
    return 0


# ---------------------------------------------------------------------------
# entry point


_NEGATIVE_NUMBER = re.compile(r"^-\.?\d")


@functools.cache
def _build_parser():
    # built once per process: parse_args leaves the parser unchanged
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--m", type=float, default=None, help="particle mass")
    common.add_argument("--hbar", type=float, default=None, help="reduced Planck constant")
    common.add_argument("--c0", type=float, default=None, help="velocity integration constant")
    common.add_argument("--c1", type=float, default=None, help="first Bessel weight")
    common.add_argument("--c2", type=float, default=None, help="second Bessel weight")
    common.add_argument("--dim", type=int, choices=(1, 2, 3), default=None,
                        help="spatial dimension")
    common.add_argument("--config", default=None, help="key = value config file")
    common.add_argument("--output", default=None, help="CSV output path (default stdout)")
    common.add_argument("--tol", type=float, default=None, help="quadrature tolerance")
    common.add_argument("--fd-step", dest="fd_step", type=float, default=None,
                        help="finite-difference step")

    parser = argparse.ArgumentParser(
        prog="madelung",
        description="Self-similar free-particle Madelung fields: evaluate, "
                    "verify, and analyze the closed-form solutions.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", parents=[common], help="tabulate a field")
    p_eval.add_argument("--field", required=True,
                        choices=ETA_FIELDS + LAB_FIELDS)
    p_eval.add_argument("--eta", default=None, help="eta grid start:stop:count[:log]")
    p_eval.add_argument("--x", default=None, help="x grid or value")
    p_eval.add_argument("--y", default=None, help="y grid or value")
    p_eval.add_argument("--t", default=None, help="t grid or value")

    p_verify = sub.add_parser("verify", parents=[common], help="equation residuals")
    p_verify.add_argument("--which", default="all",
                          choices=("ode5", "system4", "pde", "schrodinger",
                                   "phase", "qpotential", "all"))

    p_zeros = sub.add_parser("zeros", parents=[common],
                             help="density zeros and matched potential poles")
    p_zeros.add_argument("--range", default="0.1:30", help="eta range lo:hi")
    p_zeros.add_argument("--max-roots", dest="max_roots", type=int, default=10,
                         help="most roots to report; 0 reports every root in the range")

    p_int = sub.add_parser("integrate", parents=[common],
                           help="running integral of the density shape")
    p_int.add_argument("--limits", default="10,100,1000,10000",
                       help="comma-separated upper limits")

    p_fig = sub.add_parser("figure", parents=[common], help="figure data series")
    p_fig.add_argument("figure_id", choices=("fig1", "fig2", "fig3"))
    # no option starts with "-" and a digit, so such a word is a value, in
    # exponent and range form too ("-1e-3", "-1:1:3"), which the default
    # pattern (whole integers and decimals only) reads as an option name
    for p in (parser, *sub.choices.values()):
        p._negative_number_matcher = _NEGATIVE_NUMBER
    return parser


_COMMANDS = {
    "eval": cmd_eval,
    "verify": cmd_verify,
    "zeros": cmd_zeros,
    "integrate": cmd_integrate,
    "figure": cmd_figure,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = build_config(args)
        # overflow and 0/0 become inf/NaN cells, which require_finite turns
        # into exit 3; numpy's RuntimeWarnings would only clutter stderr
        with np.errstate(all="ignore"):
            return _COMMANDS[args.command](cfg, args)
    except (RangeTooNarrow, UnmatchedRoot, ToleranceNotMet, NonFiniteOutput) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (MadelungError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
