"""Seeded command lists for the benchmark workloads, and the checks on their output.

Every workload is a list of ``madelung`` CLI invocations.  The seed picks
parameter sets, grid endpoints and raster offsets; grid sizes are fixed, so
the amount of work does not depend on the seed.  Endpoints are chosen in the
Bessel argument z = m eta^2 / (4 hbar sqrt(d)), so every seed exercises the
same mix of the three Bessel regimes (series, recurrence, Hankel).

Reference checks compare CSV cells with ``tests/reference_values.py``; they
run on small commands pinned to the reference parameters (m = 1, c1 = c2 = 1,
d = 2), because the reference values exist only there.
"""

from __future__ import annotations

import csv
import hashlib
import math
import random
import re
from dataclasses import dataclass, field

# the five parameter sets (m, c1, c2) of the acceptance tests
ACCEPTANCE_SETS = ((1.0, 1.0, 1.0), (0.5, 1.0, 1.0), (1.0, 1.0, 0.0),
                   (1.0, 0.0, 1.0), (2.0, 3.0, -1.0))
REFERENCE_ARGS = ["--m", "1", "--c1", "1", "--c2", "1", "--dim", "2"]

VERIFY_ALL_HEADER = ("equation,eta,residual,rel,scale,continuity,continuity_rel,"
                     "momentum_g,momentum_g_rel,momentum_h,momentum_h_rel,"
                     "x,y,t,residual_abs,residual_x,residual_y")
# 2000-point ode5 and ode_system4 grids plus five 21 x 7 lab-frame reports
VERIFY_ALL_ROWS = 2 * 2000 + 5 * 21 * 7

# tolerances of the unit tests that check the same reference values
REL_TOL = 1e-10
ABS_TOL = 1e-9


@dataclass(frozen=True)
class RefCheck:
    """Expected value of one CSV cell, located by the key columns of its row."""

    label: str
    key: dict  # column name -> exact float value
    column: str
    expected: float
    tol: float
    relative: bool = True


@dataclass
class Command:
    """One CLI invocation and what its output must look like."""

    argv: list  # arguments after ``python -m madelung.cli``, without --output
    header: str
    rows: int
    expect_rc: int = 0
    refs: list = field(default_factory=list)


@dataclass
class Workload:
    """A command list, and the grid its layer probes draw inputs from.

    ``probe_grid`` is ``("eta", spec)`` or ``("lab", x_spec, y, t_spec)`` in
    the CLI's grid grammar.  The workload holds no arrays: the process that
    launches the commands must stay small, because a child's peak RSS counts
    the launching process's memory (see ``run.py``).
    """

    name: str
    commands: list
    probe_params: tuple  # (m, c1, c2, dim)
    probe_grid: tuple


def _k(m, dim):
    return m / (4.0 * math.sqrt(dim))


def _params(rng):
    m = round(rng.uniform(0.5, 2.0), 4)
    dim = rng.choice((1, 2, 3))
    while True:
        c1 = round(rng.uniform(-2.0, 2.0), 4)
        c2 = round(rng.uniform(-2.0, 2.0), 4)
        if abs(c1) + abs(c2) > 0.5:
            return m, c1, c2, dim


def _param_args(m, c1, c2, dim):
    return ["--m", f"{m:.4f}", "--c1", f"{c1:.4f}", "--c2", f"{c2:.4f}", "--dim", str(dim)]


def _grid(lo, hi, count, log=False):
    return f"{lo:.6g}:{hi:.6g}:{count}" + (":log" if log else "")


def tabulate(seed, ref):
    rng = random.Random(f"tabulate:{seed}")
    m, c1, c2, dim = _params(rng)
    k = _k(m, dim)
    pargs = _param_args(m, c1, c2, dim)

    def eta_grid(count):
        # z from ~1e-3 to ~65: every grid passes z = 20, the Hankel switch
        z_lo = rng.uniform(1.0e-3, 1.2e-3)
        z_hi = rng.uniform(64.0, 68.0)
        return _grid(math.sqrt(z_lo / k), math.sqrt(z_hi / k), count, log=True)

    grid_f = eta_grid(100_000)
    cmds = [
        Command(["eval", "--field", "f", "--eta", grid_f] + pargs, "eta,f", 100_000),
        Command(["eval", "--field", "Q", "--eta", eta_grid(100_000)] + pargs,
                "eta,Q,flag", 100_000),
        Command(["eval", "--field", "g", "--eta", eta_grid(100_000)] + pargs, "eta,g", 100_000),
        Command(["eval", "--field", "f", "--eta", eta_grid(1_000_000)] + pargs,
                "eta,f", 1_000_000),
        Command(["figure", "fig1"] + pargs, "eta,f_m1,f_m0p5", 600),
        Command(["figure", "fig2"] + pargs, "x,t,re_psi", 160 * 7),
        Command(["figure", "fig3"] + pargs, "eta,f,Q", 600),
        # 0.5:10:20 is the exact grid 0.5, 1.0, ..., 10.0
        Command(["eval", "--field", "f", "--eta", "0.5:10:20"] + REFERENCE_ARGS, "eta,f", 20,
                refs=[RefCheck(f"SHAPE_F[{e}]", {"eta": e}, "f", v, REL_TOL)
                      for e, v in ref.SHAPE_F.items()]),
        Command(["eval", "--field", "Q", "--eta", "0.5:10:20"] + REFERENCE_ARGS,
                "eta,Q,flag", 20,
                refs=[RefCheck("Q9_AT_1", {"eta": 1.0}, "Q", ref.Q9_AT_1, REL_TOL),
                      RefCheck("Q9_AT_2", {"eta": 2.0}, "Q", ref.Q9_AT_2, REL_TOL)]),
    ]
    return Workload("tabulate", cmds, (m, c1, c2, dim), ("eta", grid_f))


def lab_points(seed, ref):
    rng = random.Random(f"lab_points:{seed}")
    m, c1, c2, dim = _params(rng)
    k = _k(m, dim)
    pargs = _param_args(m, c1, c2, dim)
    # 500 x values times 4 times; s = x + y runs from z ~ 0.07 at the latest
    # time to z ~ 45 at the earliest, so eta spans all three regimes.  The
    # cost per point differs by regime, so the z range varies only slightly.
    t_lo = rng.uniform(0.5, 2.0)
    s_lo = math.sqrt(rng.uniform(0.07, 0.08) * 2.0 * t_lo / k)
    s_hi = math.sqrt(rng.uniform(44.0, 46.0) * t_lo / k)
    y0 = rng.uniform(0.0, 0.5) * s_lo
    x_spec = _grid(s_lo - y0, s_hi - y0, 500)
    t_spec = _grid(t_lo, 2.0 * t_lo, 4, log=True)
    y_spec = f"{y0:.6g}"
    raster = ["--x", x_spec, "--y", y_spec, "--t", t_spec]
    cmds = [Command(["eval", "--field", name] + raster + pargs, f"x,y,t,{name}", 2000)
            for name in ("rho", "psi_re", "psi_im", "u", "S")]
    ref_raster = ["--x", "0.5:1:2", "--y", "0.5:1:2", "--t", "1"]
    for part, col in ((0, "psi_re"), (1, "psi_im")):
        cmds.append(Command(
            ["eval", "--field", col] + ref_raster + REFERENCE_ARGS, f"x,y,t,{col}", 4,
            refs=[RefCheck(f"PSI_05_05_1.{col}", {"x": 0.5, "y": 0.5, "t": 1.0}, col,
                           ref.PSI_05_05_1[part], REL_TOL),
                  RefCheck(f"PSI_1_1_1.{col}", {"x": 1.0, "y": 1.0, "t": 1.0}, col,
                           ref.PSI_1_1_1[part], REL_TOL)]))
    return Workload("lab_points", cmds, (m, c1, c2, dim), ("lab", x_spec, y_spec, t_spec))


def analyze(seed, ref):
    rng = random.Random(f"analyze:{seed}")
    # the zero scan costs in proportion to hi^2, so hi varies only slightly
    eta_range = f"{rng.uniform(0.1, 0.12):.6g}:{rng.uniform(297.0, 300.0):.6g}"
    # the reference limits first, so F at them is summed exactly as the tests do
    lim4 = sorted(ref.F_INTEGRALS) + [float(f"{rng.uniform(2e3, 8e3):.6g}"), 1e4]
    lim6 = [10.0, 100.0, 1e3, 1e4, float(f"{rng.uniform(1e5, 5e5):.6g}"), 1e6]
    cmds = []
    for m, c1, c2 in ACCEPTANCE_SETS:
        pargs = ["--m", f"{m:g}", "--c1", f"{c1:g}", "--c2", f"{c2:g}"]
        is_ref = (m, c1, c2) == (1.0, 1.0, 1.0)

        def root_refs(n):
            if not is_ref:
                return []
            return [RefCheck(f"ROOT_ETAS[{i}]", {"index": float(i + 1)}, "eta_star", r,
                             ABS_TOL, relative=False)
                    for i, r in enumerate(ref.ROOT_ETAS[:n])]

        f_refs = [RefCheck(f"F_INTEGRALS[{h!r}]", {"H": h}, "F", v, ABS_TOL, relative=False)
                  for h, v in ref.F_INTEGRALS.items()] if is_ref else []
        cmds += [
            Command(["verify", "--which", "all"] + pargs, VERIFY_ALL_HEADER, VERIFY_ALL_ROWS,
                    expect_rc=3),
            Command(["verify", "--which", "qpotential"] + pargs, "eta,q_eq9,q_direct,ratio", 14),
            Command(["zeros", "--range", eta_range, "--max-roots", "10"] + pargs,
                    "index,eta_star,q_pole_eta,separation", 10, refs=root_refs(10)),
            Command(["zeros", "--range", eta_range, "--max-roots", "1000"] + pargs,
                    "index,eta_star,q_pole_eta,separation", 1000, refs=root_refs(12)),
            Command(["integrate", "--limits", ",".join(repr(h) for h in lim4)] + pargs,
                    "H,F,err", len(lim4), refs=f_refs),
            Command(["integrate", "--limits", ",".join(repr(h) for h in lim6)] + pargs,
                    "H,F,err", len(lim6)),
        ]
    # the probes draw from the 2000-point ode5 grid that verify evaluates
    return Workload("analyze", cmds, (1.0, 1.0, 1.0, 2), ("eta", "0.1:50:2000:log"))


WORKLOADS = {"tabulate": tabulate, "lab_points": lab_points, "analyze": analyze}


def build(name, seed, ref) -> Workload:
    return WORKLOADS[name](seed, ref)


# ---------------------------------------------------------------------------
# output checks

_NONFINITE = re.compile(rb"(?:^|[,\n])-?(?:nan|inf)(?=[,\n]|$)")


def digest(path):
    """SHA-256 of a file, read in chunks."""
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        while chunk := fh.read(1 << 20):
            h.update(chunk)
    return h.hexdigest()


def check_csv(cmd: Command, path):
    """Problems with one command's CSV, and the relative errors of its reference cells.

    The file is read in chunks, so that checking does not grow this process.
    """
    problems = []
    errors = []
    head = None
    newlines = 0
    nonfinite = False
    tail = b""
    with open(path, "rb") as fh:
        while chunk := fh.read(1 << 20):
            if head is None:
                head = chunk.partition(b"\n")[0]
            newlines += chunk.count(b"\n")
            window = tail + chunk
            if (b"nan" in window or b"inf" in window) and _NONFINITE.search(window):
                nonfinite = True
            tail = chunk[-8:]
    head = head or b""
    if head.decode("ascii", "replace") != cmd.header:
        problems.append(f"header {head[:80]!r}, expected {cmd.header!r}")
    if newlines - 1 != cmd.rows:
        problems.append(f"{newlines - 1} rows, expected {cmd.rows}")
    if nonfinite:
        problems.append("non-finite value in CSV")
    if cmd.refs:
        with open(path, encoding="ascii", errors="replace") as fh:
            table = list(csv.DictReader(fh))
        for rc in cmd.refs:
            match = [r for r in table
                     if all(_cell(r.get(k)) == v for k, v in rc.key.items())]
            if len(match) != 1:
                problems.append(f"{rc.label}: {len(match)} rows match {rc.key}")
                continue
            got = _cell(match[0].get(rc.column))
            if got is None:
                problems.append(f"{rc.label}: empty cell")
                continue
            diff = abs(got - rc.expected)
            errors.append(diff / abs(rc.expected))
            bound = rc.tol * abs(rc.expected) if rc.relative else rc.tol
            if not diff <= bound:
                problems.append(f"{rc.label}: {got!r} vs reference {rc.expected!r}")
    return problems, errors


def _cell(text):
    if text is None or text == "":
        return None
    try:
        return float(text)
    except ValueError:
        return None
