"""Per-layer measurements taken from outside the program.

Two sources:

* ``Tracer`` wraps the public functions that ``madelung.cli`` calls and
  records one span per call (name, start, end, parent, command id).  The
  layer of a span is the module in its name.  A span's self time is its
  duration minus the durations of its direct children.
* ``probe`` times public functions directly on inputs drawn from the
  workload's grids.  The special-function layer is measured only this way,
  because the other layers call its private kernels.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import statistics
import time
from collections import defaultdict

import numpy as np

# Fixed z bands, one per Bessel regime.  The series band stops at 8 rather
# than at today's switch point of 12, so it stays inside the series regime
# if that switch point is lowered.
BANDS = {"series": (0.0, 8.0), "recurrence": (12.0, 20.0), "hankel": (20.0, np.inf)}


class Tracer:
    """In-memory span recorder; spans are plain lists so recording stays cheap."""

    def __init__(self):
        self.spans = []  # [id, name, start_ns, end_ns, parent_id, command_id, note]
        self._stack = []
        self.command = -1

    def wrap(self, name, fn, note=None):
        spans = self.spans
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [len(spans), name, 0, 0, stack[-1] if stack else None, self.command, None]
            spans.append(rec)
            stack.append(rec[0])
            rec[2] = time.perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[3] = time.perf_counter_ns()
                stack.pop()
            if note is not None:
                rec[6] = note(args, out)
            return out

        return traced


def _render_note(args, text):
    return {"rows": len(args[0].rows), "bytes": len(text)}


def _roots_note(args, roots):
    return {"roots": len(roots.roots)}


def _targets(cli, core, verify, analysis):
    """(owner, attribute, span name, note) for every traced function."""
    out = []
    for attr, fn in vars(core).items():
        if (not attr.startswith("_") and inspect.isfunction(fn)
                and fn.__module__ == core.__name__):
            out.append((core, attr, f"core.{attr}", None))
    for attr, fn in vars(verify).items():
        if inspect.isfunction(fn) and (attr.startswith("residual_")
                                       or attr == "quantum_potential_direct"):
            out.append((verify, attr, f"verify.{attr}", None))
    for attr in ("find_zeros", "match_poles", "integrate_density", "figure_series"):
        note = _roots_note if attr == "find_zeros" else None
        out.append((analysis, attr, f"analysis.{attr}", note))
    out += [(cli, "main", "cli.main", None), (cli, "emit", "cli.emit", None),
            (cli.CsvTable, "render", "cli.csv_render", _render_note)]
    return [t for t in out if hasattr(t[0], t[1])]


@contextlib.contextmanager
def traced(tracer, cli, core, verify, analysis):
    """Install span wrappers for the duration of the block."""
    saved = []
    try:
        for owner, attr, name, note in _targets(cli, core, verify, analysis):
            fn = getattr(owner, attr)
            saved.append((owner, attr, fn))
            setattr(owner, attr, tracer.wrap(name, fn, note))
        yield tracer
    finally:
        for owner, attr, fn in reversed(saved):
            setattr(owner, attr, fn)


def span_metrics(spans):
    """Per-layer numbers of one traced pass."""
    child = defaultdict(int)
    for s in spans:
        if s[4] is not None:
            child[s[4]] += s[3] - s[2]
    total = defaultdict(int)  # name -> summed duration, ns
    self_ns = defaultdict(int)  # layer -> summed self time, ns
    calls = defaultdict(int)  # layer -> span count
    rows = bytes_ = roots = 0
    for s in spans:
        dur = s[3] - s[2]
        total[s[1]] += dur
        layer = s[1].split(".", 1)[0]
        calls[layer] += 1
        # emit and render are reported as the CSV writer, not as cli self time
        if s[1] not in ("cli.emit", "cli.csv_render"):
            self_ns[layer] += dur - child[s[0]]
        if s[6]:
            rows += s[6].get("rows", 0)
            bytes_ += s[6].get("bytes", 0)
            roots += s[6].get("roots", 0)
    out = {
        "core.self_s": self_ns["core"] / 1e9,
        "core.calls": calls["core"],
        "verify.self_s": self_ns["verify"] / 1e9,
        "analysis.self_s": self_ns["analysis"] / 1e9,
        "cli.self_s": self_ns["cli"] / 1e9,
        "cli.emit.s": total["cli.emit"] / 1e9,
        "cli.csv_render.s": total["cli.csv_render"] / 1e9,
        "cli.csv_render.ns_per_row": total["cli.csv_render"] / rows if rows else 0.0,
        "cli.csv_rows": rows,
        "cli.csv_bytes": bytes_,
        "analysis.find_zeros.ms_per_root":
            total["analysis.find_zeros"] / 1e6 / roots if roots else 0.0,
    }
    for name in ("verify.residual_ode5", "verify.residual_ode_system4",
                 "verify.residual_pde_lab", "verify.residual_schrodinger",
                 "verify.residual_phase_gradient", "verify.quantum_potential_direct",
                 "analysis.find_zeros", "analysis.match_poles",
                 "analysis.integrate_density", "analysis.figure_series"):
        out[name + ".s"] = total[name] / 1e9
    return out


# ---------------------------------------------------------------------------
# probes


def _median_time(fn, reps=3):
    """Median wall time of `reps` calls; each call's result is consumed inside."""
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _points(spec):
    """Points of a CLI grid spec start:stop:count[:log], or a single value."""
    parts = spec.split(":")
    if len(parts) == 1:
        return np.array([float(spec)])
    lo, hi, n = float(parts[0]), float(parts[1]), int(parts[2])
    return np.geomspace(lo, hi, n) if len(parts) == 4 else np.linspace(lo, hi, n)


def probe(workload, seed, specfun, core, verify):
    """Probe metrics for the layers beneath cli, on the workload's own inputs."""
    rng = np.random.default_rng(seed)
    m, c1, c2, dim = workload.probe_params
    params = core.PhysicalParams(m=m, dimension=dim)
    consts = core.SolutionConstants(c1=c1, c2=c2)
    if workload.probe_grid[0] == "eta":
        etas = _points(workload.probe_grid[1])
        lab = np.column_stack([etas / 2.0, etas / 2.0, np.ones_like(etas)])
    else:
        _, x_spec, y_spec, t_spec = workload.probe_grid
        xx, yy, tt = np.meshgrid(_points(x_spec), _points(y_spec), _points(t_spec))
        lab = np.column_stack([xx.ravel(), yy.ravel(), tt.ravel()])
        etas = (lab[:, 0] + lab[:, 1]) / np.sqrt(lab[:, 2])
    zs = m * etas * etas / (4.0 * np.sqrt(dim))
    nu = specfun.BesselOrder(1)
    out = {}

    for band, (lo, hi) in BANDS.items():
        pool = zs[(zs > lo) & (zs <= hi)]
        if len(pool) == 0:
            raise ValueError(f"{workload.name} grids never reach the {band} band")
        z = rng.choice(pool, 100_000)

        def arrays():
            specfun.bessel_j(nu, z).sum() + specfun.bessel_y(nu, z).sum()

        out[f"specfun.jy.{band}.ns_per_pt"] = _median_time(arrays) / len(z) * 1e9
        single = [float(v) for v in z[:100]]

        def scalars():
            for v in single:
                specfun.bessel_j(nu, v) + specfun.bessel_y(nu, v)

        out[f"specfun.jy.{band}.us_per_call"] = _median_time(scalars) / len(single) * 1e6

    z = rng.choice(zs, 20_000)

    def deriv3():
        for k in (1, 2, 3):
            specfun.bessel_j_deriv(nu, z, k).sum() + specfun.bessel_y_deriv(nu, z, k).sum()

    out["specfun.deriv3.ns_per_pt"] = _median_time(deriv3) / len(z) * 1e9
    z = rng.choice(zs, 100_000)
    out["specfun.cross_product.ns_per_pt"] = (
        _median_time(lambda: specfun.cross_product(z).sum()) / len(z) * 1e9)

    eta = rng.choice(etas, 100_000)
    for name, fn in (("shape_density", core.shape_density),
                     ("simplified_shape_density", core.simplified_shape_density)):
        out[f"core.{name}.ns_per_pt"] = (
            _median_time(lambda: fn(eta, params, consts).sum()) / len(eta) * 1e9)
    out["core.quantum_potential_eq9_masked.ns_per_pt"] = _median_time(
        lambda: core.quantum_potential_eq9_masked(eta, params, consts)[0].sum()
    ) / len(eta) * 1e9

    points = [core.LabPoint(*map(float, p)) for p in lab[rng.choice(len(lab), 40)]]

    def lab_calls():
        for p in points:
            core.density(p, params, consts)
            core.velocity(p, params, consts)
            core.phase(p, params)
            core.wavefunction_canonical(p, params, consts)

    out["core.lab_point.us_per_call"] = _median_time(lab_calls) / (4 * len(points)) * 1e6

    eta = rng.choice(etas, 20_000)
    out["verify.shape_derivatives.ns_per_pt"] = _median_time(
        lambda: verify.shape_derivatives(eta, params, consts, upto=3)[3].sum()
    ) / len(eta) * 1e9
    return out
