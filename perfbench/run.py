"""Benchmark of the ``madelung`` command line, end to end and layer by layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload tabulate --seed 1 --seconds 30 --trace 0

One client runs a workload's command list as a closed loop.

``--trace 0`` measures the end-to-end metrics:

* ``setup_s``: median time for a fresh interpreter to ``import madelung.cli``;
* ``wall_s``: median time of one pass over the command list, one
  ``python -m madelung.cli`` subprocess per command, ``src`` on PYTHONPATH;
* ``peak_rss_mb``: largest peak resident memory of any command in a pass,
  from that child's own ``wait4`` rusage (median over passes);
* ``inproc_s``: median time of the same pass through ``madelung.cli.main``
  inside this interpreter.

``--trace 1`` measures the per-layer metrics: import times split by
``-X importtime``, spans of traced in-process passes (see ``layers.py``),
probes of the layers' public functions, and the tracing overhead.

Every run checks every command's exit status and CSV output, compares
reference cells with ``tests/reference_values.py``, and records SHA-256
digests of each command's CSV and stdout.  The last line of standard output
is a JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``;
the full result (manifest, per-command times and digests, failures) goes to
``perfbench/out/``.  The run exits 2 without a result when the checkout
holds no ``src/madelung`` or no ``tests/reference_values.py``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.util
import io
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback

import workloads

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
REFERENCE_FILE = os.path.join(ROOT, "tests", "reference_values.py")
OUT_DIR = os.path.join(BENCH_DIR, "out")

SETUP_REPS = 7
IMPORTTIME_REPS = 5
COMMAND_TIMEOUT_S = 90.0
# share of --seconds given to subprocess passes; in-process passes get the rest
SUBPROCESS_SHARE = 0.55

class Checker:
    """Checks every execution of every command.

    The first execution of a command that exits as expected is checked in
    full and its digests are kept; later executions must reproduce those
    digests, and inherit the first execution's output problems.
    """

    def __init__(self, commands):
        self.commands = commands
        self.digests = [None] * len(commands)  # (csv sha256, stdout sha256)
        self.output_problems = [[] for _ in commands]
        self.attempted = 0
        self.failures = []  # one dict per failed execution
        self.wrong_output = False
        self.ref_errors = []

    def check(self, idx, mode, rc, csv_path, stdout, stderr):
        cmd = self.commands[idx]
        self.attempted += 1
        if rc != cmd.expect_rc:
            problems = [f"exit status {rc}, expected {cmd.expect_rc}"]
        else:
            digest = (workloads.digest(csv_path) if os.path.exists(csv_path) else None,
                      hashlib.sha256(stdout).hexdigest())
            if self.digests[idx] is None:
                self.digests[idx] = digest
                if digest[0] is None:
                    self.output_problems[idx] = ["no CSV written"]
                else:
                    self.output_problems[idx], errors = workloads.check_csv(cmd, csv_path)
                    self.ref_errors += errors
                problems = list(self.output_problems[idx])
            elif digest != self.digests[idx]:
                problems = ["output differs from the first execution"]
            else:
                problems = list(self.output_problems[idx])
            self.wrong_output = self.wrong_output or bool(problems)
        if problems:
            self.failures.append({
                "argv": cmd.argv, "mode": mode, "exit_status": rc, "problems": problems,
                "stderr_tail": stderr[-400:]})


def _reap(proc, timeout):
    """Wait for `proc` with wait4 so its own rusage is kept; kill it on timeout."""
    lock = threading.Lock()
    done = []

    def kill():
        with lock:
            if not done:
                proc.kill()

    timer = threading.Timer(timeout, kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        with lock:
            done.append(True)
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_subprocess(argv, work, env):
    """Run one interpreter; returns (seconds, exit status, peak RSS MB, stdout, stderr)."""
    out_path = os.path.join(work, "stdout")
    err_path = os.path.join(work, "stderr")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=ROOT, env=env)
        rc, usage = _reap(proc, COMMAND_TIMEOUT_S)
        dt = time.perf_counter() - t0
    with open(out_path, "rb") as fh:
        stdout = fh.read()
    with open(err_path, "rb") as fh:
        stderr = fh.read().decode("utf-8", "replace")
    return dt, rc, usage.ru_maxrss / 1024.0, stdout, stderr


def run_inprocess(cli, argv):
    """Run ``cli.main`` in this interpreter; returns (seconds, exit status, stdout, stderr)."""
    out = io.StringIO()
    err = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except SystemExit as exc:  # argparse usage errors
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # a crash is a failed command, not a failed benchmark
        rc = None
        err.write(traceback.format_exc())
    dt = time.perf_counter() - t0
    return dt, rc, out.getvalue().encode(), err.getvalue()


def _csv_path(work, idx):
    return os.path.join(work, f"cmd{idx:02d}.csv")


def _fresh(path):
    if os.path.exists(path):
        os.remove(path)


def subprocess_pass(commands, checker, work, env, record):
    total = 0.0
    peak = 0.0
    for idx, cmd in enumerate(commands):
        csv_path = _csv_path(work, idx)
        _fresh(csv_path)
        argv = [sys.executable, "-m", "madelung.cli"] + cmd.argv + ["--output", csv_path]
        dt, rc, rss, stdout, stderr = run_subprocess(argv, work, env)
        checker.check(idx, "subprocess", rc, csv_path, stdout, stderr)
        record[idx]["subprocess_s"].append(dt)
        record[idx]["peak_rss_mb"].append(rss)
        total += dt
        peak = max(peak, rss)
    return total, peak


def inprocess_command(cli, idx, cmd, checker, work, record, mode, tracer=None):
    csv_path = _csv_path(work, idx)
    _fresh(csv_path)
    if tracer is not None:
        tracer.command = idx
    dt, rc, stdout, stderr = run_inprocess(cli, cmd.argv + ["--output", csv_path])
    checker.check(idx, mode, rc, csv_path, stdout, stderr)
    record[idx][mode + "_s"].append(dt)
    return dt


def inprocess_pass(cli, commands, checker, work, record):
    return sum(inprocess_command(cli, idx, cmd, checker, work, record, "inprocess")
               for idx, cmd in enumerate(commands))


def interleaved_pass(modules, commands, checker, work, record):
    """One untraced and one traced in-process pass, interleaved command by command.

    The two runs of a command alternate which goes first, so warm-up costs
    fall on both sides alike.  Returns (untraced seconds, traced seconds, tracer).
    """
    from layers import Tracer, traced

    cli = modules[0]
    tracer = Tracer()
    plain = spent = 0.0
    for idx, cmd in enumerate(commands):
        for is_traced in ((False, True) if idx % 2 == 0 else (True, False)):
            if is_traced:
                with traced(tracer, *modules):
                    spent += inprocess_command(cli, idx, cmd, checker, work, record, "traced",
                                               tracer)
            else:
                plain += inprocess_command(cli, idx, cmd, checker, work, record, "inprocess")
    return plain, spent, tracer


def timed_passes(run_pass, budget_s):
    """Run passes until the next one would end more than half a pass past the budget."""
    results = []
    t0 = time.perf_counter()
    while True:
        results.append(run_pass())
        elapsed = time.perf_counter() - t0
        typical = elapsed / len(results)
        if elapsed + 0.5 * typical > budget_s:
            return results


def measure_setup(env):
    """Seconds for fresh interpreters to import madelung.cli; the first run is a warm-up.

    Timed with a blocking wait4: ``subprocess.run`` with a timeout polls in
    steps of up to 50 ms, which would quantize a 0.2 s measurement.
    """
    argv = [sys.executable, "-c", "import madelung.cli"]
    times = []
    for rep in range(SETUP_REPS + 1):
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env)
        rc, _ = _reap(proc, COMMAND_TIMEOUT_S)
        dt = time.perf_counter() - t0
        if rc != 0:
            raise RuntimeError(f"'import madelung.cli' exited with status {rc}")
        if rep:  # the warm-up writes the bytecode caches
            times.append(dt)
    return times


_IMPORT_LINE = re.compile(r"import time:\s*\d+\s*\|\s*(\d+)\s*\|\s*(\S+)")


def import_split(env):
    """Median (numpy, rest of madelung.cli) cumulative import seconds via -X importtime."""
    numpy_s = []
    rest_s = []
    for _ in range(IMPORTTIME_REPS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import madelung.cli"],
                              cwd=ROOT, env=env, capture_output=True, text=True, check=True,
                              timeout=COMMAND_TIMEOUT_S)
        cumulative = {}
        for m in _IMPORT_LINE.finditer(proc.stderr):
            cumulative.setdefault(m.group(2), int(m.group(1)))
        numpy_s.append(cumulative["numpy"] / 1e6)
        rest_s.append((cumulative["madelung.cli"] - cumulative["numpy"]) / 1e6)
    return statistics.median(numpy_s), statistics.median(rest_s)


def host_speed_probe():
    """Seconds for a fixed piece of interpreter work; compares host speed over time."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(1_000_000):
        acc += i * i % 7
    return time.perf_counter() - t0


def manifest():
    import numpy as np

    sha = None
    with contextlib.suppress(OSError, subprocess.SubprocessError):
        if os.path.isdir(os.path.join(ROOT, ".git")):
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                  text=True, timeout=30)
            sha = proc.stdout.strip() or None
    cpu = platform.processor() or None
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
    }


def summary(values):
    """Median, quartiles and count of a sample."""
    values = list(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def load_reference():
    spec = importlib.util.spec_from_file_location("reference_values", REFERENCE_FILE)
    ref = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(ref)
    return ref


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n", 1)[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None, ref=None):
    """Run one benchmark; returns (exit status, result dict or None)."""
    args = parse_args(argv)
    missing = [p for p in (os.path.join(SRC, "madelung", "cli.py"), REFERENCE_FILE)
               if not os.path.exists(p)]
    if missing:
        print(f"error: the checkout lacks {', '.join(missing)}", file=sys.stderr)
        return 2, None
    if ref is None:
        ref = load_reference()
    wl = workloads.build(args.workload, args.seed, ref)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = os.path.join(OUT_DIR, "work-" + tag)
    os.makedirs(work, exist_ok=True)
    env = _env()
    sys.path.insert(0, SRC)
    start = {"load_start": os.getloadavg(), "host_probe_start_s": host_speed_probe()}
    checker = Checker(wl.commands)
    record = [{"subprocess_s": [], "peak_rss_mb": [], "inprocess_s": [], "traced_s": []}
              for _ in wl.commands]
    spans_out = None
    try:
        if args.trace == 0:
            # Subprocess passes come first, before this process imports numpy or
            # madelung: a child's peak RSS from wait4 includes the launching
            # process's peak, so the launcher must stay smaller than any command.
            setup = measure_setup(env)
            subs = timed_passes(lambda: subprocess_pass(wl.commands, checker, work, env, record),
                                SUBPROCESS_SHARE * args.seconds)
            from madelung import cli

            inproc = timed_passes(
                lambda: inprocess_pass(cli, wl.commands, checker, work, record),
                (1.0 - SUBPROCESS_SHARE) * args.seconds)
            stats = {"setup_s": summary(setup), "wall_s": summary(t for t, _ in subs),
                     "inproc_s": summary(inproc),
                     "peak_rss_mb": summary(p for _, p in subs)}
            metrics = {k: stats[k]["median"] for k in declared_units(0)}
        else:
            from layers import probe, span_metrics
            from madelung import analysis, cli, core, specfun, verify

            numpy_s, rest_s = import_split(env)
            modules = (cli, core, verify, analysis)
            passes = timed_passes(
                lambda: interleaved_pass(modules, wl.commands, checker, work, record),
                args.seconds)
            tracers = [t for _, _, t in passes]
            per_pass = [span_metrics(t.spans) for t in tracers]
            metrics = {"setup.numpy_import_s": numpy_s, "setup.madelung_import_s": rest_s}
            metrics.update({k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]})
            metrics.update(probe(wl, args.seed, specfun, core, verify))
            metrics["trace.overhead_ratio"] = (statistics.median(s for _, s, _ in passes)
                                               / statistics.median(p for p, _, _ in passes))
            stats = {"inproc_s": summary(p for p, _, _ in passes),
                     "traced_inproc_s": summary(s for _, s, _ in passes)}
            spans_out = os.path.join(OUT_DIR, tag + ".spans.jsonl")
            with open(spans_out, "w", encoding="utf-8") as fh:
                for n, t in enumerate(tracers):
                    for s in t.spans:
                        fh.write(json.dumps({"pass": n, "id": s[0], "name": s[1],
                                             "start_ns": s[2], "end_ns": s[3], "parent": s[4],
                                             "command": s[5], "note": s[6]}) + "\n")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    info = dict(manifest(), argv=sys.argv if argv is None else argv, **start,
                load_end=os.getloadavg(), host_probe_end_s=host_speed_probe())

    failed = len(checker.failures)
    result = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "manifest": info, "stats": stats,
        "attempted": checker.attempted, "failed": failed,
        "fail_ratio": failed / checker.attempted,
        "ref_err_max": max(checker.ref_errors) if checker.ref_errors else None,
        "correct": not checker.wrong_output,
        "failures": checker.failures, "spans_file": spans_out,
        "commands": [{"argv": c.argv, "expect_rc": c.expect_rc,
                      "csv_sha256": d[0] if d else None, "stdout_sha256": d[1] if d else None,
                      **{k: summary(v)["median"] for k, v in r.items() if v}}
                     for c, d, r in zip(wl.commands, checker.digests, record)],
        "metrics": metrics,
    }
    with open(os.path.join(OUT_DIR, tag + ".json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    report(result)
    units = declared_units(args.trace)
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": failed,
                      "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}))
    return 0, result


def declared_units(trace):
    """Metric name -> unit, as BENCHMARK.json declares them for one trace mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def report(result):
    """Human-readable lines ahead of the JSON result line."""
    info = result["manifest"]
    print(f"# madelung benchmark: workload={result['workload']} seed={result['seed']} "
          f"trace={result['trace']}  python {info['python']}  numpy {info['numpy']}  "
          f"nproc {info['nproc']}  cpu {info['cpu_model']}  sha {info['git_sha']}")
    print(f"# load {info['load_start'][0]:.2f} -> {info['load_end'][0]:.2f}  host probe "
          f"{info['host_probe_start_s']:.4f}s -> {info['host_probe_end_s']:.4f}s")
    units = dict(declared_units(0), traced_inproc_s="s")
    for name, s in result["stats"].items():
        print(f"{name:16s} median {s['median']:.6g} {units[name]}  "
              f"q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  n={s['n']}")
    ref_err = result["ref_err_max"]
    print(f"{'fail_ratio':16s} {result['fail_ratio']:.6g}  "
          f"({result['failed']} of {result['attempted']} commands)")
    print(f"{'ref_err_max':16s} {ref_err if ref_err is None else format(ref_err, '.3e')}")
    if result["trace"] == 1:
        units = declared_units(1)
        for name, value in result["metrics"].items():
            print(f"{name:44s} {value:.6g} {units[name]}")
    for c in result["commands"]:
        times = "  ".join(f"{k} {c[k]:.4g}" for k in ("subprocess_s", "peak_rss_mb",
                                                       "inprocess_s", "traced_s") if k in c)
        print(f"cmd {' '.join(c['argv'])[:90]:90s} {times}")
    seen = {}
    for f in result["failures"]:
        key = (" ".join(f["argv"]), "; ".join(f["problems"]))
        seen.setdefault(key, [0, f])[0] += 1
    for (argv, problems), (count, f) in seen.items():
        tail = f["stderr_tail"].strip().splitlines()[-1:] or [""]
        print(f"FAILED x{count}: {argv}: {problems} (exit {f['exit_status']}): {tail[0]}")


if __name__ == "__main__":
    code, _ = main()
    sys.exit(code)
