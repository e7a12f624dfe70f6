"""Self-check of the benchmark itself.

    python3 perfbench/selfcheck.py

1. A minimal-length run (``--seconds 1``) of every workload, untraced and
   traced, must exit 0 and end with a JSON line that carries exactly the
   metrics ``BENCHMARK.json`` declares for that mode, each a finite number
   with the declared unit.
2. A run whose expected reference value is deliberately wrong must report
   a higher fail ratio than the same run with the true value, and
   ``correct: false``.
3. In a directory that holds only ``BENCHMARK.json`` and the benchmark's
   files, the benchmark must exit non-zero without printing a result.

Exits 1 and lists the problems if any check fails.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import shutil
import subprocess
import sys

import run
import workloads


def last_json_line(text):
    lines = text.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def check_minimal_runs(problems):
    expected = {trace: run.declared_units(trace) for trace in (0, 1)}
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            argv = [sys.executable, "perfbench/run.py", "--workload", name, "--seed", "1",
                    "--seconds", "1", "--trace", str(trace)]
            proc = subprocess.run(argv, cwd=run.ROOT, capture_output=True, text=True,
                                  timeout=180)
            where = f"{name} --trace {trace}"
            out = last_json_line(proc.stdout)
            if proc.returncode != 0 or out is None:
                problems.append(f"{where}: exit {proc.returncode}, stderr {proc.stderr[-300:]}")
                continue
            if set(out) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{where}: result keys {sorted(out)}")
            if not out.get("attempted", 0) >= 1:
                problems.append(f"{where}: attempted {out.get('attempted')}")
            got = out.get("metrics", {})
            if set(got) != set(expected[trace]):
                problems.append(f"{where}: missing {sorted(set(expected[trace]) - set(got))}, "
                                f"undeclared {sorted(set(got) - set(expected[trace]))}")
            for key, m in got.items():
                value = m.get("value")
                if not isinstance(value, (int, float)) or not math.isfinite(value):
                    problems.append(f"{where}: {key} = {value!r}")
                if m.get("unit") != expected[trace].get(key):
                    problems.append(f"{where}: {key} unit {m.get('unit')!r}")
            print(f"checked {where}: {len(got)} metrics, attempted {out.get('attempted')}, "
                  f"failed {out.get('failed')}", flush=True)


def check_wrong_reference(problems):
    argv = ["--workload", "tabulate", "--seed", "1", "--seconds", "1", "--trace", "0"]
    results = []
    for corrupt in (False, True):
        ref = run.load_reference()
        if corrupt:
            ref.SHAPE_F[1.0] *= 1.0 + 1e-6
        with contextlib.redirect_stdout(io.StringIO()):
            code, result = run.main(argv, ref=ref)
        results.append(result)
    clean, wrong = results
    if not wrong["fail_ratio"] > clean["fail_ratio"]:
        problems.append(f"wrong reference value: fail_ratio {wrong['fail_ratio']} "
                        f"not above {clean['fail_ratio']}")
    if wrong["correct"]:
        problems.append("wrong reference value: result still reads correct")
    print(f"checked wrong reference value: fail_ratio {clean['fail_ratio']:.3g} -> "
          f"{wrong['fail_ratio']:.3g}, correct {wrong['correct']}", flush=True)


def check_bare_directory(problems):
    bare = os.path.join(run.OUT_DIR, "selfcheck-bare")
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(run.BENCH_DIR, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "tabulate",
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or last_json_line(proc.stdout) is not None:
        problems.append(f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}")
    print(f"checked bare directory: exit {proc.returncode}", flush=True)


def main():
    problems = []
    check_bare_directory(problems)
    check_wrong_reference(problems)
    check_minimal_runs(problems)
    for p in problems:
        print("PROBLEM:", p)
    print("selfcheck", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
