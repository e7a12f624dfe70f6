"""Re-capture the golden digests of tests/test_specfun.py::TestGoldenDigests.

Dev-time script, not part of the test run.  Runs every CLI and LIBRARY
entry of TestGoldenDigests on this checkout and prints both lists in the
test file's literal format, for manual transfer into the test file.
Entries whose digests differ from the test file's are listed on stderr,
old -> new, and the exit status is then 1; it is 0 when every digest
matches, so one run shows that a change kept every output byte.  Every
CLI entry also runs with the CSV writer held to one process (a large table
is otherwise split over forked workers); an entry whose output then
differs is listed too, and the exit status is 1.

    python tests/oracle_dev/capture_digests.py [--parent PATH]

With --parent, PATH is another checkout of the repository (for example
the parent commit, from `git worktree add` or `git archive`).  Every entry
is then also run on PATH's code, in a subprocess, and each entry whose
output differs from PATH's gets a line on stderr with its largest
difference: relative to its envelope (the largest |value| of the same
CSV column and equation, or of the same library array) and in ulps of
the parent's value.  CLI entries are compared cell by cell (CSV) and
number by number (stdout); library entries element by element.  A
library entry that PATH's test file does not define runs this checkout's
definition on PATH's code, so a digest added to pin a path before it
changes is measured against PATH too; one that PATH's code cannot evaluate
is reported as new.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(HERE, "..", "..", "src"), os.path.join(HERE, "..")]

import numpy as np  # noqa: E402

from madelung import cli  # noqa: E402
from test_specfun import TestGoldenDigests  # noqa: E402


def run_cli(argv, path, serial=False):
    # (exit status, CSV text, stdout) of one CLI entry; serial=True keeps the
    # CSV writer in this process whatever the table's size
    out = io.StringIO()
    min_chunks = cli.PARALLEL_MIN_CHUNKS
    try:
        if serial:
            cli.PARALLEL_MIN_CHUNKS = sys.maxsize
        with contextlib.redirect_stdout(out):
            code = cli.main(argv.split() + ["--output", path])
    finally:
        cli.PARALLEL_MIN_CHUNKS = min_chunks
    with open(path) as fh:
        return code, fh.read(), out.getvalue()


def sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


def library_entry(name):
    digest = hashlib.sha256()
    for arr in TestGoldenDigests.library_arrays(name):
        digest.update(np.ascontiguousarray(np.asarray(arr)).tobytes())
    return digest.hexdigest()


# Runs in a subprocess on the parent checkout: argv[1] is its root,
# argv[2] a directory for the outputs, argv[3] the CLI argv list as JSON,
# argv[4] this checkout's test_specfun.py.
_PARENT_RUN = r"""
import contextlib, importlib.util, io, json, os, sys
root, out = sys.argv[1], sys.argv[2]
sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "tests")]
import numpy as np
from madelung import cli
from test_specfun import TestGoldenDigests as G
spec = importlib.util.spec_from_file_location("child_test_specfun", sys.argv[4])
child = importlib.util.module_from_spec(spec)
spec.loader.exec_module(child)
results = {}
for i, argv in enumerate(json.loads(sys.argv[3])):
    path = os.path.join(out, f"cli{i}.csv")
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv.split() + ["--output", path])
    with open(path) as fh:
        results[argv] = [code, fh.read(), buf.getvalue()]
with open(os.path.join(out, "cli.json"), "w") as fh:
    json.dump(results, fh)
for name in child.TestGoldenDigests.LIBRARY:
    owner = G if name in G.LIBRARY else child.TestGoldenDigests
    try:
        arrays = [np.asarray(a) for a in owner.library_arrays(name)]
    except (AttributeError, TypeError):
        continue  # PATH's code lacks what the entry calls: reported as new
    np.savez(os.path.join(out, name + ".npz"), *arrays)
"""


def parent_outputs(root, argvs, tmp):
    child_tests = os.path.join(HERE, "..", "test_specfun.py")
    subprocess.run([sys.executable, "-c", _PARENT_RUN, root, tmp, json.dumps(argvs), child_tests],
                   check=True, env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    with open(os.path.join(tmp, "cli.json")) as fh:
        cli_out = json.load(fh)
    lib = {}
    for name in TestGoldenDigests.LIBRARY:
        path = os.path.join(tmp, name + ".npz")
        if os.path.exists(path):
            with np.load(path) as data:
                lib[name] = [data[f"arr_{i}"] for i in range(len(data.files))]
    return cli_out, lib


def as_float(cell):
    try:
        return float(cell) if cell else np.nan
    except ValueError:
        return None


def difference(old, new, envelope=None):
    """(largest |new - old| over the envelope, largest ulps, count moved), or
    None when the non-finite cells of old and new differ.

    old and new are float arrays of one shape.  The envelope defaults to
    max|old|; ulps are counted in spacings of the nonzero old values.
    """
    old, new = np.asarray(old, dtype=float), np.asarray(new, dtype=float)
    both = np.isfinite(old) & np.isfinite(new)
    if not np.array_equal(old[~both], new[~both], equal_nan=True):
        return None
    old, new = old[both], new[both]
    delta = np.abs(new - old)
    if not delta.any():
        return 0.0, 0.0, 0
    env = float(np.max(np.abs(old))) if envelope is None else envelope
    nonzero = old != 0.0
    ulps = delta[nonzero] / np.spacing(np.abs(old[nonzero]))
    return (float(np.max(delta)) / env, float(np.max(ulps, initial=0.0)),
            int(np.count_nonzero(delta)))


def describe(label, diff):
    if diff is None:
        return f"{label}: not a rounding-level move (text, blank or non-finite cells differ)"
    rel, ulps, count = diff
    return f"{label}: {count} values moved, max {rel:.2g} of envelope, max {ulps:.3g} ulp"


def residual_scale(header, name, rows):
    """Envelope of a residual column: the largest term scale |res|/rel of its
    equation, from its relative column (name_rel, or rel for residual*).
    A relative column's envelope is 1, since it is already scaled."""
    if name == "rel" or name.endswith("_rel"):
        return 1.0
    rel = name + "_rel" if name + "_rel" in header else (
        "rel" if name.startswith("residual") and "rel" in header else None)
    if rel is None:
        return None
    res = np.array([as_float(r[header.index(name)]) for r in rows])
    rr = np.array([as_float(r[header.index(rel)]) for r in rows])
    ok = np.isfinite(res) & np.isfinite(rr) & (rr > 0)
    return float(np.max(np.abs(res[ok]) / rr[ok])) if ok.any() else None


def csv_differences(old, new):
    # one line per CSV column (per equation, when the first column names one) that moved
    rows_old = [line.split(",") for line in old.splitlines()]
    rows_new = [line.split(",") for line in new.splitlines()]
    if rows_old[0] != rows_new[0] or len(rows_old) != len(rows_new):
        return ["header or row count differs"]
    header, body_old, body_new = rows_old[0], rows_old[1:], rows_new[1:]
    keyed = as_float(body_old[0][0]) is None if body_old else False
    groups = {}
    for r_old, r_new in zip(body_old, body_new):
        groups.setdefault(r_old[0] if keyed else "", []).append((r_old, r_new))
    lines = []
    for key, pairs in groups.items():
        for col, name in enumerate(header):
            a = [p[0][col] for p in pairs]
            b = [p[1][col] for p in pairs]
            if a == b:
                continue
            fa, fb = [as_float(c) for c in a], [as_float(c) for c in b]
            env = residual_scale(header, name, [p[0] for p in pairs])
            diff = None if None in fa or None in fb else difference(fa, fb, env)
            label = f"csv {key + ' ' if key else ''}{name}"
            lines.append(describe(label + (" (of the term scale)" if env else ""), diff))
    return lines


_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|[-+]?(?:inf|nan)")


def stdout_differences(old, new):
    a, b = _NUMBER.findall(old), _NUMBER.findall(new)
    if _NUMBER.sub("#", old) != _NUMBER.sub("#", new) or len(a) != len(b):
        return ["stdout text differs beyond its numbers"]
    fa, fb = np.array([float(v) for v in a]), np.array([float(v) for v in b])
    moved = fa != fb
    # printed numbers carry no envelope, so each is relative to its own value
    with np.errstate(divide="ignore", invalid="ignore"):
        rel = np.abs(fb - fa) / np.abs(fa)
    return [f"stdout: {int(np.count_nonzero(moved))} printed numbers moved, "
            f"max {float(np.nanmax(rel[moved])):.2g} relative"] if moved.any() else []


def as_real(v):
    # a complex array as its real and imaginary parts, one envelope for both
    return np.stack([v.real, v.imag]) if np.iscomplexobj(v) else v


def array_differences(old, new):
    if len(old) != len(new):
        return ["array count differs"]
    lines = []
    for i, (a, b) in enumerate(zip(old, new)):
        a, b = np.asarray(a), np.asarray(b)
        if a.shape != b.shape:
            lines.append(f"array {i}: shape {a.shape} -> {b.shape}")
        elif a.tobytes() != b.tobytes():
            diff = difference(as_real(a), as_real(b))
            lines.append(describe(f"array {i}", diff))
    return lines


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", help="another checkout to measure moved outputs against")
    args = ap.parse_args()
    changed, moved = [], []
    argvs = [entry[0] for entry in TestGoldenDigests.CLI]
    with tempfile.TemporaryDirectory() as tmp:
        parent_cli, parent_lib = ({}, {}) if not args.parent else parent_outputs(
            os.path.abspath(args.parent), argvs, tmp)
        path = os.path.join(tmp, "out.csv")
        print("    CLI = [")
        for argv, old_code, old_csv, old_out in TestGoldenDigests.CLI:
            code, csv_text, stdout = run_cli(argv, path)
            csv_sha, out_sha = sha(csv_text), sha(stdout)
            print(f"        ({argv!r}, {code},\n"
                  f"         \"{csv_sha}\",\n"
                  f"         \"{out_sha}\"),")
            for what, old, new in (("exit", old_code, code), ("csv", old_csv, csv_sha),
                                   ("stdout", old_out, out_sha)):
                if old != new:
                    changed.append(f"{argv} {what}: {old} -> {new}")
            s_code, s_csv, s_out = run_cli(argv, path, serial=True)
            if (s_code, sha(s_csv), sha(s_out)) != (code, csv_sha, out_sha):
                changed.append(f"{argv}: the serial writer gives other output")
            if argv in parent_cli:
                p_code, p_csv, p_out = parent_cli[argv]
                lines = ([f"exit {p_code} -> {code}"] if p_code != code else [])
                lines += csv_differences(p_csv, csv_text) if p_csv != csv_text else []
                lines += stdout_differences(p_out, stdout) if p_out != stdout else []
                moved += [f"{argv} | {line}" for line in lines]
    print("    ]")
    print()
    print("    LIBRARY = {")
    for name, old in TestGoldenDigests.LIBRARY.items():
        new = library_entry(name)
        print(f"        \"{name}\": \"{new}\",")
        if old != new:
            changed.append(f"{name}: {old} -> {new}")
        if args.parent and name not in parent_lib:
            moved.append(f"{name} | new entry")
        elif name in parent_lib:
            arrays = [np.asarray(a) for a in TestGoldenDigests.library_arrays(name)]
            moved += [f"{name} | {line}" for line in array_differences(parent_lib[name], arrays)]
    print("    }")
    for line in changed:
        print(line, file=sys.stderr)
    if args.parent:
        print(f"moved against {args.parent}:" if moved else
              f"no output moved against {args.parent}", file=sys.stderr)
        for line in moved:
            print("  " + line, file=sys.stderr)
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main())
