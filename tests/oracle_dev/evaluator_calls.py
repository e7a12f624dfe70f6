"""Count and time the Bessel evaluator calls of CLI commands.

Dev-time script, not part of the test run.  Runs each command given through
cli.main in this interpreter, with specfun._jy wrapped by a spy, and prints
one line per _jy call: the points and (kind, order, derivative) requests
it served, its time, and its caller, as the nearest madelung frame and the
nearest module-level function outside specfun and core (the layer that
asked for it).  A summary line per command gives the calls, the points,
the time inside _jy and the command's own time.  The CSV goes to a
temporary file and stdout is discarded; the exit status of each command
is shown.

    python tests/oracle_dev/evaluator_calls.py [--summary] "verify --which all" ...

With no command, it runs the `verify --which all`, `zeros` and `integrate`
commands of the default parameters.  --summary prints only the summary
lines.  Times are one cold pass each: run a command twice to see it warm.
"""

import argparse
import contextlib
import io
import os
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(HERE, "..", "..", "src"))

from madelung import cli, specfun  # noqa: E402

DEFAULT_COMMANDS = ("verify --which all", "zeros --range 0.1:300 --max-roots 1000",
                    "integrate --limits 10,100,1000,10000")


def _caller(frame):
    # "nearest madelung frame <- nearest module-level function outside
    # specfun and core" (closures such as analysis._c_fn's fn are skipped)
    names = []
    while frame is not None:
        module = frame.f_globals.get("__name__", "")
        if module.startswith("madelung."):
            code = frame.f_code
            names.append(f"{module[9:]}.{getattr(code, 'co_qualname', code.co_name)}")
        frame = frame.f_back
    outer = next((n for n in names if not n.startswith(("specfun.", "core."))
                  and "<" not in n), None)
    if not names:
        return "?"
    return names[0] if outer in (None, names[0]) else f"{names[0]} <- {outer}"


def run(argv, path):
    """(exit status, seconds, [(points, requests, seconds, caller)]) of one command."""
    calls = []
    real = specfun._jy

    def spy(z, wanted, *args, **kwargs):
        start = time.perf_counter()
        out = real(z, wanted, *args, **kwargs)
        calls.append((int(getattr(z, "size", 1)), len(wanted),
                      time.perf_counter() - start, _caller(sys._getframe(1))))
        return out

    specfun._jy = spy
    try:
        start = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = cli.main(argv.split() + ["--output", path])
            except SystemExit as exc:  # argparse usage errors
                code = exc.code
        return code, time.perf_counter() - start, calls
    finally:
        specfun._jy = real


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("commands", nargs="*", help="CLI argv strings, one per command")
    ap.add_argument("--summary", action="store_true", help="print only the summary lines")
    args = ap.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "out.csv")
        for argv in args.commands or DEFAULT_COMMANDS:
            code, seconds, calls = run(argv, path)
            if not args.summary:
                print(f"{argv}")
                print(f"  {'#':>3} {'points':>7} {'reqs':>4} {'ms':>7}  caller")
                for i, (points, reqs, secs, caller) in enumerate(calls, 1):
                    print(f"  {i:>3} {points:>7} {reqs:>4} {1e3 * secs:>7.2f}  {caller}")
            points = sum(c[0] for c in calls)
            in_jy = sum(c[2] for c in calls)
            print(f"{argv}: exit {code}, {len(calls)} _jy calls, {points} points, "
                  f"{1e3 * in_jy:.1f} ms in _jy of {1e3 * seconds:.1f} ms")


if __name__ == "__main__":
    main()
