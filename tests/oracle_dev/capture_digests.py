"""Re-capture the golden digests of tests/test_specfun.py::TestGoldenDigests.

Dev-time script, not part of the test run.  Runs every CLI and LIBRARY
entry of TestGoldenDigests on this checkout and prints both lists in the
test file's literal format, for manual transfer into the test file.
Entries whose digests differ from the test file's are listed on stderr,
old -> new, and the exit status is then 1; it is 0 when every digest
matches, so one run shows that a change kept every output byte.

    python tests/oracle_dev/capture_digests.py
"""

import contextlib
import hashlib
import io
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(HERE, "..", "..", "src"), os.path.join(HERE, "..")]

import numpy as np  # noqa: E402

from madelung import cli  # noqa: E402
from test_specfun import TestGoldenDigests  # noqa: E402


def cli_entry(argv, path):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv.split() + ["--output", path])
    with open(path, "rb") as fh:
        csv_sha = hashlib.sha256(fh.read()).hexdigest()
    return code, csv_sha, hashlib.sha256(out.getvalue().encode()).hexdigest()


def library_entry(name):
    digest = hashlib.sha256()
    for arr in TestGoldenDigests.library_arrays(name):
        digest.update(np.ascontiguousarray(np.asarray(arr)).tobytes())
    return digest.hexdigest()


def main():
    changed = []
    print("    CLI = [")
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "out.csv")
        for argv, old_code, old_csv, old_out in TestGoldenDigests.CLI:
            code, csv_sha, out_sha = cli_entry(argv, path)
            print(f"        ({argv!r}, {code},\n"
                  f"         \"{csv_sha}\",\n"
                  f"         \"{out_sha}\"),")
            for what, old, new in (("exit", old_code, code), ("csv", old_csv, csv_sha),
                                   ("stdout", old_out, out_sha)):
                if old != new:
                    changed.append(f"{argv} {what}: {old} -> {new}")
    print("    ]")
    print()
    print("    LIBRARY = {")
    for name, old in TestGoldenDigests.LIBRARY.items():
        new = library_entry(name)
        print(f"        \"{name}\": \"{new}\",")
        if old != new:
            changed.append(f"{name}: {old} -> {new}")
    print("    }")
    for line in changed:
        print(line, file=sys.stderr)
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main())
