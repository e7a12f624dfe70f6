"""Serial against forked CSV writes, to place cli.PARALLEL_MIN_CHUNKS.

Dev-time script, not part of the test run.  Writes an (eta, f) table of
4 to 64 chunks of cli.CHUNK_ROWS rows to a temporary file, once held to
one process and once split over the usable CPUs (cli._part_bounds with a
threshold of one chunk per process), and prints the median and quartiles
of each, in ms, with their ratio.  A table forks when it has at least
2 * PARALLEL_MIN_CHUNKS chunks, so the constant belongs where the ratio
falls below 1.  The two are timed alternately.

    python tests/oracle_dev/csv_writer_timing.py [--repeats N]
"""

import argparse
import os
import statistics
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(HERE, "..", "..", "src"))

from madelung import cli, core  # noqa: E402

CHUNKS = (4, 8, 12, 16, 20, 24, 25, 32, 48, 64)


def write_time(table, path, min_chunks):
    saved = cli.PARALLEL_MIN_CHUNKS
    cli.PARALLEL_MIN_CHUNKS = min_chunks
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            start = time.perf_counter()
            table.write(fh)
            return time.perf_counter() - start
    finally:
        cli.PARALLEL_MIN_CHUNKS = saved


def quartiles_ms(times):
    q1, q2, q3 = statistics.quantiles(times, n=4)
    return f"{1e3 * q2:8.1f} [{1e3 * q1:6.1f}, {1e3 * q3:6.1f}]"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--repeats", type=int, default=11, help="writes per table and path")
    args = ap.parse_args()
    params, consts = core.PhysicalParams(m=1.0), core.SolutionConstants(c1=1.0, c2=1.0)
    print(f"CHUNK_ROWS {cli.CHUNK_ROWS}, {len(cli._part_bounds(1 << 40)) - 1} parts "
          f"when forked, {args.repeats} writes each; ms: median [q1, q3]")
    print(f"{'chunks':>6} {'serial':>24} {'forked':>24} {'forked/serial':>14}")
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "t.csv")
        for chunks in CHUNKS:
            eta = core.GridSpec(0.1, 50.0, chunks * cli.CHUNK_ROWS, "log").points()
            table = cli.CsvTable(["eta", "f"], [eta, core.shape_density(eta, params, consts)])
            # alternated, so that a drift in the host's speed hits both alike
            serial, forked = [], []
            for _ in range(args.repeats):
                serial.append(write_time(table, path, sys.maxsize))
                forked.append(write_time(table, path, 1))
            ratio = statistics.median(forked) / statistics.median(serial)
            print(f"{chunks:>6} {quartiles_ms(serial):>24} {quartiles_ms(forked):>24} "
                  f"{ratio:>14.2f}")


if __name__ == "__main__":
    main()
