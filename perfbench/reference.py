"""Fixed reference work that measures how fast the host runs right now.

The benchmark runs this as a child process before and after every timed
child.  It does the kinds of work ``crowdcdr report`` does, on fixed
inputs: interpreter start and ``import numpy``; CSV parsing into dicts
and sets over a small working set; and Python tuples, sorting, grouping
and ``numpy.unique`` over a working set of tens of MB, which slows down
when other tenants contend for the cache and memory.  It does not import
crowdcdr, so no change to the program changes its cost.  Its wall time
tracks the host's speed; see ``Runner`` in run.py.
"""

from __future__ import annotations

import csv
import io
import random

import numpy as np

CSV_ROWS = 20_000
TUPLES = 60_000
INTEGERS = 600_000


def small_working_set(rng: random.Random) -> None:
    text = "\n".join(
        f"{rng.randrange(10**9)},{rng.randrange(500)},"
        f"2016-08-{rng.randrange(1, 29):02d}T12:00:00,{rng.random():.6f}"
        for _ in range(CSV_ROWS))
    handsets: dict[tuple[str, str], set[str]] = {}
    for row in csv.reader(io.StringIO(text)):
        handsets.setdefault((row[1], row[2][:10]), set()).add(row[0])
    sizes = np.array([len(v) for v in handsets.values()] * 50, dtype=np.int64)
    np.unique(np.argsort(sizes, kind="stable") % 977, return_counts=True)


def large_working_set(rng: random.Random) -> None:
    rows = [(rng.randrange(10**6), rng.random(), str(i)) for i in range(TUPLES)]
    order = list(range(TUPLES))
    rng.shuffle(order)
    total = 0
    for i in order:
        total += rows[i][0]
    rows.sort()
    groups: dict[int, list[str]] = {}
    for key, _, name in rows:
        groups.setdefault(key % 50_000, []).append(name)
    ints = np.random.default_rng(5).integers(0, 10**6, INTEGERS)
    np.unique(ints, return_counts=True)


def main() -> int:
    rng = random.Random(7)
    small_working_set(rng)
    large_working_set(rng)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
