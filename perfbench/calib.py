"""Calibration job: fixed work that measures how fast the machine runs now.

Usage: python3 perfbench/calib.py [THREADS]

run.py spawns this between the timed dftr runs and times it from spawn to
exit, as it times them. The work never changes and calls no dftr code, so
its time moves only with the machine: a fresh interpreter importing numpy
and scipy (as every dftr process does), Python float formatting and joining
(as the CSV writer does) and banded solves at 201 and 2001 nodes with small
vector updates (as the stepper does). The solves run in THREADS threads at
once (default 1): the sweep's pool threads hand the interpreter lock to each
other thousands of times a second, and so do these. Dividing a workload's
wall time by the calibration time taken beside it cancels the drift of a
shared host's speed over minutes; see NOTES.md.
"""

from __future__ import annotations

import sys
import threading

import numpy as np
from scipy.linalg import solve_banded

FORMAT_ROWS = 60_000
SOLVES = ((201, 2500), (2001, 800))


def format_rows(rows: int) -> int:
    """Format rows of three floats as the CSV writer does."""
    out = []
    for i in range(rows):
        row = (i * 0.1, 0.5 + i * 1e-3, 1.0 / (i + 1))
        out.append(",".join(repr(x) for x in row))
    return len("\n".join(out))


def banded_steps(m: int, steps: int) -> float:
    """Repeated tridiagonal solves with a vector update, as in a step."""
    ab = np.zeros((3, m))
    ab[0, 1:] = -1.0
    ab[1] = 4.0
    ab[2, :-1] = -1.0
    x = np.linspace(0.0, 1.0, m)
    for _ in range(steps):
        x = solve_banded((1, 1), ab, 1.0 + 0.01 * np.sin(x))
    return float(x.sum())


def solves() -> None:
    for m, steps in SOLVES:
        banded_steps(m, steps)


if __name__ == "__main__":
    threads = int(sys.argv[1]) if len(sys.argv) > 1 else 1
    format_rows(FORMAT_ROWS)
    workers = [threading.Thread(target=solves) for _ in range(threads)]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join()
