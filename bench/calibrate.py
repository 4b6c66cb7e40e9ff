"""Fixed machine-speed reference job; it runs no spdclab code.

    python3 bench/calibrate.py

A fresh interpreter imports the same third-party modules the program imports
and runs a fixed mix of scalar Python, small-array NumPy and scalar root-finds,
about 0.65 s on a 2-core Xeon.  ``run.py`` runs it before every round
and after the last, and divides job times by it, so a machine that is slower
for a while (other tenants on shared cores) does not read as a slower program.
A change to the program cannot change this job's time.
"""

import math

import numpy as np
from scipy.optimize import brentq


def main() -> float:
    rng = np.random.default_rng(12345)
    dirs = rng.normal(size=(64, 3))
    acc = 0.0
    for i in range(6000):
        v = dirs[i % 64]
        v = v / np.linalg.norm(v)
        acc += float(np.dot(v * (1.0 + 1e-3 * (i % 7)), v)) + math.hypot(v[0], acc % 3.0)
    for i in range(700):
        c = 1.0 + (i % 97) / 97.0
        acc += brentq(lambda x: x * x * x - c * x - 1.0, 0.0, 3.0, xtol=1e-12)
    return acc


if __name__ == "__main__":
    main()
