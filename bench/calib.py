"""Host-speed calibration, run in a fresh process.

    python3 bench/calib.py

Times REFERENCE_WORK, a fixed piece of plain-numpy work that never imports
``sparsevar``: cyclic coordinate-descent LASSO sweeps written like the seed
solver, on one small multi-response problem (the size of a Granger or
forecast path) and one long one (the size of ``tune_long``). Prints the time
in seconds. The worker runs it between passes, so it sees the host's speed
at the time of the run, and neither the program's code nor its state can
change it.
"""

from __future__ import annotations

import time

import numpy as np

# (responses, regressors, rows, penalties, sweeps per penalty)
REFERENCE_WORK = ((2, 10, 600, 100, 6), (10, 20, 10000, 15, 3))


def _sweeps(Y, Z, lam: float, A, sweeps: int) -> float:
    """Runs the sweeps in place on A; returns the last objective value."""
    n = Y.shape[1]
    norms = np.einsum("jn,jn->j", Z, Z) / n
    R = Y - A @ Z
    obj = 0.0
    for _ in range(sweeps):
        for j in range(Z.shape[0]):
            rho = (R @ Z[j]) / n + A[:, j] * norms[j]
            new = np.sign(rho) * np.maximum(np.abs(rho) - lam / 2, 0.0) / norms[j]
            delta = new - A[:, j]
            if np.any(delta != 0.0):
                R -= np.outer(delta, Z[j])
                A[:, j] = new
        resid = Y - A @ Z
        obj = float(np.sum(resid * resid)) / n + lam * float(np.sum(np.abs(A)))
    return obj


def reference_work(scale: float = 1.0) -> float:
    total = 0.0
    rng = np.random.default_rng(2210)
    for k, m, n, points, sweeps in REFERENCE_WORK:
        n = max(int(n * scale), m)
        Z = rng.standard_normal((m, n))
        Y = 0.3 * Z[:k] + rng.standard_normal((k, n))
        A = np.zeros((k, m))
        for lam in np.geomspace(1.0, 0.001, points):
            total += _sweeps(Y, Z, float(lam), A, sweeps)
    return total


def main() -> None:
    reference_work(scale=0.05)  # warm numpy's dispatch paths
    t = time.perf_counter()
    reference_work()
    print(repr(time.perf_counter() - t))


if __name__ == "__main__":
    main()
