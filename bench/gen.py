"""Seeded sparse-VAR panel generator owned by the benchmark.

It shares no code with ``sparsevar.synthetic`` so that a change to the
package cannot change the benchmark's inputs. ``generate`` writes
``panel.csv`` (the CLI's input format) and ``truth.json`` (the true
coefficient matrix) and returns the truth as a dict.
"""

from __future__ import annotations

import json
import os
from datetime import date, timedelta

import numpy as np

BURN_IN = 200
MAX_RADIUS = 0.95
START_DATE = date(2000, 1, 1)


def spectral_radius(A: np.ndarray, k: int, p: int) -> float:
    C = np.zeros((k * p, k * p))
    C[:k, :] = A
    C[k:, :-k] = np.eye(k * (p - 1))
    return float(np.max(np.abs(np.linalg.eigvals(C))))


def sparse_coefficients(rng, k: int, p: int, density: float, magnitude: float) -> np.ndarray:
    """K x Kp matrix of +/- magnitude entries at the given density.

    The support is redrawn until at least one cross-series edge exists, and
    lag block l is scaled by s**l (s = 0.95 / radius), which scales every
    companion eigenvalue by s, until the spectral radius is <= 0.95.
    """
    while True:
        mask = rng.random((k, k * p)) < density
        cross = mask.reshape(k, p, k).any(axis=1) & ~np.eye(k, dtype=bool)
        if cross.any():
            break
    A = mask * rng.choice([-1.0, 1.0], size=(k, k * p)) * magnitude
    radius = spectral_radius(A, k, p)
    while radius > MAX_RADIUS:
        s = MAX_RADIUS / radius
        for lag in range(p):
            A[:, lag * k: (lag + 1) * k] *= s ** (lag + 1)
        radius = spectral_radius(A, k, p)
    return A


def simulate(rng, A: np.ndarray, p: int, t: int, rho: float) -> np.ndarray:
    """T x K sample of y_t = sum_l A_l y_{t-l} + u_t after a 200-step burn-in.

    u_t is iid N(0, 1), or AR(1) u_t = rho u_{t-1} + e_t when rho != 0.
    """
    k = A.shape[0]
    eps = rng.standard_normal((BURN_IN + t, k))
    if rho:
        for s in range(1, BURN_IN + t):
            eps[s] += rho * eps[s - 1]
    z = np.zeros(k * p)
    rows = np.empty((BURN_IN + t, k))
    for s in range(BURN_IN + t):
        y = A @ z + eps[s]
        rows[s] = y
        z = np.concatenate([y, z[:-k]])
    return rows[BURN_IN:]


def true_edges(A: np.ndarray, k: int, p: int) -> set[tuple[int, int]]:
    """(cause, effect) index pairs with a nonzero coefficient at any lag."""
    nz = (A.reshape(k, p, k) != 0).any(axis=1)
    return {(c, e) for e in range(k) for c in range(k) if c != e and nz[e, c]}


def write_panel_csv(values: np.ndarray, path: str) -> None:
    k = values.shape[1]
    lines = ["date," + ",".join(f"y{i + 1}" for i in range(k))]
    for i, row in enumerate(values):
        day = (START_DATE + timedelta(days=i)).isoformat()
        lines.append(day + "," + ",".join("%.17g" % x for x in row))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def generate(outdir: str, seed: int, design_seed: int, k: int, p: int, t: int,
             density: float, magnitude: float, rho: float = 0.0) -> dict:
    """Write panel.csv and truth.json for one scenario.

    The coefficient matrix comes from ``design_seed`` and the innovations from
    ``seed``: every seed draws a new sample from the same process, so the
    solver's work per pass does not swing with a new random design.
    """
    A = sparse_coefficients(np.random.default_rng(design_seed), k, p, density, magnitude)
    values = simulate(np.random.default_rng(seed), A, p, t, rho)
    os.makedirs(outdir, exist_ok=True)
    write_panel_csv(values, os.path.join(outdir, "panel.csv"))
    truth = {"seed": seed, "design_seed": design_seed, "k": k, "p": p, "t": t, "density": density,
             "magnitude": magnitude, "rho": rho,
             "spectral_radius": spectral_radius(A, k, p),
             "A": A.tolist()}
    with open(os.path.join(outdir, "truth.json"), "w", encoding="utf-8") as fh:
        json.dump(truth, fh)
    return truth


def date_at(index: int) -> str:
    """ISO date of panel row ``index``."""
    return (START_DATE + timedelta(days=index)).isoformat()


def read_panel_values(path: str, k: int) -> np.ndarray:
    """The K value columns of a panel.csv, as the CLI reads them."""
    return np.loadtxt(path, delimiter=",", skiprows=1, usecols=range(1, k + 1), ndmin=2)
