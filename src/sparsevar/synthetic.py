"""Seeded VAR simulator: the ground-truth oracle behind the statistical tests."""

from __future__ import annotations

import json
from dataclasses import dataclass
from datetime import date, timedelta

import numpy as np

from sparsevar import SparsevarError
from sparsevar.panel import TimePanel, stack_state


class SyntheticError(SparsevarError):
    """Raised on unstable or inconsistent simulation specifications."""

BURN_IN = 200


@dataclass(frozen=True)
class SparseRecipe:
    """Random-support coefficient recipe: entries +/- magnitude at the given density."""

    density: float
    magnitude: float
    seed: int = 0

    def __post_init__(self):
        if not 0 < self.density <= 1:
            raise SyntheticError(f"density must be in (0, 1], got {self.density}")
        if self.magnitude <= 0:
            raise SyntheticError(f"magnitude must be > 0, got {self.magnitude}")


@dataclass(frozen=True)
class SyntheticSpec:
    """Dimensions, coefficients (explicit or recipe) and error process."""

    k: int
    p: int
    t: int
    coefficients: np.ndarray | None = None
    recipe: SparseRecipe | None = None
    error: str = "iid"
    rho: float = 0.0
    innovation_sd: float = 1.0
    seed: int = 0
    initial_state: np.ndarray | None = None

    def __post_init__(self):
        if self.k < 1 or self.p < 1 or self.t < 1:
            raise SyntheticError("k, p and t must all be >= 1")
        if self.error not in ("iid", "ar1"):
            raise SyntheticError(f"error must be 'iid' or 'ar1', got {self.error!r}")
        if self.error == "ar1" and not abs(self.rho) < 1:
            raise SyntheticError(f"|rho| must be < 1, got {self.rho}")
        if self.innovation_sd < 0:
            raise SyntheticError("innovation sd must be >= 0")
        if (self.coefficients is None) == (self.recipe is None):
            raise SyntheticError("provide exactly one of coefficients or recipe")
        if self.coefficients is not None:
            A = np.asarray(self.coefficients, dtype=float)
            if A.shape != (self.k, self.k * self.p):
                raise SyntheticError(
                    f"coefficients shape {A.shape}, expected ({self.k}, {self.k * self.p})"
                )
            radius = spectral_radius(A, self.k, self.p)
            if radius >= 1.0:
                raise SyntheticError(f"nonstationary coefficients: radius {radius:.4f}")
            A = A.copy()
            A.setflags(write=False)
            object.__setattr__(self, "coefficients", A)
        if self.initial_state is not None:
            init = np.asarray(self.initial_state, dtype=float)
            if init.shape != (self.p, self.k):
                raise SyntheticError(
                    f"initial_state shape {init.shape}, expected ({self.p}, {self.k})"
                )
            init = init.copy()
            init.setflags(write=False)
            object.__setattr__(self, "initial_state", init)

    def coefficient_matrix(self) -> np.ndarray:
        if self.coefficients is not None:
            return self.coefficients
        return make_sparse_var(
            self.k, self.p, self.recipe.density, self.recipe.magnitude, self.recipe.seed
        )


@dataclass(frozen=True)
class SimTruth:
    """Ground truth paired with a simulated panel."""

    A: np.ndarray
    rho: float
    seed: int

    def to_json(self) -> str:
        return json.dumps(
            {"A": [list(r) for r in self.A], "rho": self.rho, "seed": self.seed},
            indent=2,
        )


def companion_matrix(A: np.ndarray, k: int, p: int) -> np.ndarray:
    """Block companion form whose spectral radius decides stationarity."""
    C = np.zeros((k * p, k * p))
    C[:k, :] = A
    if p > 1:
        C[k:, :-k] = np.eye(k * (p - 1))
    return C


def spectral_radius(A: np.ndarray, k: int, p: int) -> float:
    return float(np.max(np.abs(np.linalg.eigvals(companion_matrix(A, k, p)))))


def make_sparse_var(
    k: int, p: int, density: float, magnitude: float, seed: int = 0
) -> np.ndarray:
    """Random +/- magnitude entries at the given density, stabilized to
    spectral radius <= 0.95. Deterministic per seed.

    Rescaling multiplies the lag-i block by s^i with s = 0.95 / radius, which
    scales every companion eigenvalue by exactly s.
    """
    if not 0 < density <= 1:
        raise SyntheticError(f"density must be in (0, 1], got {density}")
    rng = np.random.default_rng(seed)
    mask = rng.random((k, k * p)) < density
    signs = rng.choice([-1.0, 1.0], size=(k, k * p))
    A = mask * signs * magnitude
    for _ in range(10):
        radius = spectral_radius(A, k, p)
        if radius <= 0.95:
            return A
        s = 0.95 / radius
        for lag in range(1, p + 1):
            A[:, (lag - 1) * k: lag * k] *= s**lag
    raise SyntheticError("could not stabilize coefficients after bounded retries")


def simulate(spec: SyntheticSpec) -> tuple[TimePanel, SimTruth]:
    """Simulate the VAR with a 200-step burn-in discarded.

    Errors are iid N(0, sd^2) or an AR(1) process u_t = rho u_{t-1} + e_t.
    Returns the panel plus the true coefficients for oracle comparisons.
    """
    A = spec.coefficient_matrix()
    rng = np.random.default_rng(spec.seed)
    k, p, t = spec.k, spec.p, spec.t
    total = BURN_IN + t
    if spec.initial_state is not None:
        state = [spec.initial_state[i].copy() for i in range(p)]
    else:
        state = [np.zeros(k) for _ in range(p)]
    rows = np.empty((total, k))
    u_prev = np.zeros(k)
    for step in range(total):
        if spec.innovation_sd == 0.0:
            u = np.zeros(k)
        else:
            eps = spec.innovation_sd * rng.standard_normal(k)
            u = spec.rho * u_prev + eps if spec.error == "ar1" else eps
        u_prev = u
        y = A @ stack_state(np.asarray(state[-p:])) + u
        rows[step] = y
        state.append(y)
        state = state[-p:]
    values = rows[BURN_IN:]
    start = date(2018, 1, 1)
    dates = tuple(start + timedelta(days=i) for i in range(t))
    names = tuple(f"y{i + 1}" for i in range(k))
    panel = TimePanel(dates, names, values)
    rho = spec.rho if spec.error == "ar1" else 0.0
    return panel, SimTruth(A=A, rho=rho, seed=spec.seed)
