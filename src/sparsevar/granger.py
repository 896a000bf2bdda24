"""Post-double-selection Granger-causality tests and all-pairs network construction."""

from __future__ import annotations

import csv
import logging
from dataclasses import dataclass

import numpy as np
from scipy import linalg as sla
from scipy import stats as sstats

from sparsevar.lasso import LassoConfig, lambda_grid, lambda_max, lasso_path
from sparsevar.panel import TimePanel, lag_embed, standardize
from sparsevar.parallel import parallel_map

log = logging.getLogger("sparsevar.granger")


class GrangerError(ValueError):
    """Raised on invalid test specifications or unusable designs."""


@dataclass(frozen=True)
class GrangerSpec:
    """Effect variable, candidate causing block and lag order for one test."""

    effect: str
    causes: tuple[str, ...]
    p: int

    def __post_init__(self):
        causes = tuple(self.causes)
        if not causes:
            raise GrangerError("causes must be nonempty")
        if len(set(causes)) != len(causes):
            raise GrangerError("duplicate names in causes")
        if self.effect in causes:
            raise GrangerError(
                f"effect {self.effect!r} cannot be in its own causing block"
            )
        if self.p < 1:
            raise GrangerError(f"lag order must be >= 1, got {self.p}")
        object.__setattr__(self, "causes", causes)


@dataclass(frozen=True)
class GrangerResult:
    """LM statistic, p-value and the post-double-selection conditioning set."""

    effect: str
    causes: tuple[str, ...]
    lm_statistic: float
    p_value: float
    dof: int
    selected_controls: tuple[str, ...]
    lambda_used: tuple[float, ...]
    gc_coefficients: np.ndarray


@dataclass(frozen=True)
class CausalEdge:
    source: str
    target: str
    p_value: float


@dataclass(frozen=True)
class NetworkResult:
    """Edge list plus the full p-value matrix (rows = effect, columns = cause)."""

    variables: tuple[str, ...]
    p_matrix: np.ndarray
    edges: tuple[CausalEdge, ...]
    threshold: float
    failures: tuple[tuple[str, str, str], ...] = ()


def _bic_select(
    y: np.ndarray, X: np.ndarray, cfg: LassoConfig
) -> tuple[float, np.ndarray, np.ndarray]:
    """Penalty, support mask and coefficients minimizing single-equation BIC.

    BIC at each grid point is N ln(RSS/N) + s ln(N) evaluated at the LASSO
    coefficients; ties break toward the larger penalty (the grid descends).
    """
    n = y.shape[0]
    Y = y.reshape(1, -1)
    lmax = lambda_max(Y, X)
    if lmax == 0.0:
        # target orthogonal to every regressor: empty model
        return 0.0, np.zeros(X.shape[0], dtype=bool), np.zeros(X.shape[0])
    lams = lambda_grid(lmax, cfg.grid)
    best = None
    for lam, A, converged, _ in lasso_path(Y, X, lams, cfg):
        if not converged:
            log.warning("BIC stage skipped non-converged penalty %g", lam)
            continue
        resid = y - A[0] @ X
        rss = float(resid @ resid)
        s = int(np.count_nonzero(A[0]))
        bic = -np.inf if rss == 0.0 else n * np.log(rss / n) + s * np.log(n)
        if best is None or bic < best[0]:
            best = (bic, lam, A[0] != 0.0, A[0].copy())
    if best is None:
        raise GrangerError("no converged fit on the BIC grid; raise max_sweeps")
    return best[1], best[2], best[3]


def _name_collinear(X: np.ndarray, labels: list[str]) -> list[str]:
    """Columns of X (regressors in rows) beyond its numerical rank, by QR pivoting."""
    q, r, piv = sla.qr(X.T, mode="economic", pivoting=True)
    diag = np.abs(np.diag(r))
    tol = diag.max() * max(X.shape) * np.finfo(float).eps if diag.size else 0.0
    rank = int(np.sum(diag > tol))
    return sorted(labels[j] for j in piv[rank:])


def pds_granger(
    panel: TimePanel,
    spec: GrangerSpec,
    cfg: LassoConfig | None = None,
    robust: bool = False,
) -> GrangerResult:
    """Test whether the lags of the causing block improve prediction of the effect.

    The panel is standardized internally. Selection runs twice: the effect on
    all non-block lag regressors, then each block lag regressor on the same
    set, each with a BIC-tuned penalty. The union of regressors selected in
    any stage conditions the final least-squares regression of the effect on
    block lags plus controls, and the block's joint nullity is scored by the
    auxiliary-regression LM statistic H * R^2 against chi-squared with one
    degree of freedom per tested coefficient. With ``robust=True`` the
    heteroskedasticity-robust score form is used instead.
    """
    cfg = cfg or LassoConfig()
    for name in (spec.effect, *spec.causes):
        panel.index_of(name)  # raises with the offending name
    std_panel, _ = standardize(panel)
    embed = lag_embed(std_panel, spec.p)
    labels = embed.regressor_names()
    K = panel.n_series
    n = embed.n_cols
    y = embed.Y[panel.index_of(spec.effect)]

    cause_idx = {panel.index_of(c) for c in spec.causes}
    gc_rows = [
        (lag - 1) * K + k for lag in range(1, spec.p + 1) for k in sorted(cause_idx)
    ]
    other_rows = [j for j in range(K * spec.p) if j not in set(gc_rows)]
    Z_gc = embed.Z[gc_rows]
    Z_other = embed.Z[other_rows]

    lam_y, support_y, _ = _bic_select(y, Z_other, cfg)
    union = support_y.copy()
    lams_used = [lam_y]
    for g in range(Z_gc.shape[0]):
        lam_g, support_g, _ = _bic_select(Z_gc[g], Z_other, cfg)
        union |= support_g
        lams_used.append(lam_g)

    control_rows = [other_rows[j] for j in np.flatnonzero(union)]
    controls = [labels[j] for j in control_rows]
    dof = len(spec.causes) * spec.p
    if dof != Z_gc.shape[0]:
        raise GrangerError(
            f"tested block has {Z_gc.shape[0]} regressors, expected |causes| * p = {dof}"
        )
    if dof + len(control_rows) >= n:
        raise GrangerError(
            f"selected {len(control_rows)} controls plus {dof} tested regressors "
            f"reach the sample size {n}; raise the penalty floor (grid ratio)"
        )

    # the tested block always enters the final regression, selected or not
    X_full = np.vstack([Z_gc, embed.Z[control_rows]]) if control_rows else Z_gc
    full_labels = [labels[j] for j in gc_rows] + controls
    rank = np.linalg.matrix_rank(X_full)
    if rank < X_full.shape[0]:
        bad = _name_collinear(X_full, full_labels)
        raise GrangerError(f"collinear regressors in final design: {bad}")

    Xc = embed.Z[control_rows]
    if control_rows:
        beta_r, *_ = np.linalg.lstsq(Xc.T, y, rcond=None)
        eps = y - beta_r @ Xc
    else:
        eps = y.copy()

    beta_full, *_ = np.linalg.lstsq(X_full.T, y, rcond=None)
    gc_coef = beta_full[:dof]

    if robust:
        lm, p_value = _robust_lm(eps, Z_gc, Xc, dof)
    else:
        beta_aux, *_ = np.linalg.lstsq(X_full.T, eps, rcond=None)
        resid_aux = eps - beta_aux @ X_full
        tss = float(eps @ eps)
        r2 = 0.0 if tss == 0.0 else 1.0 - float(resid_aux @ resid_aux) / tss
        lm = n * r2
        p_value = float(sstats.chi2.sf(lm, dof))
    return GrangerResult(
        effect=spec.effect,
        causes=spec.causes,
        lm_statistic=float(lm),
        p_value=float(p_value),
        dof=dof,
        selected_controls=tuple(controls),
        lambda_used=tuple(float(l) for l in lams_used),
        gc_coefficients=gc_coef,
    )


def _robust_lm(eps: np.ndarray, Z_gc: np.ndarray, Xc: np.ndarray, dof: int):
    """Heteroskedasticity-robust score test: n - RSS from regressing 1 on
    the products of restricted residuals with the partialled-out tested block."""
    n = eps.shape[0]
    if Xc.shape[0] > 0:
        beta, *_ = np.linalg.lstsq(Xc.T, Z_gc.T, rcond=None)
        Z_tilde = Z_gc - beta.T @ Xc
    else:
        Z_tilde = Z_gc
    W = Z_tilde * eps  # dof x n, elementwise across columns
    ones = np.ones(n)
    beta_w, *_ = np.linalg.lstsq(W.T, ones, rcond=None)
    resid = ones - beta_w @ W
    lm = n - float(resid @ resid)
    return lm, float(sstats.chi2.sf(lm, dof))


def granger_network(
    panel: TimePanel,
    p: int,
    threshold: float = 0.01,
    cfg: LassoConfig | None = None,
    variables: tuple[str, ...] | None = None,
    robust: bool = False,
    threads: int = 1,
) -> NetworkResult:
    """Run the pairwise test for every ordered (cause, effect) pair.

    Each test conditions on the lags of all remaining panel variables. An
    edge source -> target is emitted exactly when its p-value is below the
    threshold; the full p-value matrix is always produced. Pairs whose test
    errors are recorded and skipped without aborting the run.
    """
    if not 0.0 <= threshold <= 1.0:
        raise GrangerError(f"threshold must be in [0, 1], got {threshold}")
    names = tuple(variables) if variables is not None else panel.names
    for name in names:
        panel.index_of(name)
    pairs = [(src, dst) for dst in names for src in names if src != dst]

    def run_pair(pair):
        src, dst = pair
        try:
            res = pds_granger(panel, GrangerSpec(effect=dst, causes=(src,), p=p), cfg, robust)
            return res.p_value, None
        except (GrangerError, np.linalg.LinAlgError) as exc:
            return float("nan"), str(exc)

    results = parallel_map(run_pair, pairs, threads)

    index = {name: i for i, name in enumerate(names)}
    p_matrix = np.full((len(names), len(names)), np.nan)
    edges: list[CausalEdge] = []
    failures: list[tuple[str, str, str]] = []
    for (src, dst), (p_value, err) in zip(pairs, results):
        if err is not None:
            log.warning("pair %s -> %s skipped: %s", src, dst, err)
            failures.append((src, dst, err))
            continue
        p_matrix[index[dst], index[src]] = p_value
        if p_value < threshold:
            edges.append(CausalEdge(source=src, target=dst, p_value=p_value))
    # the edge list is exactly the sub-threshold subset of the matrix
    below = {(names[j], names[i]) for i, j in np.argwhere(p_matrix < threshold)}
    listed = {(e.source, e.target) for e in edges}
    if below != listed:
        raise GrangerError(
            f"edge list disagrees with the p-value matrix: matrix only {sorted(below - listed)}, "
            f"list only {sorted(listed - below)}"
        )
    return NetworkResult(
        variables=names,
        p_matrix=p_matrix,
        edges=tuple(edges),
        threshold=threshold,
        failures=tuple(failures),
    )


def write_edges_csv(net: NetworkResult, path) -> None:
    """``from,to,p_value`` rows for every sub-threshold pair."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["from", "to", "p_value"])
        for e in net.edges:
            writer.writerow([e.source, e.target, "%.17g" % e.p_value])


def write_matrix_csv(net: NetworkResult, path) -> None:
    """Full p-value matrix, rows = effect (to), columns = cause (from)."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["to", *net.variables])
        for i, name in enumerate(net.variables):
            row = [name]
            for j in range(len(net.variables)):
                v = net.p_matrix[i, j]
                row.append("NA" if np.isnan(v) else "%.17g" % v)
            writer.writerow(row)


def write_network_dot(net: NetworkResult, path) -> None:
    """Plain-text DOT digraph of the sub-threshold edges for external rendering."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("digraph granger {\n")
        for name in net.variables:
            fh.write(f'  "{name}";\n')
        for e in net.edges:
            label = "%.4f" % e.p_value
            fh.write(f'  "{e.source}" -> "{e.target}" [label="{label}"];\n')
        fh.write("}\n")
