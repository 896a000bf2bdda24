"""Post-double-selection Granger-causality tests and all-pairs network construction."""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from sparsevar import SparsevarError
from sparsevar.lasso import LassoConfig, _bic, _path_moments, lasso_paths
from sparsevar.panel import (LagEmbedding, TimePanel, lag_embed, number, standardize, write_csv,
                             write_text)

log = logging.getLogger("sparsevar.granger")


class GrangerError(SparsevarError):
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


NO_CONVERGED_FIT = "no converged fit on the BIC grid; raise max_sweeps"
# stacked coefficients a BIC scoring block holds at most, 1 MB as a ``_finish`` chunk
_BIC_BLOCK = 1 << 17


def _bic_select(
    D: np.ndarray, rows: list[list[int]], cols: list[list[int]], cfg: LassoConfig
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-row penalty and support minimizing single-equation BIC, for g designs.

    Design i regresses each row D[rows[i][r]] (of N samples) on the regressors
    D[cols[i]]. Each row has its own grid descending from its own ``lambda_max`` (one
    stacked product per design, one ``np.geomspace`` call for every row), and the g
    designs' paths run in lockstep in one ``lasso_paths`` call; each design stops on its
    own, so it selects exactly what it selects alone. BIC at each grid point is
    N ln(RSS/N) + s ln(N) at the LASSO coefficients a_r, with RSS read from the
    path's own moments as N (yy_r - 2 <a_r, c_r> + a_r G a_r^T), yy_r = ||y_r||^2 / N;
    an RSS that rounds below 0 (a row fitted exactly) is 0, so its BIC is -inf, as
    from the samples. The points are scored in blocks, every row of every design at
    each point of a block in one stacked pass: a block holds at most ``_BIC_BLOCK``
    coefficients and at least one point (the bench network's whole path; one point of
    a paper-scale one), and each row's bits are those of a pass per point. Ties break
    toward the larger penalty (the grid descends): the first minimum in a block, which
    replaces the best so far only when strictly lower. A row orthogonal to every
    regressor gets the empty model at penalty 0: a zero row of C keeps it at
    zero. A penalty at which a design's joint solve did not converge is skipped
    for every row of that design only. Returns the penalties (g, R), the support
    (g, R, m) and whether each design had a converged fit on its grid; one that
    had none selects nothing (``NO_CONVERGED_FIT``).
    """
    rows, cols, n = np.asarray(rows), np.asarray(cols), D.shape[1]
    lmax, moments = np.zeros(rows.shape), []
    for i, (y, x) in enumerate((D[r], D[c]) for r, c in zip(rows, cols)):
        lmax[i] = np.abs(((2.0 / n) * y)[:, None, :] @ x.T).max(axis=(1, 2))  # stacked
        moments.append(_path_moments(y, x, per_row=True))
    live = lmax != 0.0
    top = np.where(live, lmax, 1.0)  # bitwise lambda_grid(lmax[i, r]) on live rows
    grid = np.where(live, np.geomspace(top, top * cfg.grid.ratio, cfg.grid.n_points), 0.0)
    G, C, yy = (np.stack(parts) for parts in zip(*moments))
    C[~live] = 0.0
    yy_rows, C2 = np.einsum("dn,dn->d", D, D)[rows] / n, 2.0 * C
    lams, best = np.zeros(lmax.shape), np.full(lmax.shape, np.inf)
    support = np.zeros(live.shape + cols.shape[1:], dtype=bool)
    ok = ~live.any(axis=1)
    step = max(1, _BIC_BLOCK // C.size)
    path = lasso_paths(G.copy(), C, yy, grid, cfg)  # G is read below
    for start in range(0, len(grid), step):
        lam = grid[start:start + step]
        points = [next(path)[1:3] for _ in lam]  # each point's A and converged
        # a block of one point is its A itself: no copy beside it at paper scale
        A = np.stack([a for a, _ in points]) if len(points) > 1 else points[0][0][None]
        c = np.array([converged for _, converged in points])
        for b, i in np.argwhere(~c).tolist():  # in (point, design) order
            log.warning("BIC stage of design %d skipped non-converged penalties %s", i, lam[b, i])
        rss = n * np.maximum(yy_rows - np.einsum("bgrm,bgrm->bgr", A, C2 - A @ G), 0.0)
        bic = _bic(rss, np.count_nonzero(A, axis=3), n)
        bic[~((bic < np.inf) & live & c[..., None])] = np.inf  # never selected
        low = bic.min(axis=0)
        better = low < best
        at = (bic.argmin(axis=0)[better], *np.nonzero(better))  # each first minimum
        best[better], lams[better], support[better] = low[better], lam[at], A[at] != 0.0
        ok |= c.any(axis=0)
    return lams, support, ok


# a regressor is collinear when at most this share of its sum of squares lies outside the
# span of the regressors before it: beyond it normal equations keep under half the digits
_PIVOT_TOL = float(np.sqrt(np.finfo(float).eps))


def _name_collinear(S: np.ndarray, labels: list[str]) -> list[str]:
    """Regressors in a near-linear dependency, by a Cholesky factor L of their cross-product
    S pivoted on the largest remaining diagonal: the pivots from the first with L_jj^2 <=
    ``_PIVOT_TOL`` S_jj (at least the last pivot), and every earlier pivot that enters
    their fit with more than sqrt(_PIVOT_TOL) of their norm."""
    A, piv = S.copy(), np.arange(len(S))
    for rank in range(len(S)):  # stops at the first small pivot, else at the last
        j = rank + int(np.argmax(np.diagonal(A)[rank:]))
        A[[rank, j]], piv[[rank, j]] = A[[j, rank]], piv[[j, rank]]
        A[:, [rank, j]] = A[:, [j, rank]]
        if A[rank, rank] <= _PIVOT_TOL * S[piv[rank], piv[rank]]:
            break
        A[rank:, rank] /= np.sqrt(A[rank, rank])
        A[rank + 1:, rank + 1:] -= np.outer(A[rank + 1:, rank], A[rank + 1:, rank])
    coef = np.linalg.solve(np.tril(A[:rank, :rank]).T, A[rank:, :rank].T)
    norms = np.sqrt(np.diagonal(S))[piv]
    loads = (np.abs(coef) * norms[:rank, None] > np.sqrt(_PIVOT_TOL) * norms[rank:]).any(axis=1)
    return sorted(labels[j] for j in np.concatenate([piv[:rank][loads], piv[rank:]]))


def _chi2_sf(x: float, dof: int) -> float:
    """Chi-squared upper tail Q(dof/2, y), y = x/2, at integer dof: erfc(sqrt(y)) if dof is
    odd, plus y^a e^-y / Gamma(a + 1) for a = dof/2 - 1, dof/2 - 2, ... >= 0, each one exp
    of an exactly summed exponent (it underflows only with the term). x <= 0 gives 1."""
    if x <= 0.0:
        return 1.0
    y, log_y = x / 2.0, math.log(x / 2.0)
    hi = float(np.float32(log_y))  # 24 bits, so a * hi is exact
    terms = [math.erfc(math.sqrt(y)) if dof % 2 else 0.0]
    for a in (dof % 2 / 2.0 + j for j in range(dof // 2)):
        parts = [a * hi, a * (log_y - hi), -y, -math.lgamma(a + 1.0)]
        e = math.fsum(parts)
        terms.append(math.exp(e) * (1.0 + math.fsum(parts + [-e])))  # e's rounding, restored
    return min(math.fsum(terms), 1.0)  # near x = 0 the sum can round above 1


def _split_rows(K: int, p: int, cause_idx: list[int]) -> tuple[list[int], list[int]]:
    """Embedding rows of the causes' lags (lag-major) and of every other regressor."""
    gc_rows = [(lag - 1) * K + k for lag in range(1, p + 1) for k in sorted(cause_idx)]
    tested = set(gc_rows)
    return gc_rows, [j for j in range(K * p) if j not in tested]


def _cross_products(D: np.ndarray) -> np.ndarray:
    """M = D D^T, one row product D @ D[j] at a time: each entry is then one dot
    product, the same bytes at any BLAS thread count."""
    return np.array([D @ d for d in D])


def _lm_test(
    embed: LagEmbedding,
    M: np.ndarray,
    effect: int,
    gc_rows: list[int],
    control_rows: list[int],
    robust: bool,
    coef: bool = False,
) -> tuple[float, float, np.ndarray | None]:
    """LM statistic, p-value and, with ``coef``, tested-block coefficients of the
    final regression of the effect on the selected controls plus the tested lags.

    M is ``_cross_products`` of D = [Y; Z]. One Cholesky factor L L^T of M on
    the regressors [controls, tested lags] and z = L^-1 M[regressors, effect]
    give the restricted RSS_r = ||y||^2 - ||z_c||^2, the auxiliary regression's
    explained sum ||z_gc||^2, so LM = N ||z_gc||^2 / RSS_r, and the tested
    coefficients b from L_gc^T b = z_gc (solved only with ``coef``; the network
    reads p-values alone). Rank rule: a regressor is collinear
    when its pivot L_jj^2 (its sum of squares outside the span of the regressors
    before it) is at most ``_PIVOT_TOL`` = sqrt(eps) ~ 1.5e-8 times M_jj, or when
    the factorization fails; ``_name_collinear`` then names the columns from that
    same S = M[regressors, regressors]. ``robust=True`` scores ``_robust_lm`` on the
    samples' restricted residuals instead.
    """
    n, dof, nc = embed.n_cols, len(gc_rows), len(control_rows)
    if dof + nc >= n:
        raise GrangerError(
            f"selected {nc} controls plus {dof} tested regressors "
            f"reach the sample size {n}; raise the penalty floor (grid ratio)"
        )
    # the tested block always enters the final regression, selected or not
    x = [embed.Y.shape[0] + j for j in control_rows + gc_rows]
    S = M[np.ix_(x, x)]
    try:
        L = np.linalg.cholesky(S)
    except np.linalg.LinAlgError:
        L = None
    if L is None or np.any(np.diagonal(L) ** 2 <= _PIVOT_TOL * np.diagonal(S)):
        labels = embed.regressor_names()
        bad = _name_collinear(S, [labels[j] for j in control_rows + gc_rows])
        raise GrangerError(f"collinear regressors in final design: {bad}")

    z = np.linalg.solve(L, M[effect, x])
    if robust:
        Xc = embed.Z[control_rows]
        eps = embed.Y[effect] - np.linalg.solve(L[:nc, :nc].T, z[:nc]) @ Xc
        lm = _robust_lm(eps, embed.Z[gc_rows], Xc)
    else:
        rss_r = M[effect, effect] - z[:nc] @ z[:nc]
        lm = 0.0 if rss_r <= 0.0 else n * float(z[nc:] @ z[nc:]) / rss_r
    return float(lm), _chi2_sf(lm, dof), np.linalg.solve(L[nc:, nc:].T, z[nc:]) if coef else None


def pds_granger(
    panel: TimePanel,
    spec: GrangerSpec,
    cfg: LassoConfig | None = None,
    robust: bool = False,
) -> GrangerResult:
    """Test whether the lags of the causing block improve prediction of the effect.

    The panel is standardized internally. Selection runs twice: the effect on
    all non-block lag regressors, then each block lag regressor on the same
    set, each with a BIC-tuned penalty (one ``_bic_select`` path of
    1 + |causes| * p rows). The union of regressors selected in
    any stage conditions the final least-squares regression of the effect on
    block lags plus controls (``_lm_test``, from the moments of D = [Y; Z]), and the
    block's joint nullity is scored by the auxiliary-regression LM statistic
    H * R^2 = H ||z_gc||^2 / RSS_r against chi-squared with one
    degree of freedom per tested coefficient. With ``robust=True`` the
    heteroskedasticity-robust score form is used instead.
    """
    cfg = cfg or LassoConfig()
    for name in (spec.effect, *spec.causes):
        panel.index_of(name)  # raises with the offending name
    std_panel, _ = standardize(panel)
    embed = lag_embed(std_panel, spec.p)
    K, effect = panel.n_series, panel.index_of(spec.effect)
    gc_rows, other_rows = _split_rows(K, spec.p, [panel.index_of(c) for c in spec.causes])
    D = np.vstack([embed.Y, embed.Z])
    lams, support, ok = _bic_select(D, [[effect] + [K + j for j in gc_rows]],
                                    [[K + j for j in other_rows]], cfg)
    if not ok[0]:
        raise GrangerError(NO_CONVERGED_FIT)
    lams, support = lams[0], support[0]
    control_rows = [other_rows[j] for j in np.flatnonzero(support.any(axis=0))]
    M = _cross_products(D)
    lm, p_value, gc_coef = _lm_test(embed, M, effect, gc_rows, control_rows, robust, coef=True)
    labels = embed.regressor_names()
    return GrangerResult(
        effect=spec.effect,
        causes=spec.causes,
        lm_statistic=lm,
        p_value=p_value,
        dof=len(gc_rows),
        selected_controls=tuple(labels[j] for j in control_rows),
        lambda_used=tuple(float(l) for l in lams),
        gc_coefficients=gc_coef,
    )


def _robust_lm(eps: np.ndarray, Z_gc: np.ndarray, Xc: np.ndarray) -> float:
    """Heteroskedasticity-robust score statistic: n - RSS from regressing 1 on
    the products of restricted residuals with the partialled-out tested block."""
    n = eps.shape[0]
    beta, *_ = np.linalg.lstsq(Xc.T, Z_gc.T, rcond=None)  # no controls: beta is empty
    W = (Z_gc - beta.T @ Xc) * eps  # dof x n, elementwise across columns
    ones = np.ones(n)
    beta_w, *_ = np.linalg.lstsq(W.T, ones, rcond=None)
    resid = ones - beta_w @ W
    return n - float(resid @ resid)


def granger_network(
    panel: TimePanel,
    p: int,
    threshold: float = 0.01,
    cfg: LassoConfig | None = None,
    variables: tuple[str, ...] | None = None,
    robust: bool = False,
) -> NetworkResult:
    """Run the pairwise test for every ordered (cause, effect) pair.

    Each test conditions on the lags of all remaining panel variables and is
    ``pds_granger``'s test of that pair, bit for bit. The panel is standardized
    and lag-embedded once, into D = [Y; Z]. For a cause c, the selection
    regressions of every effect and of the p lags of c all share the design
    Z_other(c) (every lag but c's), so one BIC path per cause selects them
    all: K paths instead of K (K - 1) (p + 1), and the K paths run in lockstep
    in one ``_bic_select`` call, each stopping on its own. Each pair then runs
    the final LM test on its own controls, from submatrices of one cross-product
    M = D D^T (``_cross_products``) formed once for the network.

    An edge source -> target is emitted exactly when its p-value is below
    the threshold; the full p-value matrix is always produced. Pairs whose
    test errors are recorded in ``failures`` and skipped without aborting
    the run; a cause whose paths have no converged fit fails every pair of
    that cause only, with one reason.
    """
    if not 0.0 <= threshold <= 1.0:
        raise GrangerError(f"threshold must be in [0, 1], got {threshold}")
    if p < 1:
        raise GrangerError(f"lag order must be >= 1, got {p}")
    cfg = cfg or LassoConfig()
    names = tuple(variables) if variables is not None else panel.names
    if not names:
        raise GrangerError("no variables given")
    duplicates = sorted({name for name in names if names.count(name) > 1})
    if duplicates:
        raise GrangerError(f"duplicate names in variables: {', '.join(duplicates)}")
    for name in names:
        panel.index_of(name)
    std_panel, _ = standardize(panel)
    embed = lag_embed(std_panel, p)

    K = panel.n_series
    designs, rows, cols = [], [], []
    for src in names:
        effect_idx = [panel.index_of(dst) for dst in names if dst != src]
        gc_rows, other_rows = _split_rows(K, p, [panel.index_of(src)])
        designs.append((src, effect_idx, gc_rows, other_rows))
        rows.append(effect_idx + [K + j for j in gc_rows])
        cols.append([K + j for j in other_rows])
    D = np.vstack([embed.Y, embed.Z])
    _, support, ok = _bic_select(D, rows, cols, cfg)
    M = _cross_products(D)

    index = {name: i for i, name in enumerate(names)}
    p_matrix = np.full((len(names), len(names)), np.nan)
    reasons: dict[tuple[str, str], str] = {}
    for (src, effect_idx, gc_rows, other_rows), sel, selected in zip(designs, support, ok):
        effects = [dst for dst in names if dst != src]
        if not selected:
            reasons.update({(src, dst): NO_CONVERGED_FIT for dst in effects})
            continue
        lag_support = sel[len(effects):].any(axis=0)
        for i, dst in enumerate(effects):
            control_rows = [other_rows[j] for j in np.flatnonzero(sel[i] | lag_support)]
            try:
                _, p_matrix[index[dst], index[src]], _ = _lm_test(
                    embed, M, effect_idx[i], gc_rows, control_rows, robust)
            except (GrangerError, np.linalg.LinAlgError) as exc:
                reasons[src, dst] = str(exc)
    failures = [(src, dst, reasons[src, dst]) for dst in names for src in names
                if (src, dst) in reasons]
    for failure in failures:
        log.warning("pair %s -> %s skipped: %s", *failure)
    # the edges are the matrix's sub-threshold entries, effect-major like the failures
    edges = [CausalEdge(source=names[j], target=names[i], p_value=float(p_matrix[i, j]))
             for i, j in np.argwhere(p_matrix < threshold)]
    return NetworkResult(variables=names, p_matrix=p_matrix, edges=tuple(edges),
                         threshold=threshold, failures=tuple(failures))


def write_edges_csv(net: NetworkResult, path) -> None:
    """``from,to,p_value`` rows for every sub-threshold pair."""
    write_csv(path, ["from", "to", "p_value"],
              ([e.source, e.target, number(e.p_value)] for e in net.edges))


def write_matrix_csv(net: NetworkResult, path) -> None:
    """Full p-value matrix, rows = effect (to), columns = cause (from); an untested pair,
    the diagonal included, is NA."""
    write_csv(path, ["to", *net.variables],
              ([name, *(number(v, "NA") for v in row)]
               for name, row in zip(net.variables, net.p_matrix)))


def write_failures_csv(net: NetworkResult, path) -> None:
    """``from,to,reason`` rows for every skipped pair; only the header if none."""
    write_csv(path, ["from", "to", "reason"], net.failures)


def write_network_dot(net: NetworkResult, path) -> None:
    """Plain-text DOT digraph of the sub-threshold edges for external rendering."""
    write_text(path, "".join([
        "digraph granger {\n",
        *(f'  "{name}";\n' for name in net.variables),
        *(f'  "{e.source}" -> "{e.target}" [label="{e.p_value:.4f}"];\n' for e in net.edges),
        "}\n"]))
