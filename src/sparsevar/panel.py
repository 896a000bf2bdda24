"""Date-indexed panel container, core transforms and per-series summary statistics, and
the package's file I/O: ``csv_records`` and ``read_panel_csv`` read every input CSV, and
``write_csv`` and ``write_text``, with ``number``'s spelling of a float, write every output."""

from __future__ import annotations

import contextlib
import csv
import io
import math
import os
import warnings
from bisect import bisect_left
from dataclasses import dataclass
from datetime import date

import numpy as np

from sparsevar import SparsevarError


class PanelError(SparsevarError):
    """Raised on invalid panel construction or transform input."""


@dataclass(frozen=True)
class TimePanel:
    """T x K matrix of named daily series.

    Row t holds the observation for ``dates[t]``; column k is the series
    ``names[k]``. Values are stored read-only so panels can be shared freely.
    ``TimePanel(...)`` copies the values and checks shapes, unique names,
    increasing dates and finiteness; ``slice_rows`` derives a panel without
    checks, ``with_values`` checks only the shape and finiteness of its new
    values, and ``read_panel_csv`` checks only what its parse leaves open.
    """

    dates: tuple[date, ...]
    names: tuple[str, ...]
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "dates", tuple(self.dates))
        object.__setattr__(self, "names", tuple(str(n) for n in self.names))
        arr = np.array(self.values, dtype=float)
        if arr.ndim != 2:
            raise PanelError(f"values must be 2-D, got shape {arr.shape}")
        if arr.shape[0] != len(self.dates):
            raise PanelError(f"{arr.shape[0]} rows but {len(self.dates)} dates")
        if arr.shape[1] != len(self.names):
            raise PanelError(f"{arr.shape[1]} columns but {len(self.names)} names")
        _unique(self.names)
        for prev, nxt in zip(self.dates, self.dates[1:]):
            if nxt <= prev:
                raise PanelError(f"dates not strictly increasing at {nxt}")
        object.__setattr__(self, "values", self._frozen_finite(arr))

    def _frozen_finite(self, arr: np.ndarray) -> np.ndarray:
        if not np.all(np.isfinite(arr)):
            t, k = map(int, np.argwhere(~np.isfinite(arr))[0])
            raise PanelError(
                f"non-finite value in series {self.names[k]!r} on {self.dates[t]}"
            )
        arr.setflags(write=False)
        return arr

    @staticmethod
    def _of(dates: tuple[date, ...], names: tuple[str, ...], values: np.ndarray) -> "TimePanel":
        panel = object.__new__(TimePanel)  # parts already validated skip the checks
        panel.__dict__.update(dates=dates, names=names, values=values)
        return panel

    @property
    def n_obs(self) -> int:
        return self.values.shape[0]

    @property
    def n_series(self) -> int:
        return self.values.shape[1]

    def index_of(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise PanelError(f"unknown series {name!r}") from None

    def position(self, d: date) -> int:
        # dates are sorted; binary search keeps lookups cheap on long panels
        lo = bisect_left(self.dates, d)
        if lo < len(self.dates) and self.dates[lo] == d:
            return lo
        raise PanelError(f"date {d} not in panel")

    def slice_rows(self, start: int, stop: int) -> "TimePanel":
        """Rows [start, stop): a read-only view of these values, not re-validated."""
        return TimePanel._of(self.dates[start:stop], self.names, self.values[start:stop])

    def with_values(self, values: np.ndarray) -> "TimePanel":
        """These dates and names over a read-only copy of ``values``, which must
        have this panel's shape; only finiteness is checked, as an affine map of
        finite values can overflow."""
        values = np.array(values, dtype=float)
        if values.shape != self.values.shape:
            raise PanelError(f"values of shape {values.shape} for a {self.values.shape} panel")
        return TimePanel._of(self.dates, self.names, self._frozen_finite(values))


def _unique(names: tuple[str, ...]) -> tuple[str, ...]:
    if len(set(names)) != len(names):
        dupes = sorted({n for n in names if names.count(n) > 1})
        raise PanelError(f"duplicate series names: {dupes}")
    return names


@dataclass(frozen=True)
class StandardizationStats:
    """Per-column means and population standard deviations used to standardize."""

    means: np.ndarray
    sds: np.ndarray

    def __post_init__(self):
        means = np.atleast_1d(np.asarray(self.means, dtype=float))
        sds = np.atleast_1d(np.asarray(self.sds, dtype=float))
        if means.shape != sds.shape or means.ndim != 1:
            raise PanelError("means and sds must be 1-D vectors of equal length")
        if np.any(sds <= 0):
            raise PanelError("standard deviations must be strictly positive")
        means.setflags(write=False)
        sds.setflags(write=False)
        object.__setattr__(self, "means", means)
        object.__setattr__(self, "sds", sds)

    @property
    def n_series(self) -> int:
        return self.means.shape[0]

    def transform(self, values: np.ndarray) -> np.ndarray:
        """Map raw rows (last axis = series) into standardized units."""
        return (np.asarray(values, dtype=float) - self.means) / self.sds

    def inverse(self, values: np.ndarray) -> np.ndarray:
        """Map standardized rows back to raw units."""
        return np.asarray(values, dtype=float) * self.sds + self.means


@dataclass(frozen=True)
class LagEmbedding:
    """Stacked-lag regression layout for a VAR(p).

    Column tau of Z stacks [y_{tau+p-1}; ...; y_{tau}] (lag-1 block first) and
    the matching column of Y is y_{tau+p}, so Y = A Z + U with A = [A_1 ... A_p].
    """

    Y: np.ndarray  # K x (T - p)
    Z: np.ndarray  # (K p) x (T - p)
    p: int
    names: tuple[str, ...] = ()

    @property
    def n_series(self) -> int:
        return self.Y.shape[0]

    @property
    def n_cols(self) -> int:
        return self.Y.shape[1]

    def regressor_names(self) -> list[str]:
        """Row labels of Z, lag-major: name.l1 ... for lag 1 first."""
        names = self.names or tuple(f"x{k}" for k in range(self.n_series))
        return [f"{n}.l{lag}" for lag in range(1, self.p + 1) for n in names]


@dataclass(frozen=True)
class SummaryReport:
    """Per-series distribution summary plus unit-root statistic."""

    names: tuple[str, ...]
    mean: np.ndarray
    median: np.ndarray
    minimum: np.ndarray
    maximum: np.ndarray
    value_range: np.ndarray
    skewness: np.ndarray
    kurtosis: np.ndarray
    adf: np.ndarray

    def rows(self):
        for k, name in enumerate(self.names):
            yield {
                "series": name,
                "mean": float(self.mean[k]),
                "median": float(self.median[k]),
                "min": float(self.minimum[k]),
                "max": float(self.maximum[k]),
                "range": float(self.value_range[k]),
                "skew": float(self.skewness[k]),
                "kurtosis": float(self.kurtosis[k]),
                "adf": float(self.adf[k]),
            }


def log_returns(prices: TimePanel) -> TimePanel:
    """Log returns ln(P_t / P_{t-1}); output is dated on the later day."""
    if prices.n_obs < 2:
        raise PanelError("need at least two rows to compute returns")
    vals = prices.values
    if np.any(vals <= 0):
        t, k = map(int, np.argwhere(vals <= 0)[0])
        raise PanelError(
            f"non-positive price in series {prices.names[k]!r} on {prices.dates[t]}"
        )
    rets = np.diff(np.log(vals), axis=0)
    return TimePanel(prices.dates[1:], prices.names, rets)


def standardize(panel: TimePanel) -> tuple[TimePanel, StandardizationStats]:
    """Center and scale each column to mean 0, population sd 1, by ``np.std``'s steps from one
    dev = x - mean, then dev / sd in place: bitwise ``x.std(0)`` and ``(x - mean) / sd``."""
    means = panel.values.mean(axis=0)
    dev = panel.values - means
    sds = np.sqrt((dev * dev).sum(axis=0) / len(dev))  # population (1/T) convention
    if np.any(sds == 0):
        k = int(np.flatnonzero(sds == 0)[0])
        raise PanelError(f"series {panel.names[k]!r} has zero variance")
    stats = StandardizationStats(means, sds)
    dev /= sds
    return TimePanel._of(panel.dates, panel.names, panel._frozen_finite(dev)), stats


def destandardize(panel: TimePanel, stats: StandardizationStats) -> TimePanel:
    """Invert :func:`standardize` using the recorded statistics."""
    if stats.n_series != panel.n_series:
        raise PanelError(
            f"stats cover {stats.n_series} series, panel has {panel.n_series}"
        )
    return panel.with_values(stats.inverse(panel.values))


def lag_embed(panel: TimePanel, p: int) -> LagEmbedding:
    """Build the Y = A Z + U layout with p stacked lags."""
    if p < 1:
        raise PanelError(f"lag order must be >= 1, got {p}")
    if p >= panel.n_obs:
        raise PanelError(f"lag order {p} >= sample length {panel.n_obs}")
    vals = panel.values
    T, K = vals.shape
    Y = vals[p:].T.copy()
    Z = np.empty((K * p, T - p))
    for lag in range(1, p + 1):
        Z[(lag - 1) * K: lag * K, :] = vals[p - lag: T - lag].T
    Y.setflags(write=False)
    Z.setflags(write=False)
    return LagEmbedding(Y=Y, Z=Z, p=p, names=panel.names)


def stack_state(history: np.ndarray) -> np.ndarray:
    """Stack the last p observations (rows oldest-first) into z = [y_t; ...; y_{t-p+1}],
    the layout of one column of ``lag_embed``'s Z."""
    return np.concatenate(history[::-1], axis=0)


def adf_stat(y: np.ndarray, lags: int = 1, constant: bool = True) -> float:
    """Augmented Dickey-Fuller t-statistic on the lagged-level coefficient.

    Regression: dy_t on [const?] + y_{t-1} + dy_{t-1} ... dy_{t-lags}.
    """
    y = np.asarray(y, dtype=float)
    if lags < 0:
        raise PanelError("augmentation lag count must be >= 0")
    dy = np.diff(y)
    n = len(dy) - lags
    n_params = (1 if constant else 0) + 1 + lags
    if n <= n_params + 1:
        raise PanelError(
            f"series too short for requested lags: {len(y)} obs, {lags} lags"
        )
    cols = []
    if constant:
        cols.append(np.ones(n))
    cols.append(y[lags:-1])
    for i in range(1, lags + 1):
        cols.append(dy[lags - i: len(dy) - i])
    X = np.column_stack(cols)
    z = dy[lags:]
    beta, _, _, _ = np.linalg.lstsq(X, z, rcond=None)
    resid = z - X @ beta
    s2 = resid @ resid / (n - X.shape[1])
    xtx_inv = np.linalg.inv(X.T @ X)
    level = 1 if constant else 0
    return float(beta[level] / np.sqrt(s2 * xtx_inv[level, level]))


def summary_stats(
    panel: TimePanel,
    adf_lags: int = 1,
    excess_kurtosis: bool = True,
    adf_constant: bool = True,
) -> SummaryReport:
    """Moments, range and ADF statistic per series.

    Kurtosis is excess (raw minus 3) by default; set ``excess_kurtosis=False``
    for the raw fourth standardized moment.
    """
    if panel.n_obs < 20:
        raise PanelError("need at least 20 observations for the ADF statistic")
    v = panel.values
    mean = v.mean(axis=0)
    centered = v - mean
    m2 = (centered**2).mean(axis=0)
    if np.any(m2 == 0):
        k = int(np.flatnonzero(m2 == 0)[0])
        raise PanelError(f"series {panel.names[k]!r} has zero variance")
    m3 = (centered**3).mean(axis=0)
    m4 = (centered**4).mean(axis=0)
    skew = m3 / m2**1.5
    kurt = m4 / m2**2
    if excess_kurtosis:
        kurt = kurt - 3.0
    minimum = v.min(axis=0)
    maximum = v.max(axis=0)
    adf = np.array(
        [adf_stat(v[:, k], lags=adf_lags, constant=adf_constant) for k in range(panel.n_series)]
    )
    return SummaryReport(
        names=panel.names,
        mean=mean,
        median=np.median(v, axis=0),
        minimum=minimum,
        maximum=maximum,
        value_range=maximum - minimum,
        skewness=skew,
        kurtosis=kurt,
        adf=adf,
    )


def number(x: float, missing: str = "") -> str:
    """``x`` to 17 significant digits, which read back bitwise, or ``missing`` for NaN."""
    return missing if math.isnan(x) else "%.17g" % x


def _create(path, **kwargs):
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    return open(path, "w", encoding="utf-8", **kwargs)


def write_csv(path, header, rows, trailer: str = "") -> None:
    """The one CSV writer: UTF-8, ``csv`` quoting and line ends, ``header``, ``rows``, then
    ``trailer`` as written. Like ``write_text``, it makes the file's directory if missing, so
    a command that fails a check before its first write leaves none."""
    with _create(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
        fh.write(trailer)


def write_text(path, text: str) -> None:
    """Write ``text`` as UTF-8, making the file's directory if missing."""
    with _create(path) as fh:
        fh.write(text)


def write_panel_csv(panel: TimePanel, path) -> None:
    """Write a panel as ``date,<name1>,...`` with 17-significant-digit values."""
    write_csv(path, ["date", *panel.names],
              ([d.isoformat(), *map(number, row)] for d, row in zip(panel.dates, panel.values)))


@contextlib.contextmanager
def _open_csv(path, error: type[Exception]):
    """The CSV file as UTF-8 text, a byte-order mark skipped; a byte that is not
    UTF-8, read anywhere in the ``with`` block, raises ``error`` naming the file."""
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            yield fh
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text ({exc.reason})") from None


def csv_records(path, columns: tuple[str, ...], error: type[Exception]):
    """Yield ``(line number, row dict)`` per record of a CSV whose header names
    all of ``columns``, else raise ``error``, as ``_open_csv`` reads it. The
    line number counts blank lines."""
    with _open_csv(path, error) as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or not set(columns) <= set(reader.fieldnames):
            raise error(f"{path}: need columns {','.join(columns)}")
        for row in reader:
            yield reader.line_num, row


def _date_ordinal(cell: str) -> int:
    """The day number of a date written exactly as YYYY-MM-DD, spaces around it allowed.

    Python 3.11's ``date.fromisoformat`` also reads 20200102 and 2020-W01-3, which 3.10
    rejects; of its forms, only YYYY-MM-DD has 10 characters with "-" at index 7.
    """
    text = cell.strip()
    if len(text) != 10 or text[7] != "-":
        raise ValueError(f"expected a YYYY-MM-DD date: {cell!r}")
    return date.fromisoformat(text).toordinal()


def parse_date(text: str) -> date:
    """A date written exactly as YYYY-MM-DD: the panel reader's ``_date_ordinal``."""
    return date.fromordinal(_date_ordinal(text))


def _bad_line(path, n_fields: int, reason) -> PanelError:
    """The first malformed data line's error, or the parser's reason if none is found."""
    with _open_csv(path, PanelError) as fh:
        reader = csv.reader(fh)
        next(reader)
        for row in reader:
            if not row:
                continue
            lineno = reader.line_num
            if len(row) != n_fields:
                return PanelError(f"{path}:{lineno}: expected {n_fields} fields")
            try:
                _date_ordinal(row[0])
            except ValueError:
                return PanelError(f"{path}:{lineno}: bad date {row[0]!r}")
            # numpy's parser rejects what float rejects, and "1_000" and non-ASCII digits
            try:
                numbers = [float(c) for c in row[1:] if c.strip().isascii() and "_" not in c]
            except ValueError:
                numbers = []
            if len(numbers) != n_fields - 1:
                return PanelError(f"{path}:{lineno}: non-numeric value")
    return PanelError(f"{path}: {reason}")


def _canonical_days(cells: np.ndarray) -> np.ndarray | None:
    """Days since 1970 of U11 cells if all are YYYY-MM-DD in ASCII, a real date from year 1."""
    codes = np.ascontiguousarray(cells).view(np.uint32).reshape(-1, 11)
    digits = codes[:, [0, 1, 2, 3, 5, 6, 8, 9]] - np.uint32(ord("0"))  # below "0" wraps high
    if np.any(digits > 9) or np.any(codes[:, [4, 7]] != ord("-")) or codes[:, 10].any():
        return None
    ymd = digits.astype(np.int64) @ 10 ** np.arange(7, -1, -1)
    year, month, day = ymd // 10000, ymd // 100 % 100, ymd % 100
    months = (12 * (year - 1970) + month - 1).astype("datetime64[M]")
    days = months.astype("datetime64[D]") + (day - 1)  # a day not in its month leaves it
    real = (year >= 1) & (month >= 1) & (month <= 12) & (days.astype("datetime64[M]") == months)
    return days.astype(np.int64) if real.all() else None


def _read_body(path, exact: bool):
    """A panel CSV's names, days since 1970 and values by one ``np.loadtxt`` call: ``exact``,
    dates by ``_date_ordinal`` per line, the first bad line raising; else every cell in the
    C pass, dates as U11 cells, and None on a failed line or a date ``_canonical_days`` rejects."""
    with _open_csv(path, PanelError) as fh:
        header = next(csv.reader(fh), None)
        if header is None:
            raise PanelError(f"{path}: empty file")
        if not header or header[0].strip() != "date":
            raise PanelError(f"{path}: first column must be 'date'")
        names = [h.strip() for h in header[1:]]
        if not names:
            raise PanelError(f"{path}: no series columns")
        dtype = np.dtype([("date", np.int64 if exact else "U11"), ("values", float, (len(names),))])
        with warnings.catch_warnings():  # a header-only file has "no data rows" below
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            # a line of another width raises; encoding=None, or numpy < 2 hands the converter bytes
            try:
                table = np.loadtxt(fh, dtype, delimiter=",", comments=None, quotechar='"', ndmin=1,
                                   encoding=None, converters={0: _date_ordinal} if exact else None)
            except ValueError as exc:
                if exact:
                    raise _bad_line(path, len(names) + 1, exc) from None
                return None
    days = table["date"] - date(1970, 1, 1).toordinal() if exact else _canonical_days(table["date"])
    return None if days is None else (names, days, table["values"])


def read_panel_csv(path) -> TimePanel:
    """Load a ``date,<name1>,...`` CSV, rejecting gaps in the daily calendar.

    ``np.loadtxt`` reads each value bitwise as ``float`` does, except that underscore
    digit groups (``1_000``) and non-ASCII digits are rejected. Cells may be quoted or
    space-padded, ``#`` is data, the file is read by ``_open_csv``, and an error names the
    first bad line, blank lines counted. A file whose dates are all exactly YYYY-MM-DD, as
    ``write_panel_csv``, ``simulate`` and ``ingest`` write them, makes no Python call per
    line. Any other is read by ``_date_ordinal`` (at once if its first date is not exact):
    the exact rule, the only reader of padded dates, and the path that names a bad line.
    Its days are checked consecutive here, so its panel is built with no date loop.
    """
    with open(path, "rb") as fh:  # a U11 cell drops a NUL at its end, unseen
        raw = fh.read()
    rows = csv.reader(line.decode("utf-8", "replace") for line in io.BytesIO(raw))
    first = next((row[:1] for i, row in enumerate(rows) if i and row), [""])  # past the header
    fast = b"\0" not in raw and _canonical_days(np.array(first, dtype="U11")) is not None
    del raw, rows  # loadtxt reads the file itself: its bytes are not held while it parses
    names, days, values = (fast and _read_body(path, exact=False)) or _read_body(path, exact=True)
    if not len(days):
        raise PanelError(f"{path}: no data rows")
    gaps = np.flatnonzero(np.diff(days) != 1)
    dates = days.astype("datetime64[D]")  # whose tolist makes the dates in one C loop
    if gaps.size:
        prev, nxt = dates[gaps[0]: gaps[0] + 2].tolist()
        raise PanelError(f"{path}: missing dates between {prev} and {nxt}")
    return TimePanel._of(tuple(dates.tolist()), _unique(tuple(names)), values).with_values(values)
