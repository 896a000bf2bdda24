"""Sentiment normalization, daily aggregation and Google-Trends daily rescaling."""

from __future__ import annotations

import calendar
import math
from dataclasses import dataclass
from datetime import date, datetime, timedelta, timezone
from typing import Iterable, Mapping, Sequence

import numpy as np

from sparsevar import SparsevarError
from sparsevar.panel import TimePanel, csv_records, parse_date


class IngestionError(SparsevarError):
    """Raised on malformed or inconsistent raw inputs."""


@dataclass(frozen=True)
class MonthlyIndex:
    """Month-level interest weights on a 0-100 scale, contiguous in time."""

    months: tuple[tuple[int, int], ...]
    weights: np.ndarray

    def __post_init__(self):
        months = tuple((int(y), int(m)) for y, m in self.months)
        weights = np.asarray(self.weights, dtype=float)
        if len(months) != weights.shape[0] or weights.ndim != 1:
            raise IngestionError("one weight per month required")
        if not months:
            raise IngestionError("monthly index is empty")
        for (y, m) in months:
            if not 1 <= m <= 12:
                raise IngestionError(f"invalid month {y}-{m:02d}")
        for (y0, m0), (y1, m1) in zip(months, months[1:]):
            expected = (y0 + (m0 == 12), 1 if m0 == 12 else m0 + 1)
            if (y1, m1) != expected:
                raise IngestionError(
                    f"months not contiguous: {y0}-{m0:02d} followed by {y1}-{m1:02d}"
                )
        if np.any((weights < 0) | (weights > 100)):
            raise IngestionError("monthly weights must lie in [0, 100]")
        weights.setflags(write=False)
        object.__setattr__(self, "months", months)
        object.__setattr__(self, "weights", weights)


@dataclass(frozen=True)
class ScoredItem:
    """A single pre-scored text item: UTC timestamp plus summed word valence."""

    timestamp: datetime
    valence_sum: float


@dataclass(frozen=True)
class SentimentConfig:
    """Normalization constant for the compound score."""

    alpha: float = 15.0

    def __post_init__(self):
        if not self.alpha > 0:
            raise IngestionError(f"alpha must be > 0, got {self.alpha}")


def compound_normalize(x: float, cfg: SentimentConfig = SentimentConfig()) -> float:
    """Squash a valence sum into (-1, 1) via x / sqrt(x^2 + alpha)."""
    x = float(x)
    if not math.isfinite(x):
        raise IngestionError(f"valence sum must be finite, got {x}")
    return x / math.sqrt(x * x + cfg.alpha)


def _utc_day(ts: datetime) -> date:
    if ts.tzinfo is not None:
        ts = ts.astimezone(timezone.utc)
    return ts.date()


def daily_aggregate(
    items: Iterable[ScoredItem],
    cfg: SentimentConfig,
    window: tuple[date, date],
    fill: str = "zero",
    name: str = "sentiment",
) -> TimePanel:
    """Average normalized scores per UTC calendar day over ``window`` (inclusive).

    Days with no items take the fill policy value: "zero" (neutral) or
    "carry" (last observed daily mean, 0 before the first observed day).
    """
    start, end = window
    if end < start:
        raise IngestionError(f"empty window {start}..{end}")
    if fill not in ("zero", "carry"):
        raise IngestionError(f"unknown fill policy {fill!r}")
    n_days = (end - start).days + 1
    # fsum keeps the per-day reduction exact, hence order-independent
    sums = [[] for _ in range(n_days)]
    for item in items:
        day = _utc_day(item.timestamp)
        if day < start or day > end:
            raise IngestionError(f"item timestamp {item.timestamp} outside window")
        sums[(day - start).days].append(compound_normalize(item.valence_sum, cfg))
    values = np.zeros(n_days)
    last = 0.0
    for i, scores in enumerate(sums):
        if scores:
            values[i] = math.fsum(scores) / len(scores)
            last = values[i]
        else:
            values[i] = last if fill == "carry" else 0.0
    dates = tuple(start + timedelta(days=i) for i in range(n_days))
    return TimePanel(dates, (name,), values.reshape(-1, 1))


def rescale_gtrends(
    daily_chunks: Mapping[tuple[int, int], Sequence[float]],
    monthly: MonthlyIndex,
    name: str = "trend",
) -> TimePanel:
    """Stitch per-month daily interest (each on 0-100) into one comparable
    daily series by scaling every month's chunk with its monthly weight / 100."""
    dates: list[date] = []
    values: list[float] = []
    for (year, month), weight in zip(monthly.months, monthly.weights):
        chunk = daily_chunks.get((year, month))
        if chunk is None:
            raise IngestionError(f"missing daily chunk for {year}-{month:02d}")
        n_days = calendar.monthrange(year, month)[1]
        chunk = np.asarray(chunk, dtype=float)
        if chunk.shape != (n_days,):
            raise IngestionError(
                f"chunk for {year}-{month:02d} has {chunk.shape[0]} days, "
                f"calendar says {n_days}"
            )
        scale = weight / 100.0
        for d in range(n_days):
            dates.append(date(year, month, d + 1))
            values.append(chunk[d] * scale)
    extra = set(daily_chunks) - set(monthly.months)
    if extra:
        raise IngestionError(f"daily chunks for months not in index: {sorted(extra)}")
    return TimePanel(tuple(dates), (name,), np.array(values).reshape(-1, 1))


def load_scored_items_csv(path) -> list[ScoredItem]:
    """Read ``timestamp,valence_sum`` rows (ISO-8601 timestamps, UTC assumed)."""
    items = []
    for lineno, row in csv_records(path, ("timestamp", "valence_sum"), IngestionError):
        try:
            ts = datetime.fromisoformat(row["timestamp"].strip())
            x = float(row["valence_sum"])
        except (ValueError, AttributeError, TypeError):
            raise IngestionError(f"{path}:{lineno}: bad row {row}") from None
        items.append(ScoredItem(ts, x))
    return items


def load_monthly_index_csv(path) -> MonthlyIndex:
    """Read ``month,weight`` rows with month as YYYY-MM."""
    months, weights = [], []
    for lineno, row in csv_records(path, ("month", "weight"), IngestionError):
        try:
            y, m = row["month"].strip().split("-")
            months.append((int(y), int(m)))
            weights.append(float(row["weight"]))
        except (ValueError, AttributeError, TypeError):
            raise IngestionError(f"{path}:{lineno}: bad row {row}") from None
    return MonthlyIndex(tuple(months), np.array(weights))


def load_trend_chunks(directory) -> dict[tuple[int, int], np.ndarray]:
    """Load per-month daily CSVs named YYYY-MM.csv with columns date,value."""
    import os

    chunks: dict[tuple[int, int], np.ndarray] = {}
    for fname in sorted(os.listdir(directory)):
        if not fname.endswith(".csv") or fname == "monthly.csv":
            continue
        stem = fname[:-4]
        try:
            y, m = (int(part) for part in stem.split("-"))
        except ValueError:
            raise IngestionError(f"{fname}: expected YYYY-MM.csv naming") from None
        path = os.path.join(directory, fname)
        days: list[tuple[date, float]] = []
        for lineno, row in csv_records(path, ("date", "value"), IngestionError):
            try:
                d = parse_date(row["date"])
                v = float(row["value"])
            except (ValueError, AttributeError, TypeError):
                raise IngestionError(f"{path}:{lineno}: bad row {row}") from None
            if (d.year, d.month) != (y, m):
                raise IngestionError(f"{path}:{lineno}: date {d} outside {stem}")
            days.append((d, v))
        days.sort()
        n_days = calendar.monthrange(y, m)[1]
        if [d.day for d, _ in days] != list(range(1, n_days + 1)):
            raise IngestionError(f"{path}: does not cover every day of {stem}")
        chunks[(y, m)] = np.array([v for _, v in days])
    if not chunks:
        raise IngestionError(f"{directory}: no monthly chunk files found")
    return chunks
