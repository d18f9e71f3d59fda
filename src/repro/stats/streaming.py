"""Parallel-mergeable streaming moments (Welford/Chan).

The mega-cohort pipeline regenerates Tables 1–6 at N=1,000,000 without
ever materialising the response tensor: each generation shard reduces
its rows to the sufficient statistics below, and the shard statistics
merge pairwise into cohort statistics.  Two accumulators cover every
table cell:

- :class:`Moments` — count, mean and centered second moment (M2) of an
  array-shaped quantity.  ``from_batch`` uses the two-pass formula on a
  whole shard (vectorised, numerically excellent), ``push`` is the
  classic Welford single-observation update, and ``merge`` is Chan et
  al.'s pairwise combination.
- :class:`CoMoments` — the bivariate version, adding the centered
  cross-product ``cxy`` that Pearson correlations need.

Merge properties the mega-cohort relies on:

- **Associativity up to rounding** — any merge tree yields the same
  statistics up to a few ulps (pinned by Hypothesis tests against the
  two-pass NumPy reference).
- **Exact permutation stability** — :func:`merge_indexed` folds shard
  statistics in canonical shard-index order, so the merged bits are a
  pure function of the shard set, independent of completion order,
  worker count, or executor mode.
- **Near-exact means on dyadic data** — the merged mean is computed as
  ``(n_a*mean_a + n_b*mean_b) / n``.  When the per-row values are
  dyadic rationals with exactly representable sums (e.g. the composite
  scores behind Tables 5–6, which are multiples of 1/8), the only
  rounding anywhere is the per-shard division ``sum/n_shard`` (exact
  whenever the shard length is a power of two), so the merged mean
  tracks the direct mean to within an ulp or two at any shard count —
  far inside the 2–6 decimals the rendered tables print.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence, TypeVar

import numpy as np

__all__ = ["Moments", "CoMoments", "merge_indexed"]

_M = TypeVar("_M", "Moments", "CoMoments")


def _as_float_array(value) -> np.ndarray:
    return np.asarray(value, dtype=np.float64)


@dataclass(frozen=True)
class Moments:
    """Count, mean and centered second moment of an array-shaped quantity.

    ``mean`` and ``m2`` share one shape (possibly ``()`` for scalars);
    every element accumulates independently.  ``m2`` is the sum of
    squared deviations from the mean (Welford's M2), so the sample
    variance is ``m2 / (count - ddof)``.
    """

    count: int
    mean: np.ndarray
    m2: np.ndarray

    @classmethod
    def empty(cls, shape: tuple[int, ...] = ()) -> "Moments":
        return cls(count=0, mean=np.zeros(shape), m2=np.zeros(shape))

    @classmethod
    def from_batch(cls, batch, axis: int = 0) -> "Moments":
        """Two-pass moments of a whole batch along ``axis`` (vectorised)."""
        x = _as_float_array(batch)
        n = x.shape[axis]
        if n == 0:
            shape = list(x.shape)
            del shape[axis]
            return cls.empty(tuple(shape))
        mean = x.mean(axis=axis)
        d = x - np.expand_dims(mean, axis)
        m2 = np.square(d, out=d).sum(axis=axis)
        return cls(count=int(n), mean=mean, m2=m2)

    def push(self, value) -> "Moments":
        """Welford single-observation update; returns the new accumulator."""
        x = _as_float_array(value)
        n = self.count + 1
        delta = x - self.mean
        mean = self.mean + delta / n
        m2 = self.m2 + delta * (x - mean)
        return Moments(count=n, mean=mean, m2=m2)

    def merge(self, other: "Moments") -> "Moments":
        """Chan pairwise combination of two accumulators."""
        if self.count == 0:
            return other
        if other.count == 0:
            return self
        if self.mean.shape != other.mean.shape:
            raise ValueError(
                f"cannot merge moments of shapes {self.mean.shape} "
                f"and {other.mean.shape}"
            )
        n = self.count + other.count
        # Weighted-sum form: exact whenever the underlying sums are
        # exactly representable (see module docstring).
        mean = (self.count * self.mean + other.count * other.mean) / n
        delta = other.mean - self.mean
        m2 = self.m2 + other.m2 + np.square(delta) * (
            self.count * other.count / n
        )
        return Moments(count=n, mean=mean, m2=m2)

    def variance(self, ddof: int = 1) -> np.ndarray:
        if self.count <= ddof:
            raise ValueError(
                f"variance requires more than ddof={ddof} observations, "
                f"got {self.count}"
            )
        return self.m2 / (self.count - ddof)

    def sd(self, ddof: int = 1) -> np.ndarray:
        return np.sqrt(self.variance(ddof=ddof))

    def as_dict(self) -> dict:
        return {
            "count": self.count,
            "mean": self.mean.tolist(),
            "m2": self.m2.tolist(),
        }


@dataclass(frozen=True)
class CoMoments:
    """Bivariate moments: everything a Pearson correlation needs.

    ``m2x``/``m2y`` are the centered second moments of the two
    variables and ``cxy`` the centered cross-product
    ``sum((x - mean_x) * (y - mean_y))``, all elementwise over one
    shared array shape.
    """

    count: int
    mean_x: np.ndarray
    mean_y: np.ndarray
    m2x: np.ndarray
    m2y: np.ndarray
    cxy: np.ndarray

    @classmethod
    def empty(cls, shape: tuple[int, ...] = ()) -> "CoMoments":
        z = np.zeros(shape)
        return cls(count=0, mean_x=z, mean_y=z.copy(), m2x=z.copy(),
                   m2y=z.copy(), cxy=z.copy())

    @classmethod
    def from_batch(cls, xs, ys, axis: int = 0) -> "CoMoments":
        """Two-pass bivariate moments of paired batches along ``axis``."""
        x = _as_float_array(xs)
        y = _as_float_array(ys)
        if x.shape != y.shape:
            raise ValueError(
                f"paired batches must share a shape, got {x.shape} "
                f"and {y.shape}"
            )
        n = x.shape[axis]
        if n == 0:
            shape = list(x.shape)
            del shape[axis]
            return cls.empty(tuple(shape))
        mean_x = x.mean(axis=axis)
        mean_y = y.mean(axis=axis)
        dx = x - np.expand_dims(mean_x, axis)
        dy = y - np.expand_dims(mean_y, axis)
        cxy = (dx * dy).sum(axis=axis)
        return cls(
            count=int(n),
            mean_x=mean_x,
            mean_y=mean_y,
            m2x=np.square(dx, out=dx).sum(axis=axis),
            m2y=np.square(dy, out=dy).sum(axis=axis),
            cxy=cxy,
        )

    def push(self, x_value, y_value) -> "CoMoments":
        """Welford-style single-pair update; returns the new accumulator."""
        x = _as_float_array(x_value)
        y = _as_float_array(y_value)
        n = self.count + 1
        dx = x - self.mean_x
        dy = y - self.mean_y
        mean_x = self.mean_x + dx / n
        mean_y = self.mean_y + dy / n
        return CoMoments(
            count=n,
            mean_x=mean_x,
            mean_y=mean_y,
            m2x=self.m2x + dx * (x - mean_x),
            m2y=self.m2y + dy * (y - mean_y),
            cxy=self.cxy + dx * (y - mean_y),
        )

    def merge(self, other: "CoMoments") -> "CoMoments":
        """Chan pairwise combination of two bivariate accumulators."""
        if self.count == 0:
            return other
        if other.count == 0:
            return self
        if self.mean_x.shape != other.mean_x.shape:
            raise ValueError(
                f"cannot merge co-moments of shapes {self.mean_x.shape} "
                f"and {other.mean_x.shape}"
            )
        n = self.count + other.count
        w = self.count * other.count / n
        dx = other.mean_x - self.mean_x
        dy = other.mean_y - self.mean_y
        return CoMoments(
            count=n,
            mean_x=(self.count * self.mean_x + other.count * other.mean_x) / n,
            mean_y=(self.count * self.mean_y + other.count * other.mean_y) / n,
            m2x=self.m2x + other.m2x + np.square(dx) * w,
            m2y=self.m2y + other.m2y + np.square(dy) * w,
            cxy=self.cxy + other.cxy + dx * dy * w,
        )

    def as_dict(self) -> dict:
        return {
            "count": self.count,
            "mean_x": self.mean_x.tolist(),
            "mean_y": self.mean_y.tolist(),
            "m2x": self.m2x.tolist(),
            "m2y": self.m2y.tolist(),
            "cxy": self.cxy.tolist(),
        }


def merge_indexed(items: Iterable[tuple[int, _M]]) -> _M:
    """Fold ``(shard_index, accumulator)`` pairs in canonical index order.

    Sorting by shard index before folding makes the merged bits a pure
    function of the shard *set*: completion order, worker count and
    executor mode cannot change the result.  Duplicate indices raise —
    a shard counted twice is always a bug.
    """
    ordered = sorted(items, key=lambda pair: pair[0])
    if not ordered:
        raise ValueError("merge_indexed needs at least one accumulator")
    indices = [index for index, _ in ordered]
    if len(set(indices)) != len(indices):
        raise ValueError(f"duplicate shard indices in merge: {indices}")
    merged = ordered[0][1]
    for _index, stats in ordered[1:]:
        merged = merged.merge(stats)
    return merged
