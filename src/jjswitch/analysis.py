"""Observables from switching records: histograms, telegraph branches,
dwell-time statistics, and branch-change counts.

Branch classification is deliberately measurement-only: it sees the same
switching currents an experiment would and never peeks at the engine's TLS
flag.  label_fidelity then quantifies, after the fact, how faithfully the
measured branch labels track the underlying TLS state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import PhysicsDomainError, UnimodalSequenceError

CLASSIFY_BIN_WIDTH = 5e-9  # 0.005 uA histogram bins for mode detection
MIN_MODE_SEPARATION_BINS = 3


@dataclass(frozen=True)
class Histogram:
    """Uniform-bin switching-current histogram."""

    bin_edges: np.ndarray
    counts: np.ndarray

    @property
    def bin_centers(self) -> np.ndarray:
        return 0.5 * (self.bin_edges[:-1] + self.bin_edges[1:])


@dataclass(frozen=True)
class BranchStats:
    """Telegraph decomposition of a switching-current sequence."""

    labels: np.ndarray  # "upper" / "lower" per ramp
    threshold: float
    dwell_lengths_upper: list[int]
    dwell_lengths_lower: list[int]
    jumps: int
    mean_current_upper: float
    mean_current_lower: float

    @property
    def mean_dwell_upper(self) -> float:
        return float(np.mean(self.dwell_lengths_upper)) if self.dwell_lengths_upper else float("nan")

    @property
    def mean_dwell_lower(self) -> float:
        return float(np.mean(self.dwell_lengths_lower)) if self.dwell_lengths_lower else float("nan")

    @property
    def mean_dwell(self) -> float:
        both = self.dwell_lengths_upper + self.dwell_lengths_lower
        return float(np.mean(both)) if both else float("nan")


def _switching_currents(records) -> np.ndarray:
    return np.asarray(
        [r.switching_current for r in records], dtype=float
    )


def histogram(records: Sequence, bin_width: float, origin: Optional[float] = None) -> Histogram:
    """Histogram of switching currents with uniform half-open bins [lo, hi).

    Bin edges lie at origin plus whole multiples of bin_width, from the bin
    that holds the smallest record to the one that holds the largest, so
    the first and last bins are never empty and the count total always
    equals the number of records.  origin defaults to the smallest record;
    a fixed origin keeps the edges where they are when that record moves.
    """
    if bin_width <= 0:
        raise PhysicsDomainError("bin_width must be > 0")
    currents = _switching_currents(records)
    if currents.size == 0:
        raise PhysicsDomainError("histogram needs at least one record")
    if origin is None:
        origin = currents.min()
    cell = np.floor((currents - origin) / bin_width).astype(int)
    first, n_bins = cell.min(), cell.max() - cell.min() + 1
    edges = origin + bin_width * np.arange(first, first + n_bins + 1)
    return Histogram(bin_edges=edges, counts=np.bincount(cell - first, minlength=n_bins))


def _smoothed_modes(records: Sequence) -> tuple[np.ndarray, np.ndarray]:
    """Bin centers and 3-bin smoothed counts at the classification width."""
    hist = histogram(records, CLASSIFY_BIN_WIDTH)
    padded = np.concatenate(([0.0], hist.counts, [0.0]))
    smoothed = (padded[:-2] + padded[1:-1] + padded[2:]) / 3.0
    centers = hist.bin_edges[0] + CLASSIFY_BIN_WIDTH * (np.arange(hist.counts.size) + 0.5)
    return centers, smoothed


def classify_branches(records: Sequence) -> BranchStats:
    """Label each ramp upper/lower from the switching current alone.

    The threshold is the midpoint between the two dominant modes of the
    0.005-uA-binned, 3-bin-smoothed histogram.  Raises
    UnimodalSequenceError when no two modes at least 3 bins apart exist
    (undersized branch asymmetry, or no branch mixing at all).
    """
    currents = _switching_currents(records)
    if currents.size < 2:
        raise UnimodalSequenceError("need at least two records to classify")
    centers, smoothed = _smoothed_modes(records)

    peaks = [
        i
        for i in range(len(smoothed))
        if smoothed[i] > 0
        and (i == 0 or smoothed[i] > smoothed[i - 1])
        and (i == len(smoothed) - 1 or smoothed[i] >= smoothed[i + 1])
    ]
    peaks.sort(key=lambda i: smoothed[i], reverse=True)
    min_height = max(1.0, 0.002 * currents.size)
    found = None
    for second in peaks[1:]:
        if abs(second - peaks[0]) < MIN_MODE_SEPARATION_BINS:
            continue
        # a dominant mode must be separated from the main peak by a real
        # valley (not sit on its tail as a counting-noise bump) and hold a
        # genuine cluster of records, not a lone outlier
        if smoothed[second] < min_height:
            continue
        lo, hi = sorted((peaks[0], second))
        valley = smoothed[lo + 1 : hi].min()
        if valley <= 0.5 * smoothed[second]:
            found = second
            break
    if found is None:
        raise UnimodalSequenceError(
            "switching currents show no two prominent modes separated by >= "
            f"{MIN_MODE_SEPARATION_BINS} bins of {CLASSIFY_BIN_WIDTH * 1e6:.3f} uA"
        )

    threshold = 0.5 * (centers[peaks[0]] + centers[found])
    upper = currents > threshold
    labels = np.where(upper, "upper", "lower")

    dwell_upper: list[int] = []
    dwell_lower: list[int] = []
    jumps = 0
    run = 1
    for k in range(1, len(labels)):
        if labels[k] == labels[k - 1]:
            run += 1
        else:
            jumps += 1
            (dwell_upper if labels[k - 1] == "upper" else dwell_lower).append(run)
            run = 1
    (dwell_upper if labels[-1] == "upper" else dwell_lower).append(run)

    return BranchStats(
        labels=labels,
        threshold=float(threshold),
        dwell_lengths_upper=dwell_upper,
        dwell_lengths_lower=dwell_lower,
        jumps=jumps,
        mean_current_upper=float(currents[upper].mean()),
        mean_current_lower=float(currents[~upper].mean()),
    )


def label_fidelity(records: Sequence, stats: BranchStats | None = None) -> float:
    """Fraction of records whose measured branch label matches the engine
    flag at switch (upper <-> flag 0, lower <-> flag 1)."""
    if stats is None:
        stats = classify_branches(records)
    flags = np.asarray([r.flag_at_switch for r in records])
    predicted = np.where(stats.labels == "upper", 0, 1)
    return float((predicted == flags).mean())

