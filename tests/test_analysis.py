"""Switching-record observables: histograms, branch labels, dwell times."""

import numpy as np
import pytest

from jjswitch.analysis import (
    classify_branches,
    histogram,
    label_fidelity,
)
from jjswitch.engine import SwitchRecord
from jjswitch.errors import PhysicsDomainError, UnimodalSequenceError


def records_from(currents, flags=None):
    flags = flags if flags is not None else [0] * len(currents)
    return [
        SwitchRecord(i, float(c), int(f))
        for i, (c, f) in enumerate(zip(currents, flags))
    ]


def telegraph_records(pattern, upper=35.66e-6, lower=35.50e-6, jitter=0.0, seed=0):
    rng = np.random.default_rng(seed)
    currents, flags = [], []
    for ch in pattern:
        if ch == "U":
            currents.append(upper + jitter * rng.normal())
            flags.append(0)
        else:
            currents.append(lower + jitter * rng.normal())
            flags.append(1)
    return records_from(currents, flags)


class TestHistogram:
    def test_single_record(self):
        h = histogram(records_from([35.6e-6]), 0.01e-6)
        assert h.counts.sum() == 1
        assert h.counts.size == 1

    def test_counts_conserved_random_inputs(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            n = rng.integers(1, 400)
            currents = 35e-6 + rng.uniform(0, 1e-6, size=n)
            width = rng.uniform(0.001e-6, 0.2e-6)
            h = histogram(records_from(currents), width)
            assert h.counts.sum() == n
            assert np.all(np.diff(h.bin_edges) > 0)
            # every record falls inside the covered range
            assert h.bin_edges[0] <= currents.min()
            assert h.bin_edges[-1] > currents.max()

    def test_half_open_bins(self):
        h = histogram(records_from([1.0, 1.01, 1.02]), 0.01)
        assert h.counts.tolist() == [1, 1, 1]

    def test_rejects_empty_and_bad_width(self):
        with pytest.raises(PhysicsDomainError):
            histogram([], 0.01)
        with pytest.raises(PhysicsDomainError):
            histogram(records_from([1.0]), -1.0)


class TestClassifyBranches:
    def test_alternating_sequence(self):
        k = 8
        recs = telegraph_records("UL" * k)
        stats = classify_branches(recs)
        assert stats.jumps == 2 * k - 1
        assert all(d == 1 for d in stats.dwell_lengths_upper)
        assert all(d == 1 for d in stats.dwell_lengths_lower)
        assert stats.mean_current_upper > stats.mean_current_lower

    def test_constant_sequence_unimodal(self):
        recs = telegraph_records("U" * 50, jitter=0.001e-6, seed=1)
        with pytest.raises(UnimodalSequenceError):
            classify_branches(recs)

    def test_close_modes_unimodal(self):
        # two clusters 2 bins apart cannot be split
        recs = telegraph_records("UL" * 20, upper=35.660e-6, lower=35.651e-6)
        with pytest.raises(UnimodalSequenceError):
            classify_branches(recs)

    def test_dwell_bookkeeping_identity(self):
        pattern = "UUULLUUUUULLLLUL"
        recs = telegraph_records(pattern)
        stats = classify_branches(recs)
        runs = len(stats.dwell_lengths_upper) + len(stats.dwell_lengths_lower)
        assert stats.jumps == runs - 1
        assert (
            sum(stats.dwell_lengths_upper) + sum(stats.dwell_lengths_lower)
            == len(pattern)
        )

    def test_shift_invariance(self):
        pattern = "UUULLUULLLUU"
        base = telegraph_records(pattern, jitter=0.002e-6, seed=3)
        shifted = [
            SwitchRecord(r.ramp_index, r.switching_current + 0.5e-6, r.flag_at_switch)
            for r in base
        ]
        s1, s2 = classify_branches(base), classify_branches(shifted)
        assert np.array_equal(s1.labels, s2.labels)
        assert s2.threshold == pytest.approx(s1.threshold + 0.5e-6, abs=1e-12)

    def test_noise_bump_on_tail_not_a_mode(self):
        # an exponential lower tail must not yield a spurious second mode
        rng = np.random.default_rng(7)
        currents = 35.66e-6 - rng.exponential(0.013e-6, size=800)
        with pytest.raises(UnimodalSequenceError):
            classify_branches(records_from(currents))


class TestLabelFidelity:
    def test_perfect_separation(self):
        recs = telegraph_records("UUULLLUUULLL", jitter=0.002e-6, seed=5)
        assert label_fidelity(recs) == 1.0

    def test_inverted_flags(self):
        recs = telegraph_records("UUULLL")
        flipped = [
            SwitchRecord(r.ramp_index, r.switching_current, 1 - r.flag_at_switch)
            for r in recs
        ]
        assert label_fidelity(flipped) == 0.0

    def test_classification_ignores_flags(self):
        honest = telegraph_records("UUULLLUU")
        lying = [
            SwitchRecord(r.ramp_index, r.switching_current, 1 - r.flag_at_switch)
            for r in honest
        ]
        assert np.array_equal(
            classify_branches(honest).labels, classify_branches(lying).labels
        )
