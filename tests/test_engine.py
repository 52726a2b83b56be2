"""Trajectory engine: propagators, channel choice, waiting-time
statistics, ramps, determinism, and the unravelling of the master
equation."""

import dataclasses
import hashlib
import json
import math

import numpy as np
import pytest

from jjswitch import engine, oracle, rng
from jjswitch.analysis import histogram
from jjswitch.cli import main
from jjswitch.config import apply_overrides, build_physics, load_config
from jjswitch.engine import (
    NORM_GROWTH_TOL,
    EngineConfig,
    RampGrid,
    SwitchRecord,
    fold_sequence,
    pick_channels,
    real_rows,
    run_trajectories,
    taylor_exp,
    taylor_propagator,
)
from jjswitch.errors import ConfigError, StepSizeError
from jjswitch.hamiltonian import TlsParams
from jjswitch.oracle import integrate_master, liouvillian
from jjswitch.physics import BiasDrive

from conftest import (
    F_DRIVE,
    F_TLS,
    I0,
    RAMP_RATE,
    TWO_PI,
    as_complex,
    closed_form_H,
    closed_form_H_eff,
    fast_drive,
    reference_model,
)


def reference_run(grid, cfg, init_flags, stream_ids):
    """The engine's waiting-time jumps walked one grid step at a time: the
    reference for its blocked stepping.  Rows advance by one step map per
    step, and after every step each row's norm is checked against its
    next threshold.  It walks in complex arithmetic, on the complex maps
    of the grid's real row forms, requested one piece of engine._PASS
    steps at a time, and reads jump rates from the piece's rate rows.
    Norms are never rescaled."""
    channels = grid.model.channels
    init_flags, stream_ids = np.asarray(init_flags), np.asarray(stream_ids)
    keys = rng.stream_keys(cfg.master_seed, stream_ids)
    n_jumps = np.zeros(init_flags.size, dtype=np.int64)
    records = [None] * init_flags.size
    dim = grid.model.dim
    psi = np.zeros((0, 1, dim), dtype=complex)
    norm2, members, thresholds = np.zeros(0), [], []

    def add(state, idx):
        nonlocal psi, norm2
        r = 1.0 - rng.uniform_at(keys[idx], 2 * n_jumps[idx])
        order = np.argsort(r, kind="stable")
        members.append(idx[order])
        thresholds.append(r[order])
        row = np.zeros((1, 1, dim), dtype=complex)
        row[0, 0, state] = 1.0
        psi, norm2 = np.concatenate((psi, row)), np.append(norm2, 1.0)

    for flag, state in ((0, 0), (1, 2)):
        idx = np.nonzero(init_flags == flag)[0]
        if idx.size:
            add(state, idx)
    for step in range(0, grid.n_steps, engine._PASS):
        if not members:
            break
        hi = min(step + engine._PASS, grid.n_steps)
        pt, piece_rates, _ = grid.propagator_chunk(step, hi)
        pt = as_complex(pt)
        for nstep in range(step, hi):
            before, prev = psi, norm2
            psi = before @ pt[nstep - step]
            norm2 = (psi.real**2 + psi.imag**2).sum(axis=(1, 2))
            if (norm2 > prev * (1.0 + NORM_GROWTH_TOL)).any():
                raise StepSizeError(f"norm increased at step {nstep}")
            hit = norm2 < np.array([t[-1] for t in thresholds])
            if not hit.any():
                continue
            rates = piece_rates[nstep - step]
            pops = (before.real**2 + before.imag**2 + psi.real**2 + psi.imag**2)[:, 0]
            restarts = {}
            for i in np.nonzero(hit)[0]:
                cut = np.searchsorted(thresholds[i], norm2[i], side="right")
                idx = members[i][cut:]
                members[i], thresholds[i] = members[i][:cut], thresholds[i][:cut]
                u = rng.uniform_at(keys[idx], 2 * n_jumps[idx] + 1)
                for k, j in zip(idx, pick_channels(channels, rates, pops[i], u)):
                    c = channels[j]
                    if c.kind == "tunnel":
                        records[k] = SwitchRecord(
                            int(stream_ids[k]), grid.I_end[nstep], c.flag, int(n_jumps[k])
                        )
                    else:
                        restarts.setdefault(c.target, []).append(k)
            live = [i for i, m in enumerate(members) if m.size]
            psi, norm2 = psi[live], norm2[live]
            members = [members[i] for i in live]
            thresholds = [thresholds[i] for i in live]
            for state, restarted in restarts.items():
                idx = np.array(restarted)
                n_jumps[idx] += 1
                add(state, idx)
            if not members:
                break
    assert not members, "trajectories left at the end of the grid"
    return records


def midpoints(grid, lo, hi):
    """Bias at the middle of steps [lo, hi) of the grid."""
    I_end, dt = grid.steps(lo, hi)
    return I_end - 0.5 * grid.model.d.ramp_rate * dt


def gauss_points(grid, lo, hi):
    """Bias at the two Gauss points of steps [lo, hi), and the step sizes."""
    dt = grid.steps(lo, hi)[1]
    c = (math.sqrt(3.0) / 6.0) * grid.model.d.ramp_rate * dt
    I = midpoints(grid, lo, hi)
    return I - c, I + c, dt


def magnus4(H1, H2, dt):
    """Fourth-order Magnus generator of steps dt from the generators at
    their two Gauss points: the lab frame's step generator."""
    return 0.5 * (H1 + H2) + (1j * math.sqrt(3.0) / 12.0) * dt[:, None, None] * (H1 @ H2 - H2 @ H1)


def propagator(H, dt):
    """taylor_propagator's one-step map P of a single frozen generator,
    as a complex matrix that acts on column vectors."""
    return as_complex(taylor_propagator(H[None], np.array([dt]))[0]).T


def squaring_exponents(H, dt):
    """s per step: taylor_exp scales the real form of -i dt H^T by 2^-s to
    a 1-norm of engine._THETA_16 or below."""
    norm = np.abs(real_rows(-1j * dt[:, None, None] * np.swapaxes(H, 1, 2))).sum(axis=1).max(axis=1)
    return np.ceil(np.log2(np.maximum(norm / engine._THETA_16, 1.0))).astype(np.int64)


def reference_maps(H, dt):
    """The complex build the engine's real row forms must equal: per step
    the degree-16 Taylor polynomial of A = -i H dt / 2^s by Horner's rule,
    1 + A (1 + A/2 (1 + ... (1 + A/16))), squared s times, with the s of
    taylor_exp, returned transposed (P^T, complex, (n, d, d))."""
    s = squaring_exponents(H, dt)
    A = -1j * (dt / 2.0**s)[:, None, None] * H
    eye = np.eye(H.shape[-1], dtype=complex)
    P = eye + A / 16.0
    for k in range(15, 0, -1):
        P = eye + (A / k) @ P
    for k in range(int(s.max()) if s.size else 0):
        doubled = s > k
        P[doubled] = P[doubled] @ P[doubled]
    return np.ascontiguousarray(np.transpose(P, (0, 2, 1)))


class TestEvolveStep:
    """The one-step maps the engine steps with (taylor_propagator)."""

    def test_unitary_norm_preserved(self):
        H = np.array([[0.0, 1e6], [1e6, 2e6]], dtype=complex)
        P = propagator(H, 1e-9)  # theta ~ 2e-3
        psi = np.array([1.0, 0.0], dtype=complex)
        for _ in range(100):
            psi = P @ psi
        assert np.vdot(psi, psi).real == pytest.approx(1.0, abs=1e-10)

    def test_diagonal_decay_closed_form(self):
        gamma = 2e6
        H = np.diag([0.0, 1e8 - 0.5j * gamma]).astype(complex)
        dt = 1e-10  # phase advance 0.01 rad/step: truncation far below rtol
        P = propagator(H, dt)
        psi = np.array([0.0, 1.0], dtype=complex)
        n = 2000
        for _ in range(n):
            psi = P @ psi
        assert np.vdot(psi, psi).real == pytest.approx(math.exp(-gamma * n * dt), rel=1e-6)

    def test_resonant_rabi_against_analytic(self):
        omega_m = TWO_PI * 10e6
        H = np.array([[0.0, omega_m / 2], [omega_m / 2, 0.0]], dtype=complex)
        period = TWO_PI / omega_m
        n = 2000
        dt = period / n
        P = propagator(H, dt)
        psi = np.array([1.0, 0.0], dtype=complex)
        worst = 0.0
        for k in range(n):
            psi = P @ psi
            expected = math.sin(omega_m * (k + 1) * dt / 2.0) ** 2
            worst = max(worst, abs(abs(psi[1]) ** 2 - expected))
        assert worst < 1e-6

    def test_norm_growth_raises(self, junction):
        class GrowingGrid(RampGrid):
            def propagator_chunk(self, lo, hi):
                maps, rates, I_end = super().propagator_chunk(lo, hi)
                return 1.001 * maps, rates, I_end

        d = fast_drive(junction)
        cfg = EngineConfig(frame="rwa", master_seed=3)
        grid = GrowingGrid(junction, None, d, cfg)
        with pytest.raises(StepSizeError):
            run_trajectories(junction, None, d, cfg, [0], [0], grid=grid)

    def test_unequal_flag_and_stream_counts(self, junction):
        d = fast_drive(junction)
        cfg = EngineConfig(frame="rwa", master_seed=3)
        with pytest.raises(ConfigError):
            run_trajectories(junction, None, d, cfg, [0, 0], [0, 1, 2])

    def test_init_flags_name_a_branch(self, junction_tls, tls):
        """A flag selects a branch's ground state to start from: a bare
        junction has only flag 0, a TLS adds flag 1."""
        d = fast_drive(junction_tls)
        cfg = EngineConfig(frame="rwa", master_seed=3)
        for p_tls, flag in ((None, 1), (tls, 2), (tls, -1)):
            grid = RampGrid(junction_tls, p_tls, d, cfg)
            with pytest.raises(ConfigError, match="init flags"):
                run_trajectories(junction_tls, p_tls, d, cfg, [0, flag], [0, 1], grid=grid)


class TestJumpDecision:
    """When a trajectory jumps, and which channel pick_channels gives it."""

    def test_all_rates_zero(self, junction, drive_off, monkeypatch):
        # without rates or drive every propagator is the identity: the norm
        # stays exactly 1 and no threshold in (0, 1] is ever crossed
        zero = lambda self, I: np.zeros((np.size(I), len(self.channels)))  # noqa: E731
        monkeypatch.setattr(engine.Model, "rates", zero)
        cfg = EngineConfig(frame="rwa", master_seed=3)
        grid = RampGrid(junction, None, drive_off, cfg)
        pt, rates, _ = grid.propagator_chunk(0, grid.n_steps)
        assert np.array_equal(pt, np.broadcast_to(np.eye(4), pt.shape))
        assert not rates.any()
        with pytest.raises(ConfigError):
            run_trajectories(junction, None, drive_off, cfg, [0] * 3, [0, 1, 2], grid=grid)

    def test_ground_state_only_tunnels(self):
        channels = reference_model(4).channels
        # tunnel_0g, tunnel_1g, tunnel_0e, tunnel_1e, relax_1g, relax_1e
        r = np.array([1e4, 1e8, 1e5, 1e8, 1e6, 1e6])
        pops = np.array([1.0, 0.0, 0.0, 0.0])
        u = np.array([0.0, 0.5, 1 - 2**-53])
        picked = pick_channels(channels, r, pops, u)
        for j in picked:
            assert channels[j].kind == "tunnel" and channels[j].name == "0g"

    def test_relax_channel_selection(self):
        channels = reference_model(2).channels
        r = np.array([0.0, 0.0, 1e6])  # relaxation only
        pops = np.array([0.0, 1.0])
        for j in pick_channels(channels, r, pops, np.array([0.0, 0.5e-2, 0.9])):
            assert channels[j].kind == "relax" and channels[j].name == "1g->0g"

    def test_binomial_channel_statistics(self):
        # equal-occupation superposition with two equal-rate escape channels
        channels = reference_model(4).channels
        gamma = 1e6
        r = np.array([0.0, gamma, gamma, 0.0, 0.0, 0.0])  # escapes from |1g> and |0e>
        pops = np.array([0.0, 0.5, 0.5, 0.0])
        n = 100_000
        u = rng.uniform_at(rng.stream_keys(4242, 0), np.arange(n))
        names = [channels[j].name for j in pick_channels(channels, r, pops, u)]
        assert set(names) == {"1g", "0e"}
        # channel split: probability 1/2 each, within 3 sigma of binomial
        assert abs(names.count("1g") - n / 2) < 3 * 0.5 * math.sqrt(n)


class TestApplyRelax:
    """Where a picked relaxation restarts its trajectory."""

    def test_relax_to_g_ground(self):
        channels = reference_model(4).channels
        r = np.array([1e3, 0.0, 1e3, 1e3, 1e6, 1e6])
        pops = np.array([0.0, 1.0, 0.0, 0.0])
        (j,) = pick_channels(channels, r, pops, np.array([0.3]))
        c = channels[j]
        assert (c.name, c.target, c.flag) == ("1g->0g", 0, 0)

    def test_relax_to_e_ground(self):
        channels = reference_model(4).channels
        r = np.array([1e3, 1e3, 1e3, 0.0, 1e6, 1e6])
        pops = np.array([0.0, 0.0, 0.0, 1.0])
        (j,) = pick_channels(channels, r, pops, np.array([0.3]))
        c = channels[j]
        assert (c.name, c.target, c.flag) == ("1e->0e", 2, 1)

    def test_rejects_tunnel_channel(self):
        # from |1g> escape and relaxation compete in proportion to their
        # rates; an escape has no restart target
        channels = reference_model(2).channels
        r = np.array([0.0, 1e6, 3e6])  # gamma10 = 3 tunnel_1g
        u = (np.arange(4000) + 0.5) / 4000
        pops = np.array([0.0, 1.0])
        picked = [channels[j] for j in pick_channels(channels, r, pops, u)]
        tunnels = [c for c in picked if c.kind == "tunnel"]
        assert len(tunnels) == 1000
        assert all(c.name == "1g" and c.target == -1 for c in tunnels)

    def test_restart_from_target_state(self):
        """Scripted grid: step 0 swaps |0> into |1>, step 1 annihilates the
        state (only the relaxation has weight), step 2 keeps |1> and kills
        |0>.  A trajectory restarted in the target |0> escapes at step 2."""

        class ScriptedGrid:
            model = reference_model(2)
            n_steps = 3
            I_end = np.array([1e-6, 2e-6, 3e-6])

            def propagator_chunk(self, lo, hi):
                maps = [[[0, 1], [1, 0]], [[0, 0], [0, 0]], [[0, 0], [0, 1]]]
                # 0g escape, 1g escape, 1g->0g
                rates = np.tile([1.0, 0.0, 1.0], (hi - lo, 1))
                return real_rows(np.array(maps[lo:hi], dtype=complex)), rates, self.I_end[lo:hi]

        cfg = EngineConfig(frame="rwa", master_seed=47)
        recs = run_trajectories(None, None, None, cfg, [0] * 5, list(range(5)), grid=ScriptedGrid())
        for r in recs:
            assert (r.switching_current, r.flag_at_switch, r.n_relax_events) == (3e-6, 0, 1)


class ScriptedGrid:
    """Identity steps of a two-level row, except that step `swap` moves
    |0> into |1>, step swap+1 annihilates the state (only the relaxation
    has weight, so the trajectory restarts in |0>) and step `kill` removes
    |0>, so the restarted trajectory escapes there.  Every step has the
    channel rates 0g escape 1, 1g escape 0, 1g->0g 1; maps and rates can
    be rewritten per step."""

    model = reference_model(2)

    def __init__(self, n_steps, swap, kill):
        self.n_steps = n_steps
        self.I_end = 1e-6 * np.arange(1, n_steps + 1)
        self.maps = np.tile(np.eye(2, dtype=complex), (n_steps, 1, 1))
        self.maps[swap] = [[0, 1], [1, 0]]
        self.maps[swap + 1] = 0.0
        self.maps[kill] = [[0, 0], [0, 1]]
        self.rates = np.tile([1.0, 0.0, 1.0], (n_steps, 1))

    def propagator_chunk(self, lo, hi):
        return real_rows(self.maps[lo:hi]), self.rates[lo:hi], self.I_end[lo:hi]


class TestBlockedStepping:
    """Rows advance a block of engine._BLOCK steps per product; jumps,
    restarts and the norm-growth check must land on the same steps as in
    the one-step-at-a-time reference."""

    @pytest.mark.parametrize(
        "n_steps, swap, kill",
        [
            # the relaxation (step swap+1) on the first step of a block
            (3 * engine._BLOCK, engine._BLOCK - 1, engine._BLOCK + 5),
            # on the last step of a block, escaping in the next block
            (3 * engine._BLOCK, 2 * engine._BLOCK - 2, 2 * engine._BLOCK + 3),
            # a grid that ends in a short block
            (2 * engine._BLOCK + 37, 10, 2 * engine._BLOCK + 36),
        ],
    )
    def test_restart_at_block_edges(self, n_steps, swap, kill):
        grid = ScriptedGrid(n_steps, swap, kill)
        cfg = EngineConfig(frame="rwa", master_seed=47)
        recs = run_trajectories(None, None, None, cfg, [0] * 5, list(range(5)), grid=grid)
        for r in recs:
            assert (r.switching_current, r.flag_at_switch, r.n_relax_events) == (
                grid.I_end[kill],
                0,
                1,
            )
        assert recs == reference_run(grid, cfg, [0] * 5, list(range(5)))

    def test_norm_growth_on_a_block_start(self):
        grid = ScriptedGrid(3 * engine._BLOCK, 0, 3 * engine._BLOCK - 1)
        grid.maps[: 3 * engine._BLOCK - 1] = np.eye(2)
        grid.maps[engine._BLOCK] *= 1.001
        cfg = EngineConfig(frame="rwa", master_seed=47)
        with pytest.raises(StepSizeError, match=f"at step {engine._BLOCK};"):
            run_trajectories(None, None, None, cfg, [0] * 5, list(range(5)), grid=grid)

    @staticmethod
    def first_thresholds(seed, n):
        """Draw 0 of streams 0..n-1: the thresholds before the first jump."""
        return 1.0 - rng.uniform_at(rng.stream_keys(seed, np.arange(n)), np.zeros(n, dtype=np.int64))

    def test_crossing_on_the_last_step_of_a_block(self):
        """The highest threshold is crossed on the last step of a block,
        the others at the kill step, the last of the grid."""
        r = self.first_thresholds(47, 5)
        last = 2 * engine._BLOCK - 1
        grid = ScriptedGrid(4 * engine._BLOCK, 0, 4 * engine._BLOCK - 1)
        grid.maps[:-1] = np.eye(2)
        grid.maps[last] *= math.sqrt(r.max() * (1.0 - 1e-9))
        cfg = EngineConfig(frame="rwa", master_seed=47)
        recs = run_trajectories(None, None, None, cfg, [0] * 5, list(range(5)), grid=grid)
        assert recs[int(r.argmax())].switching_current == grid.I_end[last]
        assert sum(rec.switching_current == grid.I_end[last] for rec in recs) == 1
        assert recs == reference_run(grid, cfg, [0] * 5, list(range(5)))

    def test_block_end_just_inside_the_margin(self):
        """The norm dips below the highest threshold inside a block and
        then grows by less than NORM_GROWTH_TOL per step, ending the block
        above the threshold but within (1 + tol)^_BLOCK of it.  The row
        must be walked step by step and jump at the dip."""
        r = self.first_thresholds(47, 5)
        dip, end = engine._BLOCK + 10, 2 * engine._BLOCK
        grid = ScriptedGrid(4 * engine._BLOCK, 0, 4 * engine._BLOCK - 1)
        grid.maps[:-1] = np.eye(2)
        grid.maps[dip] *= math.sqrt(r.max() * (1.0 - 1e-11))
        grid.maps[dip + 1 : end] *= math.sqrt(1.0 + 0.9 * NORM_GROWTH_TOL)
        norm2 = np.prod(np.abs(grid.maps[:end, 0, 0]) ** 2)
        assert r.max() < norm2 < r.max() * (1.0 + NORM_GROWTH_TOL) ** engine._BLOCK
        cfg = EngineConfig(frame="rwa", master_seed=47)
        recs = run_trajectories(None, None, None, cfg, [0] * 5, list(range(5)), grid=grid)
        assert recs[int(r.argmax())].switching_current == grid.I_end[dip]
        assert recs == reference_run(grid, cfg, [0] * 5, list(range(5)))

    def test_rise_and_fall_inside_a_block_goes_unreported(self):
        """The gate of the block-end carry: a row that ends a block far
        above its next threshold, and with no more norm than it started
        with, is not walked step by step, so a rise that falls back inside
        the block raises no StepSizeError, though the per-step reference
        raises one."""
        grid = ScriptedGrid(3 * engine._BLOCK, 0, 3 * engine._BLOCK - 1)
        grid.maps[: 3 * engine._BLOCK - 1] = np.eye(2)
        grid.maps[engine._BLOCK + 5] *= 1.001
        grid.maps[engine._BLOCK + 6] /= 1.001
        cfg = EngineConfig(frame="rwa", master_seed=47)
        assert self.first_thresholds(47, 5).max() < 1.0 - 1e-9
        with pytest.raises(StepSizeError, match=f"at step {engine._BLOCK + 5}"):
            reference_run(grid, cfg, [0] * 5, list(range(5)))
        recs = run_trajectories(None, None, None, cfg, [0] * 5, list(range(5)), grid=grid)
        assert all(rec.switching_current == grid.I_end[-1] for rec in recs)

    def test_records_equal_reference_two_level(self, junction):
        d = fast_drive(junction)
        cfg = EngineConfig(frame="rwa", master_seed=53)
        grid = RampGrid(junction, None, d, cfg)
        recs = run_trajectories(junction, None, d, cfg, [0] * 400, list(range(400)), grid=grid)
        assert sum(r.n_relax_events for r in recs) > 0  # restarts are exercised
        assert recs == reference_run(grid, cfg, [0] * 400, list(range(400)))

    def test_records_equal_reference_four_level(self, junction_tls, tls):
        d = fast_drive(junction_tls)
        cfg = EngineConfig(frame="rwa", master_seed=53)
        grid = RampGrid(junction_tls, tls, d, cfg)
        flags, streams = [0] * 100 + [1] * 100, list(range(100)) * 2
        recs = run_trajectories(junction_tls, tls, d, cfg, flags, streams, grid=grid)
        assert {r.flag_at_switch for r in recs} == {0, 1}
        assert recs == reference_run(grid, cfg, flags, streams)

    def test_records_equal_reference_four_level_many_rows(self, junction_tls, tls):
        """A hundredth of the shunt resistance: ramps from both flags relax,
        up to 14 rows are live at once, and in dozens of blocks some rows
        are carried while others are walked."""
        junction = dataclasses.replace(
            junction_tls, shunt_resistance=junction_tls.shunt_resistance / 100
        )
        d = fast_drive(junction)
        cfg = EngineConfig(frame="rwa", master_seed=53)
        grid = RampGrid(junction, tls, d, cfg)
        flags, streams = [0] * 100 + [1] * 100, list(range(100)) * 2
        recs = run_trajectories(junction, tls, d, cfg, flags, streams, grid=grid)
        assert all(any(r.n_relax_events for r in recs[i : i + 100]) for i in (0, 100))
        assert recs == reference_run(grid, cfg, flags, streams)

    def test_pieces_tile_the_grid(self, junction_tls, tls):
        """The runner requests the grid in pieces of at most engine._PASS
        steps, in order and without gaps, from step 0 to the piece that
        holds the last switching step, so its memory does not grow with
        the grid."""
        requested = []

        class RecordingGrid(RampGrid):
            def propagator_chunk(self, lo, hi):
                requested.append((lo, hi))
                return super().propagator_chunk(lo, hi)

        d = fast_drive(junction_tls)
        cfg = EngineConfig(frame="rwa", master_seed=53)
        grid = RecordingGrid(junction_tls, tls, d, cfg)
        flags, streams = [0] * 50 + [1] * 50, list(range(50)) * 2
        recs = run_trajectories(junction_tls, tls, d, cfg, flags, streams, grid=grid)
        last = int(np.searchsorted(grid.I_end, max(r.switching_current for r in recs)))
        assert len(requested) > 2
        assert requested[0][0] == 0
        assert all(a[1] == b[0] for a, b in zip(requested, requested[1:]))
        assert all(0 < hi - lo <= engine._PASS for lo, hi in requested)
        assert requested[-1][0] <= last < requested[-1][1]

    def test_norms_far_below_one_across_pieces(self):
        """Every step halves the norm of |psi>, so each trajectory
        relaxes within a few dozen steps and keeps restarting for more
        than three pieces before it can escape; the rows are never
        rescaled, and the records equal the per-step reference."""
        n_steps = 3 * engine._PASS + 100
        escape_from = 3 * engine._PASS + 50
        grid = ScriptedGrid(n_steps, 0, n_steps - 1)
        grid.maps[:] = 0.5 * np.array([[0, 1], [1, 0]])
        grid.rates[:escape_from] = [0.0, 0.0, 1.0]  # relaxation only
        grid.rates[escape_from:] = [1.0, 0.0, 0.0]  # 0g escape only
        cfg = EngineConfig(frame="rwa", master_seed=47)
        recs = run_trajectories(None, None, None, cfg, [0] * 20, list(range(20)), grid=grid)
        for r in recs:
            assert r.switching_current >= grid.I_end[escape_from]
            assert r.n_relax_events > escape_from // 27
        assert recs == reference_run(grid, cfg, [0] * 20, list(range(20)))


def mixed_pass_start(grid):
    """A step half a piece before the first step whose squaring count
    differs from the step before it: a piece that starts there mixes
    counts, so its squarings take the masked branch."""
    window = 64 * engine._PASS  # steps whose generators are built at once
    for lo in range(0, grid.n_steps, window):
        hi = min(lo + window + 1, grid.n_steps)
        I_end, dt = grid.steps(lo, hi)
        k = squaring_exponents(grid._generator(I_end, dt)[0], dt)
        change = np.nonzero(np.diff(k))[0]
        if change.size:
            return max(lo + int(change[0]) + 1 - engine._PASS // 2, 0)
    raise AssertionError("the squaring count never changes on this grid")


class TestPropagatorBuild:
    """The real row forms of the step maps against the complex build they
    replace (reference_maps), chunk by chunk."""

    def assert_chunk_equals_reference(self, grid, lo):
        """Steps [lo, lo + 2 pieces + 37) against reference_maps; returns
        the squaring counts of the first piece."""
        hi = min(lo + 2 * engine._PASS + 37, grid.n_steps)
        got = grid.propagator_chunk(lo, hi)[0]
        I_end, dt = grid.steps(lo, hi)
        H, _ = grid._generator(I_end, dt)
        assert np.abs(got - real_rows(reference_maps(H, dt))).max() < 1e-13
        # the block pattern [[Re, Im], [-Im, Re]] holds exactly
        d = got.shape[-1] // 2
        assert np.array_equal(got[:, :d, :d], got[:, d:, d:])
        assert np.array_equal(got[:, :d, d:], -got[:, d:, :d])
        return squaring_exponents(H, dt)[: engine._PASS]

    def assert_mixed_chunk_equals_reference(self, grid):
        first_pass = self.assert_chunk_equals_reference(grid, mixed_pass_start(grid))
        assert first_pass.min() < first_pass.max()

    def test_real_rows_act_as_complex_maps(self):
        """[Re x, Im x] @ real_rows(B) is [Re, Im] of x @ B, and products
        of real forms are the real forms of the products."""
        gen = np.random.default_rng(5)
        B, C = gen.normal(size=(2, 3, 4, 4)) + 1j * gen.normal(size=(2, 3, 4, 4))
        x = gen.normal(size=(3, 1, 4)) + 1j * gen.normal(size=(3, 1, 4))
        got = np.concatenate((x.real, x.imag), axis=-1) @ real_rows(B)
        assert np.allclose(got, np.concatenate(((x @ B).real, (x @ B).imag), axis=-1))
        assert np.allclose(real_rows(B) @ real_rows(C), real_rows(B @ C))
        assert np.array_equal(as_complex(real_rows(B)), B)

    @pytest.mark.parametrize(
        "path", ["configs/default.cfg", "configs/bare_junction.cfg", "configs/lz_midregime.cfg"]
    )
    def test_shipped_config_chunk(self, path):
        self.assert_mixed_chunk_equals_reference(RampGrid(*build_physics(load_config(path))))

    @pytest.mark.parametrize("dim", [2, 4])
    def test_lab_frame_chunk(self, junction_tls, tls, dim):
        """Lab-frame steps, a twentieth of a drive period, need no
        squaring: the middle pieces build their maps unscaled."""
        d = fast_drive(junction_tls)
        cfg = EngineConfig(frame="lab", master_seed=1)
        grid = RampGrid(junction_tls, tls if dim == 4 else None, d, cfg)
        assert not self.assert_chunk_equals_reference(grid, grid.n_steps // 2).any()

    @pytest.mark.parametrize("dim", [2, 4])
    def test_diagonal_only_chunk(self, junction_tls, drive_off, dim):
        cfg = EngineConfig(frame="rwa", master_seed=1)
        tls0 = TlsParams(TWO_PI * F_TLS, 0.0) if dim == 4 else None
        grid = RampGrid(junction_tls, tls0, drive_off, cfg)
        assert grid.model.diagonal
        self.assert_mixed_chunk_equals_reference(grid)

    def test_pass_layout_does_not_leak(self, junction_tls, tls):
        """A step's map is the same whichever piece builds it: one chunk
        equals two chunks split off the piece grid, bit for bit."""
        d = fast_drive(junction_tls)
        grid = RampGrid(junction_tls, tls, d, EngineConfig(frame="rwa"))
        lo = mixed_pass_start(grid)
        mid, hi = lo + engine._PASS // 3, lo + 2 * engine._PASS + 37
        assert (mid - lo) % engine._PASS and hi <= grid.n_steps
        split = np.concatenate((grid.propagator_chunk(lo, mid)[0], grid.propagator_chunk(mid, hi)[0]))
        assert grid.propagator_chunk(lo, hi)[0].tobytes() == split.tobytes()

    @pytest.mark.parametrize(
        "path", ["configs/default.cfg", "configs/bare_junction.cfg", "configs/lz_midregime.cfg"]
    )
    def test_matches_scipy_expm(self, path):
        """The engine-side twin of the oracle's TestExponential: on the
        middle piece of each shipped grid, per step and relative to the
        largest entry of scipy's expm of the same real-row generator.
        taylor_exp, and the maps the engine steps with, which make that
        call, are exact: measured
        1.0e-14 / 2.4e-15 / 8.5e-15 on default / bare / lz.  On the first
        bare piece, at 1-norm 16, scipy's expm errs by 2.0e-13 against a
        40-digit reference, and the engine's maps by 2.1e-15."""
        from scipy.linalg import expm

        grid = RampGrid(*build_physics(load_config(path)))
        lo = grid.n_steps // 2 // engine._PASS * engine._PASS
        I_end, dt = grid.steps(lo, lo + engine._PASS)
        H = grid._generator(I_end, dt)[0]
        A = real_rows(-1j * dt[:, None, None] * np.swapaxes(H, 1, 2))
        ref = expm(A)

        def error(maps):
            return (np.abs(maps - ref).max(axis=(1, 2)) / np.abs(ref).max(axis=(1, 2))).max()

        assert error(grid.propagator_chunk(lo, lo + engine._PASS)[0]) < 1e-13
        assert error(taylor_exp(A)) < 1e-13


def whole_grid(grid):
    """Bias at the end and size of every step, by the whole-grid
    expressions the grid once stored them with: the reference for its
    pieces.  Also the time at the end of every step, summed over the step
    sizes."""
    m_cell, first = grid._m, grid._first[:-1]
    k_in = np.arange(grid.n_steps) - np.repeat(first, m_cell) + 1
    frac = k_in / np.repeat(m_cell, m_cell)
    I_end = np.repeat(grid._I_start, m_cell) + frac * np.repeat(grid._width, m_cell)
    dt = np.repeat(grid._dt, m_cell)
    return I_end, dt, np.cumsum(dt)


GRID_CONFIGS = [
    ("configs/default.cfg", []),
    ("configs/bare_junction.cfg", []),
    ("configs/lz_midregime.cfg", []),
    ("configs/default.cfg", ["engine.frame=lab", "drive.ramp_rate_uA_per_s=90000"]),
    ("configs/bare_junction.cfg", ["engine.frame=lab", "drive.ramp_rate_uA_per_s=90000"]),
    ("configs/default.cfg", ["drive.rabi_MHz=0", "tls.coupling_MHz=0"]),
    ("configs/default.cfg", ["tls.coupling_MHz=0"]),
    ("configs/bare_junction.cfg", ["drive.rabi_MHz=0"]),
]


class TestGridPieces:
    """The grid stores its mesh cells and builds the steps of a piece on
    demand; every piece must equal the whole-grid arrays bit for bit."""

    @pytest.mark.parametrize("path, sets", GRID_CONFIGS)
    def test_pieces_equal_whole_grid(self, path, sets):
        grid = RampGrid(*build_physics(apply_overrides(load_config(path), sets)))
        ref = whole_grid(grid)
        n, P = grid.n_steps, engine._PASS
        rate = grid.model.d.ramp_rate
        bias_ulps = 16 * np.spacing(grid.model.bias_limit()) / rate  # in time
        assert n > 3 * P
        aligned = [(lo, min(lo + P, n)) for lo in range(0, n, P)]
        pieces = aligned[::-1] + [  # last to first, then out of order:
            (3 * P + 17, 3 * P + 1017),  # unaligned
            (2 * P - 100, 5 * P + 3),  # across the following boundaries
            (0, 1), (P - 1, P), (P, P + 1), (n - 1, n), (n // 2, n // 2 + 1),  # single steps
            (P + 1, n),  # to the end of the grid
            aligned[1],  # asked for again
        ]
        for lo, hi in pieces:
            hi = min(hi, n)
            got = grid.steps(lo, hi)
            for a, b in zip(got, ref):
                assert np.array_equal(a, b[lo:hi]), (lo, hi)
            # the model's clock at the step midpoints keeps the summed step
            # sizes, up to the rounding of the sum and of the bias
            t_mid = (midpoints(grid, lo, hi) - grid.model.d.dc_start) / rate
            dt = ref[1][lo:hi]
            assert np.allclose(t_mid, ref[2][lo:hi] - 0.5 * dt, rtol=1e-9, atol=bias_ulps)
        assert np.array_equal(grid.I_end, ref[0])

    def test_planning_memory_does_not_grow_with_the_grid(self):
        """The lab frame of default.cfg has 12.8 M steps; planning it keeps
        no per-step array and peaks far below one such array (102 MB)."""
        import tracemalloc

        physics = build_physics(
            apply_overrides(load_config("configs/default.cfg"), ["engine.frame=lab"])
        )
        tracemalloc.start()
        try:
            grid = RampGrid(*physics)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert grid.n_steps > 12_000_000
        assert peak < 32 * 2**20
        held = [v for v in vars(grid).values() if isinstance(v, np.ndarray)]
        assert all(v.size < grid.n_steps // 1000 for v in held)


class TestWaitingTime:
    def test_constant_rate_exponential(self, junction, drive_off, monkeypatch):
        """With a constant escape rate and no drive, switching times follow
        1 - exp(-gamma t) (Kolmogorov-Smirnov at the 1 % level)."""
        gamma = 2e5
        row = [gamma, gamma, 0.0]  # both levels escape at gamma; no relaxation
        monkeypatch.setattr(engine.Model, "rates", lambda self, I: np.tile(row, (np.size(I), 1)))
        cfg = EngineConfig(frame="rwa", master_seed=41)
        grid = RampGrid(junction, None, drive_off, cfg)
        n = 2000
        recs = run_trajectories(junction, None, drive_off, cfg, [0] * n, list(range(n)), grid=grid)
        current = np.array([r.switching_current for r in recs])
        step = np.searchsorted(grid.I_end, current)
        assert np.array_equal(grid.I_end[step], current)
        # jumps land on step ends: compare the CDFs there, which bounds the
        # continuous KS statistic from below
        t_end = (grid.I_end - drive_off.dc_start) / drive_off.ramp_rate
        t = t_end[np.unique(step)]
        empirical = np.searchsorted(np.sort(t_end[step]), t, side="right") / n
        assert np.abs(empirical - (1.0 - np.exp(-gamma * t))).max() < 1.63 / math.sqrt(n)


class TestGridConsistency:
    """The batched grid must build the closed-form generator."""

    @pytest.mark.parametrize("frame", ["rwa", "lab"])
    @pytest.mark.parametrize("dim", [2, 4])
    def test_grid_matches_builders(self, junction_tls, tls, frame, dim):
        """A step's generator is the closed-form H_eff at its midpoint in
        the rotating frame, and the fourth-order Magnus generator of the
        closed-form H_eff at its Gauss points, with the midpoint's rates,
        in the lab frame."""
        d = fast_drive(junction_tls)
        cfg = EngineConfig(frame=frame, master_seed=1)
        grid = RampGrid(junction_tls, tls if dim == 4 else None, d, cfg)
        H_chunk = grid._generator(*grid.steps(0, grid.n_steps))[0]

        def closed_form(I, rates):
            H = closed_form_H(junction_tls, grid.model.tls, d, I, (I - d.dc_start) / d.ramp_rate, frame)
            return closed_form_H_eff(H, rates)

        for k in [0, grid.n_steps // 3, grid.n_steps - 1]:
            I = midpoints(grid, k, k + 1)
            rates = grid.model.rates(I)[0]
            if frame == "rwa":
                He = closed_form(I[0], rates)
            else:
                (I1,), (I2,), dt = gauss_points(grid, k, k + 1)
                He = magnus4(closed_form(I1, rates)[None], closed_form(I2, rates)[None], dt)[0]
            got = H_chunk[k]
            # the grid centres the Hermitian diagonal; undo the shift
            shift = (np.trace(He) - np.trace(got)) / dim
            assert np.allclose(got + shift * np.eye(dim), He, rtol=1e-9, atol=1e-3)

    def test_propagator_equals_frozen_expm(self, junction):
        """One grid propagator application == scipy's expm of the step's
        frozen generator, exp(-i H_eff dt), applied to the state."""
        from scipy.linalg import expm

        d = fast_drive(junction)
        cfg = EngineConfig(frame="rwa", master_seed=1)
        grid = RampGrid(junction, None, d, cfg)
        k = grid.n_steps // 2
        pt = as_complex(grid.propagator_chunk(k, k + 1)[0][0])
        I_end, dt = grid.steps(k, k + 1)
        (H,), _ = grid._generator(I_end, dt)
        psi = np.array([0.6, 0.8j], dtype=complex)
        ref = expm(-1j * dt[0] * H) @ psi
        assert np.allclose(psi @ pt, ref, rtol=1e-12, atol=1e-15)

    def test_two_level_runs_do_not_depend_on_eta(self, tmp_path):
        """eta lowers the critical current of the TLS e branch, which a bare
        junction lacks: its grid, the maps and rate rows of every piece,
        and the records of a short simulate are the same at any eta."""
        grids, bodies = [], []
        for eta in ("0", "0.005", "0.1"):
            overrides = [f"junction.eta={eta}"]
            cfg = apply_overrides(load_config("configs/bare_junction.cfg"), overrides)
            grid = RampGrid(*build_physics(cfg))
            digest = hashlib.sha1()
            for lo in range(0, grid.n_steps, engine._PASS):
                for part in grid.propagator_chunk(lo, min(lo + engine._PASS, grid.n_steps)):
                    digest.update(part.tobytes())
            grids.append((grid.n_steps, digest.hexdigest()))
            out = tmp_path / eta
            assert main(["simulate", "--config", "configs/bare_junction.cfg", "--out", str(out),
                         "--set", *overrides, "--set", "engine.ramps=40"]) == 0
            with open(out / "records.csv") as fh:
                bodies.append([line for line in fh if not line.startswith("#")])
        assert grids[0] == grids[1] == grids[2]
        assert bodies[0] == bodies[1] == bodies[2]

    def test_piece_rates_are_model_rates(self, junction_tls, tls):
        """The rate rows of a piece are the model's rates at its step
        midpoints, in channel order, bit for bit, whatever piece was
        requested before."""
        d = fast_drive(junction_tls)
        for dim in (2, 4):
            cfg = EngineConfig(frame="rwa", master_seed=1)
            grid = RampGrid(junction_tls, tls if dim == 4 else None, d, cfg)
            third = grid.n_steps // 3
            for lo, hi in ((2 * third, 2 * third + 7), (third, third + 5)):
                maps, rates, I_end = grid.propagator_chunk(lo, hi)
                assert len(maps) == len(rates) == hi - lo
                assert np.array_equal(I_end, grid.steps(lo, hi)[0])
                expected = grid.model.rates(midpoints(grid, lo, hi))
                assert np.array_equal(rates, expected)

    def test_lab_generator_reads_the_model_clock(self):
        """The lab-frame grid of default.cfg at 90,000 uA/s (732,888
        steps) builds its last piece's generators from Model.H_eff at the
        Gauss points of the steps, with the midpoints' rates: the
        off-diagonal entries, which carry the drive and which the
        centring leaves alone, agree bit for bit with the fourth-order
        Magnus generator built from them.  A ramp
        time summed over the step sizes drifts 4.2e-17 s from the bias
        clock by then, 2.4e-6 rad of drive phase, and fails this."""
        cfg = apply_overrides(
            load_config("configs/default.cfg"),
            ["engine.frame=lab", "drive.ramp_rate_uA_per_s=90000"],
        )
        grid = RampGrid(*build_physics(cfg))
        n = grid.n_steps
        assert n == 732_888
        lo = (n - 1) // engine._PASS * engine._PASS
        got = grid._generator(*grid.steps(lo, n))[0]
        I1, I2, dt = gauss_points(grid, lo, n)
        rates = grid.model.rates(midpoints(grid, lo, n))
        expected = magnus4(grid.model.H_eff(I1, rates), grid.model.H_eff(I2, rates), dt)
        off = ~np.eye(grid.model.dim, dtype=bool)
        assert np.abs(got[:, 0, 1]).min() > 0.0  # the drive is on
        assert np.array_equal(got[:, off], expected[:, off])


class TestRampRuns:
    def test_no_microwave_single_peak(self, junction):
        d = BiasDrive(35.45e-6, RAMP_RATE, 0.0, TWO_PI * F_DRIVE)
        cfg = EngineConfig(frame="rwa", master_seed=3)
        recs = run_trajectories(junction, None, d, cfg, [0] * 300, list(range(300)))
        currents = np.array([r.switching_current for r in recs])
        assert currents.std() < 0.03e-6
        assert 35.6e-6 < currents.mean() < 35.72e-6
        for r in recs:
            assert r.n_relax_events == 0
            assert r.flag_at_switch == 0
            assert d.dc_start < r.switching_current < I0

    def test_zero_rates_hit_guard(self, junction, monkeypatch):
        d = fast_drive(junction)
        cfg = EngineConfig(frame="rwa", master_seed=3)
        zero = lambda self, I: np.zeros((np.size(I), len(self.channels)))  # noqa: E731
        monkeypatch.setattr(engine.Model, "rates", zero)
        with pytest.raises(ConfigError):
            run_trajectories(junction, None, d, cfg, [0], [0])

    def test_step_ceiling_guard(self, junction, monkeypatch):
        d = fast_drive(junction)
        monkeypatch.setattr(engine, "_STEP_CEILING", 100)
        cfg = EngineConfig(frame="rwa", master_seed=3)
        with pytest.raises(ConfigError):
            run_trajectories(junction, None, d, cfg, [0], [0])

    def test_determinism_and_slice_independence(self, junction_tls, tls):
        d = fast_drive(junction_tls)
        cfg = EngineConfig(frame="rwa", master_seed=11)
        a = run_trajectories(junction_tls, tls, d, cfg, [0] * 6, list(range(6)))
        b = run_trajectories(junction_tls, tls, d, cfg, [0] * 6, list(range(6)))
        lo = run_trajectories(junction_tls, tls, d, cfg, [0] * 3, [0, 1, 2])
        hi = run_trajectories(junction_tls, tls, d, cfg, [0] * 3, [3, 4, 5])
        for x, y in zip(a, b):
            assert x.switching_current == y.switching_current
            assert x.flag_at_switch == y.flag_at_switch
        for x, y in zip(a, lo + hi):
            assert x.switching_current == y.switching_current
            assert x.flag_at_switch == y.flag_at_switch
            assert x.n_relax_events == y.n_relax_events

    def test_single_trajectory_equals_ensemble_head(self, junction):
        d = fast_drive(junction)
        cfg = EngineConfig(frame="rwa", master_seed=5)
        (one,) = run_trajectories(junction, None, d, cfg, [0], [0])
        ens = run_trajectories(junction, None, d, cfg, [0] * 3, [0, 1, 2])
        assert one.switching_current == ens[0].switching_current

    def test_sequence_equals_manual_chain(self, junction_tls, tls):
        d = fast_drive(junction_tls)
        cfg = EngineConfig(frame="rwa", master_seed=17)
        recs = run_trajectories(junction_tls, tls, d, cfg, [0] * 12 + [1] * 12, list(range(12)) * 2)
        seq = fold_sequence([recs[:12], recs[12:]])
        flag = 0
        for i, rec in enumerate(seq):
            (manual,) = run_trajectories(junction_tls, tls, d, cfg, [flag], [i])
            assert manual.switching_current == rec.switching_current
            assert manual.flag_at_switch == rec.flag_at_switch
            flag = rec.flag_at_switch

    def test_variants_share_one_grid(self, monkeypatch):
        """One worker slice runs both flag variants of its ramps on one grid."""
        from jjswitch import cli

        built = []

        class CountedGrid(RampGrid):
            def __init__(self, *args, **kwargs):
                built.append(self)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(engine, "RampGrid", CountedGrid)
        cfg = apply_overrides(
            load_config("configs/default.cfg"),
            ["drive.ramp_rate_uA_per_s=2e5", "drive.dc_start_uA=35.55"],
        )
        rec0, rec1 = cli._run_slice((cfg, (0, 1), 2, 6))
        assert len(built) == 1
        assert [r.ramp_index for r in rec0] == [r.ramp_index for r in rec1] == [2, 3, 4, 5]

    def test_flag_flow_and_fold(self):
        rec0 = [SwitchRecord(i, 1.0, i % 2) for i in range(6)]
        rec1 = [SwitchRecord(i, 2.0, 1) for i in range(6)]
        chain = fold_sequence([rec0, rec1], init_flag=0)
        # ramp 0 from rec0 (flag 0 start); afterwards the previous flag picks
        flag = 0
        for i, rec in enumerate(chain):
            assert rec is (rec0[i] if flag == 0 else rec1[i])
            flag = rec.flag_at_switch

    def test_decoupled_tls_keeps_flag(self, junction_tls):
        tls0 = TlsParams(TWO_PI * F_TLS, 0.0)
        d = fast_drive(junction_tls)
        cfg = EngineConfig(frame="rwa", master_seed=23)
        recs = run_trajectories(junction_tls, tls0, d, cfg, [0] * 10 + [1] * 10, list(range(10)) * 2)
        assert [r.flag_at_switch for r in fold_sequence([recs[:10], recs[10:]])] == [0] * 10
        assert [r.flag_at_switch for r in recs[10:]] == [1] * 10

    def test_two_level_rejects_flag_one(self, junction):
        d = fast_drive(junction)
        cfg = EngineConfig(frame="rwa", master_seed=3)
        with pytest.raises(ConfigError):
            run_trajectories(junction, None, d, cfg, [1], [0])

    def test_lab_frame_short_window(self, junction):
        """Lab and rotating frames agree on where the junction escapes."""
        d_lab = fast_drive(junction, rabi_hz=10e6, dc_start=35.62e-6, ramp_rate=2.0)
        cfg_lab = EngineConfig(frame="lab", master_seed=29)
        cfg_rwa = EngineConfig(frame="rwa", master_seed=29)
        lab = run_trajectories(junction, None, d_lab, cfg_lab, [0] * 60, list(range(60)))
        rwa = run_trajectories(junction, None, d_lab, cfg_rwa, [0] * 60, list(range(60)))
        lab_mean = np.mean([r.switching_current for r in lab])
        rwa_mean = np.mean([r.switching_current for r in rwa])
        assert lab_mean == pytest.approx(rwa_mean, abs=0.01e-6)


def output_points(model):
    """The oracle's output grid: 2000 biases from dc_start to the ramp top,
    cut where the hardiest state's escape hazard kills any survivor."""
    points = np.linspace(model.d.dc_start, model.bias_limit(), 2000)
    return points[: model.kill_index(points, model.rates(points)) + 1]


def no_jump_populations(grid, points):
    """Populations of the engine's no-jump row from |0g> at the ascending
    bias points that lie on the grid, shape (n, d).  The row is stepped
    through every propagator_chunk map up to the step that holds a point,
    then across the part of that step up to the point by a map built like
    the grid's own (RampGrid._generator and taylor_propagator)."""
    ends = grid.I_end
    points = points[points <= ends[-1]]
    holder = np.searchsorted(ends, points)  # ends[k-1] < point <= ends[k]
    dim = grid.model.dim
    start = np.empty((points.size, 2 * dim))
    psi = np.zeros(2 * dim)
    psi[0] = 1.0
    j = 0
    for lo in range(0, int(holder[-1]) + 1, engine._PASS):
        for k, M in enumerate(grid.propagator_chunk(lo, min(lo + engine._PASS, grid.n_steps))[0], lo):
            while j < points.size and holder[j] == k:
                start[j] = psi
                j += 1
            psi = psi @ M
    dt = (points - np.concatenate(([grid.model.d.dc_start], ends))[holder]) / grid.model.d.ramp_rate
    end = np.einsum("ni,nij->nj", start, taylor_propagator(grid._generator(points, dt)[0], dt))
    return end[:, :dim] ** 2 + end[:, dim:] ** 2


GATE_CASES = [
    "configs/default.cfg",
    "configs/bare_junction.cfg",
    "configs/lz_midregime.cfg",
    pytest.param("lab", marks=pytest.mark.slow),
]


class TestNoJumpGate:
    """The deterministic accuracy gate of the step grid and its maps.  The
    no-jump evolution from |0g> is deterministic, and both routes compute
    it: the engine's row is the product of its step maps, and the oracle
    without relaxation refeed integrates the same generator with its own
    exponentials and step doubling.  Their populations agree within 1e-4
    at the oracle's output points, two orders below the 1/sqrt(N) of an
    ensemble of N = 10,000, on the shipped configs and on the tests' fast
    config in the lab frame."""

    @pytest.mark.parametrize("case", GATE_CASES)
    def test_populations_match_the_no_refeed_oracle(self, case, junction_tls, tls, monkeypatch):
        """Measured max |dpop| against the oracle at rtol 1e-8: default
        2.0e-6, bare 4.6e-6, lz 1.7e-5, lab 1.2e-5.  Here the oracle runs
        at rtol 1e-6, which moves its populations by at most 1.1e-5 (4.3e-6
        in the lab frame, whose oracle takes about a minute even so).
        Exponential midpoint maps on the lab grid, a twentieth of a drive
        period a step, give 2.4e-3."""
        if case == "lab":
            grid = RampGrid(junction_tls, tls, fast_drive(junction_tls), EngineConfig(frame="lab"))
        else:
            grid = RampGrid(*build_physics(load_config(case)))

        def no_refeed(model, I):
            # the refeed adds each relaxation's rate to an entry that the
            # no-jump part leaves at exactly 0, so this restores the 0
            L = liouvillian(model, I)
            rates = model.rates(np.atleast_1d(I))
            for k, c in enumerate(model.channels):
                if c.kind == "relax":
                    L[:, c.target, c.source] -= rates[:, k]
            return L

        monkeypatch.setattr(oracle, "liouvillian", no_refeed)
        points = output_points(grid.model)
        rho = oracle._states(grid.model, points[:-1], points[1:], 1e-6)
        pops = no_jump_populations(grid, points)
        assert np.abs(pops - rho[: len(pops), : grid.model.dim]).max() <= 1e-4

    def test_error_falls_as_theta_max_tightens(self):
        """On bare_junction.cfg, against an engine reference at a sixteenth
        of theta_max and of dt_max (192,918 steps): the grid's error at
        theta_max / 4 is below its error at theta_max.  Measured 4.7e-6 at
        theta_max (13,114 steps), 4.7e-6 at theta_max / 2 (the same grid),
        1.0e-6 at theta_max / 4 and 7.5e-8 at dt_max / 4."""
        p, tls, d, ecfg = build_physics(load_config("configs/bare_junction.cfg"))
        points = output_points(RampGrid(p, tls, d, ecfg).model)

        def populations(theta_div, dt_div):
            cfg = dataclasses.replace(
                ecfg, theta_max=ecfg.theta_max / theta_div, dt_max=ecfg.dt_max / dt_div
            )
            return no_jump_populations(RampGrid(p, tls, d, cfg), points)

        ref = populations(16, 16)

        def error(pops):
            n = min(len(pops), len(ref))
            return np.abs(pops[:n] - ref[:n]).max()

        shipped = error(populations(1, 1))
        assert error(populations(4, 1)) < shipped <= 1e-4


def assert_matches_master(recs, dist):
    """The records' 0.01 uA switching histogram is the master equation's
    distribution: TV within the 99th percentile of the TV of multinomial
    resamples of the oracle itself."""
    n = len(recs)
    hist = histogram(recs, 0.01e-6)
    cum = np.concatenate(
        ([0.0], np.cumsum(0.5 * (dist.density[1:] + dist.density[:-1]) * np.diff(dist.grid)))
    )
    q = np.diff(np.interp(hist.bin_edges, dist.grid, cum, left=0.0, right=cum[-1]))
    outside = max(cum[-1] + dist.survival[-1] - q.sum(), 0.0)

    def tv(counts):
        return 0.5 * (np.abs(counts / n - q).sum(axis=-1) + outside)

    resampled = np.random.default_rng(0).multinomial(n, q / q.sum(), size=4000)
    assert tv(hist.counts) <= np.percentile(tv(resampled), 99)


class TestUnravelling:
    @pytest.mark.acceptance
    def test_ramp_matches_master_equation(self, junction):
        """The unravelling reproduces the master equation on a fast 2-level
        ramp, N = 2000."""
        d = fast_drive(junction)
        cfg = EngineConfig(frame="rwa", master_seed=43)
        recs = run_trajectories(junction, None, d, cfg, [0] * 2000, list(range(2000)))
        assert sum(r.n_relax_events for r in recs) > 0  # the drive excites
        assert_matches_master(recs, integrate_master(junction, None, d, "rwa"))

    @pytest.mark.acceptance
    @pytest.mark.parametrize(
        "path, overrides",
        [
            ("configs/bare_junction.cfg", []),
            ("configs/default.cfg", ["drive.ramp_rate_uA_per_s=90000"]),
            ("configs/default.cfg", []),
            ("configs/lz_midregime.cfg", []),
        ],
    )
    def test_shipped_config_matches_master_equation(self, path, overrides):
        """`ensemble` on a shipped config, N = 2000 at its own master_seed,
        against the master equation."""
        cfg = apply_overrides(load_config(path), overrides)
        p, tls, d, ecfg = build_physics(cfg)
        recs = run_trajectories(p, tls, d, ecfg, [0] * 2000, list(range(2000)))
        assert_matches_master(recs, integrate_master(p, tls, d, ecfg.frame))

    @pytest.mark.acceptance
    def test_tls_crossing_matches_landau_zener(self, tmp_path):
        """`lz` ramps the junction undriven, with eta = 0 and every ramp
        started in flag 1 (|0e>): the share still in flag 1 at switching is
        the diabatic Landau-Zener survival of the junction-TLS crossing.
        N = 2000 at the config's master seed, within four standard errors."""
        out = tmp_path / "lz"
        assert main(["lz", "--config", "configs/lz_midregime.cfg", "--out", str(out),
                     "--set", "tls.f_TLS_GHz=9.6", "--set", "engine.trajectories=2000"]) == 0
        summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
        p_lz, n = summary["p_lz_closed_form"], summary["trajectories"]
        assert p_lz == pytest.approx(0.3977, abs=1e-4)
        assert n == 2000
        share = summary["p_flag1_engine"]
        assert abs(share - p_lz) <= 4.0 * math.sqrt(p_lz * (1.0 - p_lz) / n)
