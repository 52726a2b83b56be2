"""Trajectory engine: single-step operations, jump statistics, ramps,
determinism, and the static unraveling equivalence."""

import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from jjswitch.engine import (
    EngineConfig,
    JumpEvent,
    QuantumState,
    RampGrid,
    SwitchRecord,
    apply_relax,
    evolve_step,
    fold_sequence,
    jump_decision,
    run_ensemble,
    run_ramp,
    run_sequence,
    run_static_ensemble,
    run_trajectories,
    sequence_variants,
)
from jjswitch.errors import ConfigError, PhysicsDomainError, StepSizeError
from jjswitch.hamiltonian import (
    TlsParams,
    effective_hamiltonian_2,
    effective_hamiltonian_4,
    hamiltonian_2,
    hamiltonian_4,
)
from jjswitch.oracle import lindblad_rhs
from jjswitch.physics import (
    BiasDrive,
    JunctionParams,
    RateSet,
    microwave_amplitude_for_rabi,
    rate_set,
    relaxation_rate,
    resonance_current,
)

from conftest import C, F_DRIVE, F_TLS, I0, R, RAMP_RATE, T_BASE, TWO_PI

ZERO_RATES = RateSet(0, 0, 0, 0, 0)


def fast_drive(junction, rabi_hz=10e6, dc_start=35.55e-6, ramp_rate=0.2):
    """Drive with an artificially fast ramp: full physics, small grids."""
    i_res = resonance_current(junction, TWO_PI * F_DRIVE)
    i_uw = microwave_amplitude_for_rabi(junction, TWO_PI * rabi_hz, i_res)
    return BiasDrive(dc_start, ramp_rate, i_uw, TWO_PI * F_DRIVE)


class TestEvolveStep:
    def test_unitary_norm_preserved(self):
        H = np.array([[0.0, 1e6], [1e6, 2e6]], dtype=complex)
        s = QuantumState(np.array([1.0, 0.0], dtype=complex))
        dt = 1e-9  # theta ~ 2e-3
        for _ in range(100):
            s = evolve_step(s, H, dt)
        assert s.norm_squared() == pytest.approx(1.0, abs=1e-10)

    def test_diagonal_decay_closed_form(self):
        gamma = 2e6
        H = np.diag([0.0, 1e8 - 0.5j * gamma]).astype(complex)
        s = QuantumState(np.array([0.0, 1.0], dtype=complex))
        dt = 1e-10  # phase advance 0.01 rad/step: truncation far below rtol
        n = 2000
        for _ in range(n):
            s = evolve_step(s, H, dt)
        assert s.norm_squared() == pytest.approx(math.exp(-gamma * n * dt), rel=1e-6)
        assert s.t == pytest.approx(n * dt, rel=1e-12)

    def test_resonant_rabi_against_analytic(self):
        omega_m = TWO_PI * 10e6
        H = np.array([[0.0, omega_m / 2], [omega_m / 2, 0.0]], dtype=complex)
        period = TWO_PI / omega_m
        n = 2000
        dt = period / n
        s = QuantumState(np.array([1.0, 0.0], dtype=complex))
        worst = 0.0
        for k in range(n):
            s = evolve_step(s, H, dt)
            expected = math.sin(omega_m * (k + 1) * dt / 2.0) ** 2
            worst = max(worst, abs(abs(s.amplitudes[1]) ** 2 - expected))
        assert worst < 1e-6

    def test_norm_growth_raises(self):
        H = np.array([[0.0, 1e10], [1e10, 0.0]], dtype=complex)
        s = QuantumState(np.array([1.0, 0.0], dtype=complex))
        with pytest.raises(StepSizeError):
            evolve_step(s, H, 1e-9)  # theta = 10: far beyond stability

    def test_dimension_mismatch(self):
        s = QuantumState(np.array([1.0, 0.0], dtype=complex))
        with pytest.raises(PhysicsDomainError):
            evolve_step(s, np.eye(4, dtype=complex), 1e-12)


class TestJumpDecision:
    def test_all_rates_zero(self):
        s = QuantumState(np.array([0.6, 0.8], dtype=complex))
        assert jump_decision(s, ZERO_RATES, 1e-9, 0.0) is None

    def test_ground_state_only_tunnels(self):
        s = QuantumState(np.array([1.0, 0.0, 0.0, 0.0], dtype=complex))
        r = RateSet(gamma10=1e6, tunnel_0g=1e4, tunnel_1g=1e8, tunnel_0e=1e5, tunnel_1e=1e8)
        ev = jump_decision(s, r, 1e-9, 0.0)
        assert ev is not None and ev.kind == "tunnel" and ev.channel == "0g"
        # no jump when the draw exceeds the total probability
        assert jump_decision(s, r, 1e-9, 0.5) is None

    def test_relax_channel_selection(self):
        s = QuantumState(np.array([0.0, 1.0], dtype=complex))
        r = RateSet(gamma10=1e6, tunnel_0g=0.0, tunnel_1g=0.0, tunnel_0e=0, tunnel_1e=0)
        ev = jump_decision(s, r, 1e-8, 0.5e-2)
        assert ev is not None and ev.kind == "relax" and ev.channel == "1g->0g"

    def test_binomial_channel_statistics(self):
        # equal-occupation superposition with two equal-rate escape channels
        amp = 1.0 / math.sqrt(2.0)
        s = QuantumState(np.array([0.0, amp, amp, 0.0], dtype=complex))
        gamma = 1e6
        r = RateSet(gamma10=0.0, tunnel_0g=0.0, tunnel_1g=gamma, tunnel_0e=gamma, tunnel_1e=0.0)
        dt = 2e-8
        dp = gamma * dt  # total jump probability (two channels at half weight)
        from jjswitch import rng

        n = 100_000
        u = rng.uniform_block(4242, 0, 0, n)
        fired = u < dp
        k_fired = int(fired.sum())
        # firing frequency within 3 sigma of binomial
        sigma = math.sqrt(n * dp * (1 - dp))
        assert abs(k_fired - n * dp) < 3 * sigma
        # channel split among fired: conditional probability 1/2 each
        chosen_1g = 0
        for uu in u[fired]:
            ev = jump_decision(s, r, dt, float(uu))
            assert ev is not None and ev.kind == "tunnel"
            if ev.channel == "1g":
                chosen_1g += 1
        sigma_half = 0.5 * math.sqrt(k_fired)
        assert abs(chosen_1g - k_fired / 2) < 3 * sigma_half


class TestApplyRelax:
    def test_relax_to_g_ground(self):
        s = QuantumState(np.array([0.3, 0.5, 0.4, 0.2], dtype=complex), t=1.0, I_dc=2.0, flag=1)
        out = apply_relax(s, "1g->0g")
        assert np.array_equal(out.amplitudes, [1, 0, 0, 0])
        assert out.flag == 0 and out.t == 1.0 and out.I_dc == 2.0
        assert out.norm_squared() == 1.0

    def test_relax_to_e_ground(self):
        s = QuantumState(np.array([0.3, 0.5, 0.4, 0.2], dtype=complex))
        out = apply_relax(s, "1e->0e")
        assert np.array_equal(out.amplitudes, [0, 0, 1, 0])
        assert out.flag == 1

    def test_rejects_tunnel_channel(self):
        s = QuantumState(np.array([1.0, 0.0], dtype=complex))
        with pytest.raises(PhysicsDomainError):
            apply_relax(s, "0g")


class TestGridConsistency:
    """The batched grid must build the same generator as the public ops."""

    @pytest.mark.parametrize("frame", ["rwa", "lab"])
    @pytest.mark.parametrize("dim", [2, 4])
    def test_grid_matches_builders(self, junction_tls, tls, frame, dim):
        d = fast_drive(junction_tls)
        cfg = EngineConfig(dimension=dim, frame=frame, master_seed=1, ramps=1)
        grid = RampGrid(junction_tls, tls if dim == 4 else None, d, cfg)
        H_chunk = grid.hamiltonian_chunk(0, grid.n_steps)
        for k in [0, grid.n_steps // 3, grid.n_steps - 1]:
            i_mid, t_mid = grid.I_mid[k], grid.t_mid[k]
            r = rate_set(junction_tls, i_mid, clamp_e_branch=True)
            if dim == 2:
                H = hamiltonian_2(junction_tls, d, i_mid, t_mid, frame)
                He = effective_hamiltonian_2(H, r)
            else:
                H = hamiltonian_4(junction_tls, tls, d, i_mid, t_mid, frame)
                He = effective_hamiltonian_4(H, r)
            got = H_chunk[k]
            # the grid centres the Hermitian diagonal; undo the shift
            shift = (np.trace(He) - np.trace(got)) / dim
            assert np.allclose(got + shift * np.eye(dim), He, rtol=1e-9, atol=1e-3)

    def test_propagator_equals_substepped_rk4(self, junction):
        """One grid propagator application == repeated explicit RK4 steps."""
        d = fast_drive(junction)
        cfg = EngineConfig(dimension=2, frame="rwa", master_seed=1, ramps=1)
        grid = RampGrid(junction, None, d, cfg)
        k = grid.n_steps // 2
        pt = grid.propagator_chunk(k, k + 1)[0]
        H = grid.hamiltonian_chunk(k, k + 1)[0]
        dt = grid.dt[k]
        theta = grid._scale[k] * dt
        n_sub = 2 ** max(0, math.ceil(math.log2(max(theta / 0.05, 1.0))))
        psi = np.array([0.6, 0.8j], dtype=complex)
        state = QuantumState(psi.copy())
        for _ in range(n_sub):
            state = evolve_step(state, H, dt / n_sub)
        assert np.allclose(psi @ pt, state.amplitudes, rtol=1e-12, atol=1e-15)


class TestRampRuns:
    def test_no_microwave_single_peak(self, junction):
        d = BiasDrive(35.45e-6, RAMP_RATE, 0.0, TWO_PI * F_DRIVE)
        cfg = EngineConfig(dimension=2, frame="rwa", master_seed=3, ramps=1)
        recs = run_ensemble(junction, None, d, cfg, 300)
        currents = np.array([r.switching_current for r in recs])
        assert currents.std() < 0.03e-6
        assert 35.6e-6 < currents.mean() < 35.72e-6
        for r in recs:
            tunnels = [e for e in r.events if e.kind == "tunnel"]
            assert len(tunnels) == 1
            assert r.flag_at_switch == 0
            assert d.dc_start < r.switching_current < I0

    def test_zero_rates_hit_guard(self, junction):
        d = fast_drive(junction)
        cfg = EngineConfig(dimension=2, frame="rwa", master_seed=3, ramps=1)
        zeros = lambda I: np.zeros((I.size, 5))
        with pytest.raises(ConfigError):
            run_ramp(junction, None, d, cfg, rates_fn=zeros)

    def test_step_ceiling_guard(self, junction):
        d = fast_drive(junction)
        cfg = EngineConfig(
            dimension=2, frame="rwa", master_seed=3, ramps=1, step_ceiling=100
        )
        with pytest.raises(ConfigError):
            run_ramp(junction, None, d, cfg)

    def test_determinism_and_slice_independence(self, junction_tls, tls):
        d = fast_drive(junction_tls)
        cfg = EngineConfig(dimension=4, frame="rwa", master_seed=11, ramps=1)
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
        cfg = EngineConfig(dimension=2, frame="rwa", master_seed=5, ramps=1)
        one = run_ramp(junction, None, d, cfg, stream_index=0)
        ens = run_ensemble(junction, None, d, cfg, 3)
        assert one.switching_current == ens[0].switching_current

    def test_sequence_equals_manual_chain(self, junction_tls, tls):
        d = fast_drive(junction_tls)
        cfg = EngineConfig(dimension=4, frame="rwa", master_seed=17, ramps=12)
        seq = run_sequence(junction_tls, tls, d, cfg)
        flag = 0
        for i, rec in enumerate(seq):
            manual = run_ramp(junction_tls, tls, d, cfg, init_flag=flag, stream_index=i)
            assert manual.switching_current == rec.switching_current
            assert manual.flag_at_switch == rec.flag_at_switch
            flag = rec.flag_at_switch

    def test_variants_share_one_grid(self, junction_tls, tls, monkeypatch):
        from jjswitch import engine

        built = []

        class CountedGrid(RampGrid):
            def __init__(self, *args, **kwargs):
                built.append(self)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(engine, "RampGrid", CountedGrid)
        d = fast_drive(junction_tls)
        cfg = EngineConfig(dimension=4, frame="rwa", master_seed=17, ramps=4)
        rec0, rec1 = sequence_variants(junction_tls, tls, d, cfg, range(4))
        assert len(built) == 1
        assert [r.ramp_index for r in rec0] == [r.ramp_index for r in rec1] == [0, 1, 2, 3]

    def test_flag_flow_and_fold(self):
        rec0 = [SwitchRecord(i, 1.0, i % 2) for i in range(6)]
        rec1 = [SwitchRecord(i, 2.0, 1) for i in range(6)]
        chain = fold_sequence(rec0, rec1, init_flag=0)
        # ramp 0 from rec0 (flag 0 start); afterwards the previous flag picks
        flag = 0
        for i, rec in enumerate(chain):
            assert rec is (rec0[i] if flag == 0 else rec1[i])
            flag = rec.flag_at_switch

    def test_decoupled_tls_keeps_flag(self, junction_tls):
        tls0 = TlsParams(TWO_PI * F_TLS, 0.0)
        d = fast_drive(junction_tls)
        cfg = EngineConfig(dimension=4, frame="rwa", master_seed=23, ramps=10)
        recs = run_sequence(junction_tls, tls0, d, cfg)
        assert all(r.flag_at_switch == 0 for r in recs)

    def test_two_level_rejects_flag_one(self, junction):
        d = fast_drive(junction)
        cfg = EngineConfig(dimension=2, frame="rwa", master_seed=3, ramps=1)
        with pytest.raises(ConfigError):
            run_ramp(junction, None, d, cfg, init_flag=1)

    def test_lab_frame_short_window(self, junction):
        """Lab and rotating frames agree on where the junction escapes."""
        d_lab = fast_drive(junction, rabi_hz=10e6, dc_start=35.62e-6, ramp_rate=2.0)
        cfg_lab = EngineConfig(dimension=2, frame="lab", master_seed=29, ramps=1)
        cfg_rwa = EngineConfig(dimension=2, frame="rwa", master_seed=29, ramps=1)
        lab = run_ensemble(junction, None, d_lab, cfg_lab, 60)
        rwa = run_ensemble(junction, None, d_lab, cfg_rwa, 60)
        lab_mean = np.mean([r.switching_current for r in lab])
        rwa_mean = np.mean([r.switching_current for r in rwa])
        assert lab_mean == pytest.approx(rwa_mean, abs=0.01e-6)


class TestStaticEnsemble:
    def test_matches_lindblad(self, junction):
        i_res = resonance_current(junction, TWO_PI * F_DRIVE)
        i_uw = microwave_amplitude_for_rabi(junction, TWO_PI * 10e6, i_res)
        d = BiasDrive(35.4e-6, RAMP_RATE, i_uw, TWO_PI * F_DRIVE)
        H = hamiltonian_2(junction, d, i_res, 0.0, "rwa")
        r = RateSet(
            gamma10=float(relaxation_rate(junction, i_res)),
            tunnel_0g=0.0,
            tunnel_1g=0.0,
            tunnel_0e=0.0,
            tunnel_1e=0.0,
        )
        cfg = EngineConfig(dimension=2, frame="rwa", master_seed=31, ramps=1)
        t_final = 3e-6
        times, rho_mc = run_static_ensemble(H, r, cfg, 3000, t_final, n_checkpoints=6)

        def rhs(t, y):
            return lindblad_rhs(y.reshape(2, 2), H, r).ravel()

        rho0 = np.zeros((2, 2), dtype=complex)
        rho0[0, 0] = 1.0
        sol = solve_ivp(
            rhs, (0, t_final), rho0.ravel(), method="DOP853", rtol=1e-10,
            atol=1e-13, dense_output=True,
        )
        for k, t in enumerate(times):
            exact = sol.sol(t).reshape(2, 2)
            assert np.abs(rho_mc[k] - exact).max() < 0.04

    def test_deterministic(self, junction):
        H = np.array([[0.0, 1e6], [1e6, 5e5]], dtype=complex)
        r = RateSet(gamma10=1e5, tunnel_0g=0, tunnel_1g=0, tunnel_0e=0, tunnel_1e=0)
        cfg = EngineConfig(dimension=2, frame="rwa", master_seed=37, ramps=1)
        t1, r1 = run_static_ensemble(H, r, cfg, 500, 1e-5)
        t2, r2 = run_static_ensemble(H, r, cfg, 500, 1e-5)
        assert np.array_equal(r1, r2)
